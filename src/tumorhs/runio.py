"""Run-directory layout and serialization.

Each run writes into a directory named by the content hash of its effective
configuration, so identical configs land in identical places and nothing is
ever silently overwritten with different content:

    <out>/<hash12>/
        config.echo.cfg    effective configuration (defaults filled in)
        manifest.json      version stamp, grid, snapshot count, byte offsets
        fields.bin         raw little-endian float64 blocks (n, p, c per snapshot)
        final_state.csv    last snapshot as text (coordinates, n, p, c)
        monitors.csv       per-snapshot monitor rows (t, dt, then one column each)
        summary.json       accumulated monitors plus run metadata
        timing.json        solver runtime, step count, smallest and largest dt,
                           steps cut short by a snapshot mark, 1D front rule,
                           largest nutrient solve residual, mean 2D density box,
                           time of the monitor pass and of the field writes

fields.bin is streamed: a FieldWriter, one of the sinks of solver.run,
appends each snapshot to fields.partial.bin as the run reaches it, and the
file is renamed to fields.bin once the run has succeeded; write_run writes
the other files at the end.  A run that fails with a SolverError keeps
fields.partial.bin, which holds exactly the snapshots reached, and gets a
partial.json beside it (snapshot count and times) in place of the other
files.

No timestamps are written anywhere, and the wall-clock times go to
timing.json alone: repeated identical invocations produce bitwise-identical
files apart from timing.json.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .grid import Grid
from .monitors import MonitorReport
from .solver import Trajectory

__all__ = [
    "run_dir_for",
    "FieldWriter",
    "write_run",
    "write_monitor_csv",
    "load_summary",
    "load_trajectory",
]

FIELD_NAMES = ("n", "p", "c")


def config_hash(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()[:12]


def run_dir_for(out_root, config_text: str, tag: str = "") -> Path:
    name = config_hash(config_text)
    if tag:
        name = f"{name}-{tag}"
    return Path(out_root) / name


def _grid_manifest(g: Grid) -> dict:
    return {"dimension": g.dim, "lo": g.lo, "hi": g.hi, "cells": g.n, "h": g.h}


PARTIAL_FIELDS = "fields.partial.bin"


def write_snapshot(fh, state) -> None:
    """Append one snapshot's n, p and c to fh as raw little-endian float64."""
    for name in FIELD_NAMES:
        fh.write(np.ascontiguousarray(getattr(state, name), dtype="<f8"))


class FieldWriter:
    """A run sink that streams the fields to <out_dir>/fields.partial.bin, one
    snapshot (n, p, c) at a time as the run reaches it; times are the run's
    snapshot times.  finish() renames the file to fields.bin once the run has
    succeeded; after a failure, abort() writes partial.json beside it, so the
    partial dump holds exactly the snapshots reached.

    An OSError while streaming removes the file and ends the writing;
    finish() or abort() raises it.  Use it as a context manager: leaving the
    block closes the file.
    """

    def __init__(self, out_dir, times):
        self.out_dir = Path(out_dir)
        self.times = times
        self.count = 0              # snapshots written
        self.error = None
        self._fh = None

    def __enter__(self) -> "FieldWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __call__(self, k: int, state, snap_dt: float) -> None:
        if self.error is not None:
            return
        try:
            if self._fh is None:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                # a buffer of many 1D snapshots: one write call per megabyte
                self._fh = open(self.out_dir / PARTIAL_FIELDS, "wb", buffering=1 << 20)
            write_snapshot(self._fh, state)
        except OSError as exc:
            self.error = exc
            self._discard(PARTIAL_FIELDS)
            return
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()

    def _discard(self, *names) -> None:
        """Close the file and remove the named files, as far as possible."""
        try:
            self.close()
        except OSError:
            pass
        for name in names:
            try:
                (self.out_dir / name).unlink(missing_ok=True)
            except OSError:
                pass

    def finish(self) -> None:
        """Rename the streamed file to fields.bin."""
        self.close()
        if self.error is not None:
            raise self.error
        os.replace(self.out_dir / PARTIAL_FIELDS, self.out_dir / "fields.bin")

    def abort(self) -> None:
        """Write partial.json beside the snapshots streamed.  On an OSError,
        now or while streaming, neither file is left behind and the error
        propagates."""
        try:
            self.close()
            if self.error is not None:
                raise self.error
            with open(self.out_dir / "partial.json", "w", encoding="utf-8") as fh:
                json.dump({"version": __version__, "snapshots": self.count,
                           "times": [float(t) for t in self.times[:self.count]],
                           "note": "aborted run; snapshots up to the failure"}, fh)
        except OSError:
            self._discard(PARTIAL_FIELDS, "partial.json")
            raise


def _field_offsets(K: int, g: Grid) -> list:
    """The byte-offset table of fields.bin: K snapshots of n, p, c."""
    nbytes = 8 * g.n ** g.dim
    return [{"snapshot": k, "field": name, "offset": (3 * k + i) * nbytes,
             "bytes": nbytes}
            for k in range(K) for i, name in enumerate(FIELD_NAMES)]


def write_state_csv(path, traj: Trajectory, k: int) -> None:
    """One snapshot as text: coordinates, then n, p, c per cell."""
    g = traj.grid
    cols = [np.ravel(c) for c in g.coords]
    cols += [np.ravel(traj.n[k]), np.ravel(traj.p[k]), np.ravel(traj.c[k])]
    header = ",".join([f"x{i}" for i in range(g.dim)] + ["n", "p", "c"])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="", fmt="%.17g")


def write_monitor_csv(path, report: MonitorReport) -> None:
    names = list(report.series.keys())
    K = len(report.series["t"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for k in range(K):
            fh.write(",".join(f"{float(report.series[n][k]):.17g}" for n in names))
            fh.write("\n")


def write_timing(path, traj: Trajectory) -> None:
    """Wall-clock times and step statistics: the one file of a run that
    differs between identical invocations.  runtime_s is the solver's time;
    monitor_s and write_s are the time of the monitor pass and of the
    streamed field writes, which the run's snapshots went to as it reached
    them (so the solver's time excludes them).  steps_at_marks counts the steps
    a snapshot mark cut short; the others took the full step of the rule,
    whose front Courant number is front_courant.
    nutrient_residual_max is the largest relative residual of the run's
    nutrient solves, and density_window_mean the mean fraction of the cells
    the 2D density step worked on (2D only, else null)."""
    dts = traj.dts
    timing = {
        "runtime_s": float(traj.meta.get("runtime_s", 0.0)),
        "steps": len(dts),
        "dt_min": float(dts.min()) if len(dts) else None,
        "dt_max": float(dts.max()) if len(dts) else None,
        "steps_at_marks": traj.meta.get("steps_at_marks"),
        "front_courant": traj.meta.get("front_courant"),
        "nutrient_residual_max": traj.meta.get("nutrient_residual_max"),
        "density_window_mean": traj.meta.get("density_window_mean"),
        "monitor_s": traj.meta.get("monitor_s"),
        "write_s": traj.meta.get("write_s"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh, indent=1, sort_keys=True)


def write_run(out_dir, config_text: str, traj: Trajectory,
              report: MonitorReport) -> Path:
    """Write every file of a finished run but fields.bin, which the run's
    FieldWriter has streamed; traj holds the run's last snapshot, report
    its snapshot times."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.echo.cfg").write_text(config_text, encoding="utf-8")
    write_state_csv(out_dir / "final_state.csv", traj, -1)
    times = report.series["t"]
    manifest = {
        "version": __version__,
        "grid": _grid_manifest(traj.grid),
        "snapshots": len(times),
        "times": [float(t) for t in times],
        "fields": list(FIELD_NAMES),
        "dtype": "<f8",
        "offsets": _field_offsets(len(times), traj.grid),
        "config_hash": config_hash(config_text),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    write_timing(out_dir / "timing.json", traj)
    write_monitor_csv(out_dir / "monitors.csv", report)
    summary = {
        "version": __version__,
        "gamma": traj.params.gamma,
        "accumulated": {k: float(v) for k, v in report.accum.items()},
        "meta": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                 for k, v in report.meta.items()},
        "clipped_mass": float(traj.clipped_mass),
        "steps": int(traj.meta.get("steps", 0)),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return out_dir


def load_summary(run_dir) -> dict:
    with open(Path(run_dir) / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_trajectory(run_dir) -> Trajectory:
    """Rebuild a trajectory (fields, times and model parameters) from a run
    directory.  The parameters come from config.echo.cfg; gamma from
    summary.json when present, since a sweep echoes its base config and
    passes each gamma as an override."""
    from . import config
    run_dir = Path(run_dir)
    with open(run_dir / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    gm = manifest["grid"]
    g = Grid(dim=gm["dimension"], lo=gm["lo"], hi=gm["hi"], n=gm["cells"])
    K = manifest["snapshots"]
    raw = np.fromfile(run_dir / "fields.bin", dtype="<f8")
    blocks = raw.reshape(K, len(FIELD_NAMES), *g.shape)
    summary = {}
    if (run_dir / "summary.json").exists():
        summary = load_summary(run_dir)
    cfg = config.parse_config_text(
        (run_dir / "config.echo.cfg").read_text(encoding="utf-8"), env={})
    params = config._model_params(cfg, summary.get("gamma"))
    return Trajectory(grid=g, params=params,
                      times=np.asarray(manifest["times"]),
                      n=blocks[:, 0], p=blocks[:, 1], c=blocks[:, 2],
                      snap_dts=np.zeros(K), dts=np.zeros(0),
                      clipped_mass=float(summary.get("clipped_mass", 0.0)),
                      meta={"version": manifest["version"]})
