"""One workload in its own process: rounds of a `tumorhs` command, timed.

Started by run.py with single-threaded BLAS/OpenMP and no TUMORHS_*
overrides in the environment.  It imports the package (set-up), then calls
`tumorhs.cli.main` with the workload's arguments, one round after another,
until about --seconds have been measured.  Time spent in the `config` layer (config
parse and initial-data building, prerelaxed warmup runs included) is set-up,
not wall time.

With --trace 1 it spends the first half of --seconds on untraced rounds and
the second half on traced ones.  These add spans around the per-step solver
calls, the monitors and the output writer, count CG iterations and balance
mass along two independent paths.  The spans and per-layer metrics of the
traced rounds, and the tracing overhead (traced minus untraced wall time),
are written out at the end.

Results go to <scratch>/child.json; the captured initial and final densities
of every measured solver run go to <scratch>/captured.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg  # noqa: F401  (imports warmed outside the timed rounds)
import scipy.sparse.linalg  # noqa: F401

from tumorhs import analytic, cli, config, limit, monitors, runio, solver  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import check_mass_balance  # noqa: E402
from spans import PROBE, Tracer  # noqa: E402

ROUND = "cli.main"      # the span around one round, i.e. one call of the command


class Probes:
    """What the wrappers observe, keyed by the span index of the call."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.runs = {}          # solver.run span -> facts about the run
        self.captured = []      # (n0, nT, h) of measured runs, in order
        self.source = {}        # solver.run span -> [sum dt int nG, clipped, |terms|]
        self.cg_iters = {}      # step_nutrient span -> CG iterations
        self.snapshots = 0
        self.bytes_written = 0

    def run(self, idx, args, kwargs, traj):
        vol = traj.grid.cell_volume
        warm = self.tracer.inside(idx, "config.")
        self.runs[idx] = {
            "warm": warm,
            "steps": int(traj.meta["steps"]),
            "dt_min": float(np.min(traj.dts)) if len(traj.dts) else float("nan"),
            "dt_max": float(np.max(traj.dts)) if len(traj.dts) else float("nan"),
            "history_bytes": int(traj.n.nbytes + traj.p.nbytes + traj.c.nbytes),
            "mass0": float(np.sum(traj.n[0])) * vol,
            "massT": float(np.sum(traj.n[-1])) * vol,
        }
        if not warm:
            self.captured.append((np.array(traj.n[0]), np.array(traj.n[-1]), traj.grid.h))

    def step_density(self, idx, args, kwargs, result):
        bound = {**dict(zip(("state", "dt", "params", "spec"), args)), **kwargs}
        state, dt, spec = bound["state"], bound["dt"], bound["spec"]
        term = dt * float(np.sum(state.n * spec.G(state.p, state.c))) * state.grid.cell_volume
        acc = self.source.setdefault(self.tracer.parent[idx], [0.0, 0.0, 0.0])
        acc[0] += term
        acc[1] += result[2]
        acc[2] += abs(term)

    def compute_report(self, idx, args, kwargs, report):
        self.snapshots += len(args[0] if args else kwargs["traj"])

    def write_run(self, idx, args, kwargs, out_dir):
        self.bytes_written += sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())

    def wrap_cg(self):
        """Count CG iterations through the solver's callback, per open span."""
        orig = solver.sparse_cg
        stack, counts = self.tracer.stack, self.cg_iters

        def counted_cg(*args, **kwargs):
            owner = stack[-1]
            user_cb = kwargs.pop("callback", None)

            def callback(xk):
                counts[owner] = counts.get(owner, 0) + 1
                if user_cb is not None:
                    user_cb(xk)

            return orig(*args, callback=callback, **kwargs)

        self.tracer.replace(solver, "sparse_cg", counted_cg)


def install_coarse(tracer: Tracer, probes: Probes) -> None:
    """Spans around the config layer and solver.run: they split set-up from wall time."""
    for attr in ("parse_config", "parse_config_text", "build_setup"):
        tracer.wrap(config, attr)
    tracer.wrap(solver, "run", probe=probes.run)


def install_fine(tracer: Tracer, probes: Probes) -> None:
    """Spans around the per-step solver calls, the monitors and the writer."""
    tracer.wrap(solver, "cfl_dt")
    tracer.wrap(solver, "step_density", probe=probes.step_density)
    tracer.wrap(solver, "step_nutrient")
    probes.wrap_cg()
    tracer.wrap(monitors, "build_weight")
    tracer.wrap(monitors, "compute_report", probe=probes.compute_report)
    tracer.wrap(runio, "write_run", probe=probes.write_run)


def run_rounds(tracer: Tracer, command: list, scratch: Path, first: int,
               seconds: float) -> list:
    """Whole rounds, as many as make the measured time closest to `seconds`;
    returns their exit codes."""
    rcs = []
    begin = time.perf_counter()
    while True:
        out = scratch / f"round{first + len(rcs)}"
        with tracer.span(ROUND):
            rcs.append(cli.main([arg.replace("{out}", str(out)) for arg in command]))
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(rcs) > seconds:
            return rcs


def span_table(tracer: Tracer):
    """Per-span arrays plus the round each span belongs to."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    names = np.array(tracer.names)[a["name_id"]]
    round_of = np.empty(len(dur), dtype=np.int64)
    for i, par in enumerate(a["parent"]):
        round_of[i] = i if par < 0 else round_of[par]
    return a, dur, names, round_of


def layer_metrics(tracer: Tracer, probes: Probes, traced: np.ndarray,
                  walls: list, plain_walls: list) -> dict:
    """Per-layer metrics, per traced round, from the spans of the traced rounds."""
    a, dur, names, round_of = span_table(tracer)
    mine = np.isin(round_of, traced)
    names = np.where(mine, names, "")
    self_t = tracer.self_times()
    in_cfg = tracer.within("config.")
    measured_run = (names == "solver.run") & ~in_cfg
    run_ids = set(np.flatnonzero(measured_run).tolist())
    under_run = np.array([p in run_ids for p in a["parent"]])

    # a probe inside a span (the mass probe inside solver.run) is tracing cost
    is_probe = names == PROBE
    probe_inside = np.zeros_like(dur)
    np.add.at(probe_inside, a["parent"][is_probe], dur[is_probe])

    def total(mask):
        return float(np.sum(dur[mask] - probe_inside[mask]))

    runs = [probes.runs[i] for i in sorted(run_ids)]
    warm = [probes.runs[i] for i in np.flatnonzero((names == "solver.run") & in_cfg)]
    steps = sum(r["steps"] for r in runs)
    per = 1.0 / len(traced)
    layer_self = {}
    for name, s in zip(names[mine], self_t[mine]):
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(s)
    step_spans = set(np.flatnonzero(under_run & (names == "solver.step_nutrient")).tolist())
    report_s = total(names == "monitors.compute_report")
    m = {
        "config.build_setup_s": total((names == "config.build_setup") & ~in_cfg) * per,
        "config.warmup_steps": sum(r["steps"] for r in warm) * per,
        "solver.run_s": total(measured_run) * per,
        "solver.step_us": total(measured_run) / max(steps, 1) * 1e6,
        "solver.cfl_dt_s": total(under_run & (names == "solver.cfl_dt")) * per,
        "solver.step_density_s": total(under_run & (names == "solver.step_density")) * per,
        "solver.step_nutrient_s": total(under_run & (names == "solver.step_nutrient")) * per,
        "solver.nutrient_cg_iters": sum(v for k, v in probes.cg_iters.items()
                                        if k in step_spans) * per,
        "solver.loop_other_s": float(np.sum(self_t[measured_run])) * per,
        "solver.dt_min": min(r["dt_min"] for r in runs),
        "solver.dt_max": max(r["dt_max"] for r in runs),
        "solver.history_mb": max(r["history_bytes"] for r in runs) / 1e6,
        "monitors.compute_report_s": report_s * per,
        "monitors.report_ms_per_snapshot": report_s * 1e3 / max(probes.snapshots, 1),
        "runio.write_run_s": total(names == "runio.write_run") * per,
        "runio.bytes_written": probes.bytes_written * per,
        "config.self_s": layer_self.get("config", 0.0) * per,
        "solver.self_s": layer_self.get("solver", 0.0) * per,
        "monitors.self_s": layer_self.get("monitors", 0.0) * per,
        "runio.self_s": layer_self.get("runio", 0.0) * per,
        "cli.self_s": layer_self.get("cli", 0.0) * per,
        "trace.probe_s": layer_self.get(PROBE.split(".")[0], 0.0) * per,
        "trace.wall_s": statistics.median(walls),
        "trace.overhead_s": statistics.median(walls) - statistics.median(plain_walls),
    }
    return m


def mass_balance(probes: Probes, run_ids) -> tuple:
    """(failures, largest |path one - path two|) over the given solver runs."""
    fails, worst = [], 0.0
    for idx in run_ids:
        r = probes.runs[idx]
        gain, clipped, scale = probes.source.get(idx, [0.0, 0.0, 0.0])
        path1 = gain - clipped
        path2 = r["massT"] - r["mass0"]
        worst = max(worst, abs(path1 - path2))
        errs = check_mass_balance(path1, path2, r["mass0"] + scale + clipped, r["steps"])
        fails += [f"run span {idx}: {e}" for e in errs]
    return fails, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", required=True, help="JSON list of tumorhs arguments")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of the parent just before it started this process")
    args = ap.parse_args(argv)
    command = json.loads(args.command)
    scratch = Path(args.scratch)

    tracer = Tracer()
    probes = Probes(tracer)
    install_coarse(tracer, probes)
    t_ready = time.perf_counter()

    # with --trace 1, untraced rounds for the first half of the time and traced
    # ones for the second, so the same process measures the tracing overhead
    share = args.seconds / (2 if args.trace else 1)
    rcs = run_rounds(tracer, command, scratch, 0, share)
    plain = len(rcs)
    if args.trace:
        install_fine(tracer, probes)
        rcs += run_rounds(tracer, command, scratch, plain, share)
    tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    _, dur, names, round_of = span_table(tracer)
    setup_part = np.char.startswith(names, "config.") & ~tracer.within("config.")
    round_ids = np.flatnonzero(names == ROUND)
    rounds = []
    for i, (r, rc) in enumerate(zip(round_ids, rcs)):
        setup = float(np.sum(dur[(round_of == r) & setup_part]))
        runs = [v for k, v in probes.runs.items() if round_of[k] == r and not v["warm"]]
        rounds.append({"wall_s": float(dur[r]) - setup, "setup_s": setup,
                       "steps": sum(v["steps"] for v in runs), "runs": len(runs),
                       "traced": i >= plain, "exit_code": rc})

    result = {
        "rounds": rounds,
        "setup_s": (t_ready - args.t0) + rounds[0]["setup_s"],
        "peak_rss_mb": peak_rss_mb,
        "outputs": [str(scratch / f"round{i}") for i in range(len(rounds))],
    }
    if args.trace:
        traced = round_ids[plain:]
        metrics = layer_metrics(tracer, probes, traced,
                                [r["wall_s"] for r in rounds[plain:]],
                                [r["wall_s"] for r in rounds[:plain]])
        result["per_layer"] = metrics
        traced_runs = [k for k in probes.runs if round_of[k] in set(traced.tolist())]
        result["mass_balance_failures"], worst = mass_balance(probes, traced_runs)
        trace_out = Path(args.trace_out)
        trace_out.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_out / "spans.npz")
        (trace_out / "layers.json").write_text(json.dumps(
            {"rounds": rounds, "per_layer": metrics, "mass_balance_max_abs_err": worst,
             "mass_balance_failures": result["mass_balance_failures"]},
            indent=1, sort_keys=True), encoding="utf-8")
    np.savez(scratch / "captured.npz",
             **{f"n0_{i}": c[0] for i, c in enumerate(probes.captured)},
             **{f"nT_{i}": c[1] for i, c in enumerate(probes.captured)},
             h=np.array([c[2] for c in probes.captured]))
    (scratch / "child.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
