"""Benchmark of tumorhs: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload sweep1d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/tumorhs` and `configs/`.
Each run starts the workload in its own process (perfbench/child.py) with
single-threaded BLAS/OpenMP and no TUMORHS_* overrides, checks the outputs
with the property checks of perfbench/checks.py, removes its outputs, and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from a
traced run (spans and per-layer metrics are also kept under
perfbench_out/trace/).  The solver is deterministic and draws no random
numbers: the inputs are the same for every --seed, which only names the
scratch directory.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

CHILD_TIMEOUT_S = 170.0

SWEEP_GAMMAS = (10.0, 20.0, 40.0)
BARENBLATT = {"gamma": 5.0, "cells": (100, 200, 400), "horizon": 1.0,
              # the ladder's own defaults below gamma 8: box [-2, 2], mass 1
              "L": 2.0, "mass": 1.0, "t0": 0.1}

# The standard model in 2D from the plain (not prerelaxed) plateau on 128^2,
# T = 0.75 with 301 snapshots; monitor settings as in the standard experiment.
PLATEAU2D_CFG = """\
[model]
gamma = 20
p_h = 1.0
c_b = 1.0
g0 = 1.0
c1 = 0.1
c2 = 0.5
[grid]
dimension = 2
box_half_width = 3.9
cells = 128
[initial]
builder = plateau
theta = 0.55
radius = 1.2
edge_width = 0.3
[time]
horizon = 0.75
snapshot_dt = 2.5e-3
cfl_safety = 0.4
[monitors]
zeta_center = 0.0
zeta_radius = 1.5
zeta_t_center = 0.4
zeta_t_halfwidth = 0.3
"""


def sweep_config_text() -> str:
    """configs/standard1d.cfg with its sweep cut to the three cheapest gammas."""
    lines = (ROOT / "configs" / "standard1d.cfg").read_text(encoding="utf-8").splitlines()
    out = [f"gammas = {', '.join(f'{g:g}' for g in SWEEP_GAMMAS)}"
           if ln.split("=")[0].strip() == "gammas" else ln for ln in lines]
    if out == lines:
        raise SystemExit("configs/standard1d.cfg has no [sweep] gammas line")
    return "\n".join(out) + "\n"


def prepare(workload: str, scratch: Path) -> list:
    """Write the workload's inputs into scratch; return its tumorhs arguments."""
    if workload == "sweep1d":
        (scratch / "sweep1d.cfg").write_text(sweep_config_text(), encoding="utf-8")
        return ["sweep", "--config", str(scratch / "sweep1d.cfg"), "--out", "{out}",
                "--workers", "1", "--assert"]
    if workload == "plateau2d":
        (scratch / "plateau2d.cfg").write_text(PLATEAU2D_CFG, encoding="utf-8")
        return ["run", "--config", str(scratch / "plateau2d.cfg"), "--out", "{out}",
                "--assert"]
    if workload == "barenblatt1d":
        b = BARENBLATT
        return ["barenblatt-convergence", "--gammas", f"{b['gamma']:g}",
                "--cells", *[str(n) for n in b["cells"]],
                "--horizon", f"{b['horizon']:g}", "--out", "{out}", "--assert"]
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks, one function per workload; each returns failure messages
# ---------------------------------------------------------------------------

def check_sweep1d(scratch: Path, out: Path, captured) -> list:
    from checks import (check_bounds, check_decay, check_graph_residual,
                        graph_residual, load_fields, read_cfg)
    cfg = read_cfg((scratch / "sweep1d.cfg").read_text(encoding="utf-8"))
    p_H, c_B = float(cfg["model"]["p_h"]), float(cfg["model"]["c_b"])
    h = 2.0 * float(cfg["grid"]["box_half_width"]) / int(cfg["grid"]["cells"])
    fails, residuals = [], []
    for gamma in SWEEP_GAMMAS:
        dirs = sorted(out.glob(f"*-g{gamma:g}"))
        if len(dirs) != 1:
            fails.append(f"gamma={gamma:g}: expected one run directory, found {len(dirs)}")
            continue
        _, n, p, c = load_fields(dirs[0])
        fails += [f"gamma={gamma:g}: {f}" for f in check_bounds(n, p, c, gamma, p_H, c_B)]
        fails += check_graph_residual(n, p, gamma, p_H, h)
        residuals.append(graph_residual(n, p))
    if len(residuals) == len(SWEEP_GAMMAS):
        fails += check_decay(SWEEP_GAMMAS, residuals)
    return fails


def check_plateau2d(scratch: Path, out: Path, captured) -> list:
    from checks import (cell_centers, check_barrier, check_bounds, check_graph_residual,
                        check_symmetry, load_fields, read_cfg)
    cfg = read_cfg(PLATEAU2D_CFG)
    gamma, p_H, c_B, g0, c1, c2 = (float(cfg["model"][k])
                                   for k in ("gamma", "p_h", "c_b", "g0", "c1", "c2"))
    dirs = [d for d in out.iterdir() if (d / "manifest.json").exists()]
    if len(dirs) != 1:
        return [f"expected one run directory, found {len(dirs)}"]
    times, n, p, c = load_fields(dirs[0])
    h, radius = cell_centers(float(cfg["grid"]["box_half_width"]),
                             int(cfg["grid"]["cells"]), 2)
    fails = check_bounds(n, p, c, gamma, p_H, c_B)
    fails += check_graph_residual(n, p, gamma, p_H, h)
    fails += check_symmetry({"n": n, "p": p, "c": c})
    G0 = g0 * p_H * (c_B + c1) - c2   # G(0, c_B) of the default reactions
    fails += check_barrier(times, n, p[0], radius, G0, h)
    return fails


def check_barenblatt1d(scratch: Path, out: Path, captured) -> list:
    from checks import barenblatt_cell_averages, check_ladder, check_mass_conserved
    b = BARENBLATT
    m = b["gamma"] + 1.0
    prm = {"m": m, "kappa": b["gamma"] / m, "mass": b["mass"], "t0": b["t0"]}
    if len(captured) != len(b["cells"]):
        return [f"expected {len(b['cells'])} solver runs, saw {len(captured)}"]
    fails, errors = [], []
    for N, (n0, nT, h) in zip(b["cells"], captured):
        if len(nT) != N:
            return [f"run has {len(nT)} cells, expected {N}"]
        exact0 = barenblatt_cell_averages(b["L"], N, 0.0, **prm)
        exactT = barenblatt_cell_averages(b["L"], N, b["horizon"], **prm)
        # the package projects with 8 Gauss points across the front's
        # singularity, which is good to about 6e-4 at N = 100
        gap = float(abs(n0 - exact0).sum() * h)
        if gap > 1e-3 * b["mass"]:
            fails.append(f"N={N}: initial data is {gap:.2e} (L1) from the exact profile")
        errors.append(float(abs(nT - exactT).sum() * h))
        fails += [f"N={N}: {f}" for f in
                  check_mass_conserved(float(n0.sum() * h), float(nT.sum() * h), b["mass"])]
    return fails + check_ladder(list(b["cells"]), errors)


CHECKS = {"sweep1d": check_sweep1d, "plateau2d": check_plateau2d,
          "barenblatt1d": check_barenblatt1d}


def load_captured(scratch: Path) -> list:
    import numpy as np
    with np.load(scratch / "captured.npz") as z:
        h = z["h"]
        return [(z[f"n0_{i}"], z[f"nT_{i}"], float(h[i])) for i in range(len(h))]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TUMORHS_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(command: list, args, scratch: Path, trace_out: Path) -> dict:
    log_path = scratch / "child.log"
    argv = [sys.executable, str(HERE / "child.py"), "--command", json.dumps(command),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", str(scratch), "--trace-out", str(trace_out)]
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:     # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
    if rc != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        sys.stderr.write(tail)
        raise SystemExit(f"workload process {'timed out' if rc is None else f'exited {rc}'}")
    return json.loads((scratch / "child.json").read_text(encoding="utf-8"))


def _stop(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tumorhs" / "__init__.py").is_file():
        raise SystemExit(f"no tumorhs sources under {ROOT / 'src'}: nothing to benchmark")
    signal.signal(signal.SIGTERM, _stop)     # so the workload process is stopped too

    from selftest import run_selftest
    selftest_failures = run_selftest()
    if selftest_failures:
        raise SystemExit("check self-test failed: " + "; ".join(selftest_failures))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = ROOT / "perfbench_out" / "tmp" / f"{tag}-{os.getpid()}"
    trace_out = ROOT / "perfbench_out" / "trace" / tag
    scratch.mkdir(parents=True, exist_ok=False)
    try:
        command = prepare(args.workload, scratch)
        res = run_child(command, args, scratch, trace_out)
        captured = load_captured(scratch)
        rounds = res["rounds"]
        failed = sum(1 for r in rounds if r["exit_code"] != 0)
        problems = []
        runs_per_round = len(captured) // len(rounds)
        for i, r in enumerate(rounds):
            if r["exit_code"] != 0:
                continue
            mine = captured[i * runs_per_round:(i + 1) * runs_per_round]
            problems += CHECKS[args.workload](scratch, Path(res["outputs"][i]), mine)
        problems += res.get("mass_balance_failures", [])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print("rounds (wall_s, exit code): "
          + ", ".join(f"({r['wall_s']:.3f}, {r['exit_code']})" for r in rounds), file=sys.stderr)

    ok_rounds = [r for r in rounds if r["exit_code"] == 0] or rounds
    if args.trace:
        values, declared = res["per_layer"], spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in ok_rounds),
                  "setup_s": res["setup_s"],
                  "peak_rss_mb": res["peak_rss_mb"],
                  "solver_steps": ok_rounds[0]["steps"]}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not finite")
    print(json.dumps({"correct": not problems, "attempted": len(rounds), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
