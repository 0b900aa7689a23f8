"""Experiment front door.

Subcommands:
    validate                 print the reaction-assumption report
    run                      one trajectory plus its monitor report
    sweep                    the gamma sweep with decay fits
    focusing                 hole-filling trace plus the integrability table
    barenblatt-convergence   solver-versus-oracle refinement study
    report                   aggregate run summaries into one CSV

`--assert` turns the documented acceptance checks of each subcommand into the
exit code (0 pass, 2 fail), so CI needs no extra harness.  Outputs land in
one directory per run named by the config content hash.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analytic, config as config_mod, limit, model, monitors, runio, solver

ASSERT_FAIL = 2


def _verdict(failures, assert_) -> int:
    """Print one PASS/FAIL line per (name, ok, detail) check; the exit code is
    ASSERT_FAIL when a check failed under --assert, else 0."""
    for name, ok, detail in failures:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ASSERT_FAIL if assert_ and any(not ok for _, ok, _ in failures) else 0


def _load_config(args) -> config_mod.ExperimentConfig:
    if args.config:
        return config_mod.parse_config(args.config)
    return config_mod.parse_config_text(config_mod.DEFAULT_CONFIG_TEXT)


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    params = config_mod._model_params(cfg)
    spec = config_mod.reaction_spec(cfg, params)
    if spec.family == "off":
        print("reactions off: nothing to validate")
        return 0
    report = model.validate(params, spec)
    print(f"family: {spec.family}")
    print(f"beta (declared): {params.beta:g}")
    print(f"beta (measured admissible): {report.beta_measured:g}")
    print(f"lattice: {report.lattice[0]} x {report.lattice[1]}")
    if report.passed:
        print("all structural assumptions hold")
        return 0
    for name, point, value in report.failures:
        print(f"VIOLATED {name}: worst {value:.6e} at {point}")
    return ASSERT_FAIL if args.assert_ else 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out_root = args.out or cfg.get("output", "directory")
    try:
        traj, report, setup, out_dir = limit.run_once(cfg, out_root=out_root)
    except solver.SolverError as exc:
        dump = (f"partial dump in {exc.partial_dir}" if exc.partial_dir is not None
                else f"no partial dump could be written: {exc.partial_error}")
        print(f"run failed: {exc}; {dump}", file=sys.stderr)
        return ASSERT_FAIL if args.assert_ else 1
    print(f"run complete: {out_dir}")
    print(f"steps={traj.meta['steps']} runtime={traj.meta['runtime_s']:.2f}s "
          f"clipped_mass={traj.clipped_mass:.3e}")
    return _verdict(run_assertions(traj, report, setup, cfg), args.assert_)


def run_assertions(traj, report, setup, cfg):
    """Per-run acceptance checks: bounds, clip budget, L1 pressure bound,
    nutrient inequality, barrier containment, complementarity lhs bound.
    Every check over the snapshots reads the report, whose pass saw each
    one; traj supplies the clipped mass."""
    out = []
    params = setup.params
    s, ext = report.series, report.extremes
    nmax, cmax = float(np.max(ext["n_max"])), float(np.max(ext["c_max"]))
    nmin, cmin = float(np.min(ext["n_min"])), float(np.min(ext["c_min"]))
    ok = (nmin >= -1e-12 and nmax <= params.n_H + 1e-8
          and cmin >= -1e-8 and cmax <= params.c_B + 1e-8)
    out.append(("bounds 0<=n<=n_H, 0<=c<=c_B", ok,
                f"n in [{nmin:.2e}, {nmax:.6f}], c in [{cmin:.6f}, {cmax:.6f}]"))
    mass0 = s["mass"][0] if s["mass"][0] > 0 else 1.0
    rel_clip = traj.clipped_mass / mass0
    out.append(("clip budget", rel_clip <= 1e-6, f"relative clipped mass {rel_clip:.2e}"))
    bound = params.p_H ** ((params.gamma - 1.0) / params.gamma)
    ok = bool(np.all(s["l1_p"] <= bound * s["l1_n"] + 1e-12))
    out.append(("|p|_1 <= p_H^((g-1)/g) |n|_1", ok, f"factor {bound:.6f}"))
    lhs_nut = 0.25 * report.accum["grad_c_l4"]
    rhs_nut = 4.5 * params.c_B ** 2 * report.accum["lap_c_l2_sq"]
    out.append(("nutrient gradient inequality", lhs_nut <= rhs_nut,
                f"{lhs_nut:.3e} <= {rhs_nut:.3e}"))
    if "compl_lhs" in report.accum:
        ok = abs(report.accum["compl_lhs"]) <= report.accum["compl_lhs_bound"] + 1e-15
        out.append(("complementarity lhs bound", ok,
                    f"|lhs|={abs(report.accum['compl_lhs']):.3e} "
                    f"<= {report.accum['compl_lhs_bound']:.3e}"))
    prm_b = config_mod.barrier_params(cfg, setup)
    if prm_b is not None:
        ok, fails = analytic.barrier_check_radii(s["t"], s["support_radius"], prm_b)
        detail = "all snapshots inside" if ok else f"{len(fails)} snapshots outside"
        out.append(("support barrier", ok, detail))
    gres = report.accum["graph_residual_max"]
    g_bound = monitors.graph_residual_bound(params.gamma) * params.p_H \
        + 10.0 * setup.grid.h ** 2
    out.append(("graph residual bound", gres <= g_bound,
                f"{gres:.5f} <= {g_bound:.5f}"))
    return out


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out_root = Path(args.out or cfg.get("output", "directory"))
    # one line per gamma as it finishes; only the outcomes are kept
    outcomes = []
    for outcome in limit.gamma_sweep(cfg, cfg.get("sweep", "gammas"),
                                     workers=args.workers, out_root=out_root):
        gamma, _, runtime_s, out_dir, err = outcome
        if err is None:
            print(f"gamma={gamma:g}: done ({runtime_s:.1f}s) -> {out_dir}", flush=True)
        else:
            print(f"gamma={gamma:g}: FAILED ({err})", flush=True)
        outcomes.append(outcome)
    sweep = limit.SweepReport.from_outcomes(outcomes)
    rows, gs, fit_graph = sweep.rows, sweep.gammas, sweep.fit_graph_residual
    # shorter sweeps still get a summary, flagged as degenerate
    if len(gs) < 3:
        print(f"fewer than 3 successful runs ({len(gs)}); no decay fits")
    summary = {
        "version": __version__,
        "gammas": gs,
        "rows": [{k: float(v) for k, v in r.items()} for r in rows],
        "fit_graph_residual": fit_graph,
        "fit_compl_rhs": sweep.fit_compl_rhs,
        "degenerate": len(gs) < 3,
        "failed": [[g, err] for g, err in sweep.failed],
    }
    sweep_dir = runio.run_dir_for(out_root, config_mod.render_config(cfg), tag="sweep")
    sweep_dir.mkdir(parents=True, exist_ok=True)
    with open(sweep_dir / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    if rows:
        keys = sorted(rows[0].keys())
        with open(sweep_dir / "sweep.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for r in rows:
                fh.write(",".join(f"{float(r[k]):.17g}" for k in keys) + "\n")
    print(f"sweep summary: {sweep_dir}")
    if fit_graph:
        print(f"graph-residual decay exponent: {fit_graph[0]:.3f} "
              f"(stderr {fit_graph[1]:.3f})")
    failures = []
    if sweep.failed:
        failures.append(("all sweep runs completed", False,
                         "; ".join(f"gamma={g:g}: {err}" for g, err in sweep.failed)))
    if len(gs) >= 3:
        ok = 0.8 <= fit_graph[0] <= 1.2
        failures.append(("graph-residual decay exponent in [0.8, 1.2]", ok,
                         f"{fit_graph[0]:.3f}"))
        for key in ("ab_neg_l3", "grad_p_l4"):
            vals = [r[key] for r in rows]
            band = max(vals) / min(vals)
            failures.append((f"{key} factor-2 band", band <= 2.0, f"band {band:.3f}"))
        if all("compl_rhs" in r for r in rows):
            rhs = [abs(r["compl_rhs"]) for r in rows]
            failures.append(("complementarity rhs quartered over the sweep",
                             rhs[-1] <= rhs[0] / 4.0,
                             f"{rhs[-1]:.3e} vs {rhs[0]:.3e}/4"))
    return _verdict(failures, args.assert_)


DEFAULT_ALPHAS = (2.0, 3.0, 3.5, 4.0, 4.5, 6.0)


def cmd_focusing(args) -> int:
    out_root = Path(args.out or "out")
    out_root.mkdir(parents=True, exist_ok=True)
    trace = analytic.evolve_hole(args.r0, args.r1)
    trace.to_csv(out_root / "focusing_trace.csv")
    print(f"hole filled: extinction time {trace.t_ext:.6e} "
          f"({len(trace.t)} trace points)")
    rows = []
    for alpha in (args.alphas or DEFAULT_ALPHAS):
        res = analytic.integrability_exponent(trace, alpha)
        rows.append(res)
        print(f"alpha={alpha:g}: {res.classification} "
              f"(last increment ratio {res.increments[-1]/res.increments[-2]:.4f})")
    with open(out_root / "integrability.csv", "w", encoding="utf-8") as fh:
        fh.write("alpha,eps,I_eps,classification\n")
        for res in rows:
            for eps, total in zip(res.eps[1:], res.totals):
                fh.write(f"{res.alpha:.17g},{eps:.17g},{total:.17g},{res.classification}\n")
    failures = []
    for res in rows:
        want = "convergent" if res.alpha <= 4.0 else "divergent"
        failures.append((f"alpha={res.alpha:g} classified {want}",
                         res.classification == want, res.classification))
    return _verdict(failures, args.assert_)


def cmd_barenblatt(args) -> int:
    out_root = Path(args.out or "out")
    out_root.mkdir(parents=True, exist_ok=True)
    # wall-clock runtimes go to their own file, so the CSV repeats bit for bit
    lines = ["gamma,N,h,l1_error"]
    timing = []
    failures = []
    for gamma in args.gammas:
        rows, orders = solver.barenblatt_convergence(gamma, args.cells, T=args.horizon)
        for N, h, err, rt in rows:
            lines.append(f"{gamma:g},{N},{h:.17g},{err:.17g}")
            timing.append({"gamma": gamma, "N": N, "runtime_s": rt})
            print(f"gamma={gamma:g} N={N}: L1 error {err:.4e} ({rt:.1f}s)")
        endpoint = math.log(rows[0][2] / rows[-1][2]) / math.log(rows[-1][0] / rows[0][0])
        print(f"gamma={gamma:g}: pairwise orders "
              + ", ".join(f"{o:.2f}" for o in orders) + f"; overall {endpoint:.2f}")
        decreasing = all(rows[i + 1][2] < rows[i][2] for i in range(len(rows) - 1))
        failures.append((f"gamma={gamma:g} order >= 0.8", endpoint >= 0.8 and decreasing,
                         f"order {endpoint:.2f}, decreasing {decreasing}"))
        failures.append((f"gamma={gamma:g} runtime <= 120s per case",
                         all(rt <= 120.0 for *_, rt in rows),
                         f"max {max(rt for *_, rt in rows):.1f}s"))
    (out_root / "barenblatt_convergence.csv").write_text("\n".join(lines) + "\n",
                                                         encoding="utf-8")
    with open(out_root / "barenblatt_timing.json", "w", encoding="utf-8") as fh:
        json.dump(timing, fh, indent=1, sort_keys=True)
    return _verdict(failures, args.assert_)


def cmd_report(args) -> int:
    root = Path(args.out or "out")
    summaries = []
    for summary_path in sorted(root.glob("*/summary.json")):
        with open(summary_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["run_dir"] = summary_path.parent.name
        summaries.append(data)
    if not summaries:
        print(f"no run summaries under {root}")
        return 1
    versions = {s["version"] for s in summaries}
    if len(versions) > 1:
        print(f"refusing to aggregate mixed versions: {sorted(versions)}")
        return 1
    keys = sorted({k for s in summaries for k in s["accumulated"]})
    table = root / "report.csv"
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("run_dir,gamma," + ",".join(keys) + "\n")
        for s in sorted(summaries, key=lambda s: (s["gamma"], s["run_dir"])):
            vals = [f"{s['accumulated'].get(k, float('nan')):.17g}" for k in keys]
            fh.write(f"{s['run_dir']},{s['gamma']:.17g}," + ",".join(vals) + "\n")
    print(f"aggregated {len(summaries)} runs -> {table}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tumorhs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--out", help="output root directory")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for sweeps")
        p.add_argument("--assert", dest="assert_", action="store_true",
                       help="exit nonzero when an acceptance check fails")

    common(sub.add_parser("validate", help="check the reaction assumptions"))
    common(sub.add_parser("run", help="one trajectory plus monitors"))
    common(sub.add_parser("sweep", help="gamma sweep with decay fits"))

    p_foc = sub.add_parser("focusing", help="hole filling and integrability table")
    common(p_foc)
    p_foc.add_argument("--r0", type=float, default=0.01, help="initial hole radius")
    p_foc.add_argument("--r1", type=float, default=1.0, help="outer shell radius")
    p_foc.add_argument("--alphas", type=float, nargs="*", default=None)

    p_bb = sub.add_parser("barenblatt-convergence",
                          help="refinement study against the exact profile")
    common(p_bb)
    p_bb.add_argument("--gammas", type=float, nargs="*", default=[3.0, 5.0, 9.0])
    p_bb.add_argument("--cells", type=int, nargs="*", default=[200, 400, 800])
    p_bb.add_argument("--horizon", type=float, default=1.0)

    common(sub.add_parser("report", help="aggregate run summaries into a CSV"))

    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "focusing": cmd_focusing,
        "barenblatt-convergence": cmd_barenblatt,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except config_mod.ConfigError as exc:
        for ln, msg in exc.errors:
            loc = f"line {ln}: " if ln is not None else ""
            print(f"config error: {loc}{msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
