"""Stiff-limit orchestration: the one path from a parsed config to a finished
run, gamma sweeps with residual-decay fits, the elliptic reference solution
on the positivity set, and Cauchy-in-gamma trajectory comparisons.

The reference pressure solves -Lap(p) = G(p, c) with p = 0 on the boundary of
O = {p_num > eps_O}, by the shifted fixed point

    (-Lap + beta) p_new = G(p_old, c) + beta * p_old,

a contraction when dG/dp <= -beta and the Lipschitz spread of G in p is small
against the principal Dirichlet eigenvalue of O.  The matrix is factored once
and reused across iterations; non-contraction (three consecutive growing
updates) aborts with a pointer to the monotonicity assumption.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity as sparse_identity
from scipy.sparse.linalg import splu

from . import config, model, monitors, runio, solver
from .grid import DIRICHLET_ZERO, Grid, gradient_array

__all__ = [
    "PositivitySet",
    "SweepReport",
    "HeleShawResult",
    "heleshaw_reference",
    "run_once",
    "gamma_sweep",
    "limit_compare",
    "fit_decay",
]


@dataclass
class PositivitySet:
    """Mask O = {p > eps} plus its boundary cell layer (cells in O with a
    neighbor outside)."""

    grid: Grid
    mask: np.ndarray
    eps: float

    @classmethod
    def from_pressure(cls, g: Grid, p: np.ndarray, eps: float) -> "PositivitySet":
        return cls(grid=g, mask=p > eps, eps=eps)

    @property
    def boundary_layer(self) -> np.ndarray:
        m = self.mask
        inner = np.ones_like(m)
        for ax in range(m.ndim):
            lo = np.take(m, range(0, m.shape[ax] - 1), axis=ax)
            hi = np.take(m, range(1, m.shape[ax]), axis=ax)
            pad_hi = np.concatenate([hi, np.zeros_like(np.take(m, [0], axis=ax))], axis=ax)
            pad_lo = np.concatenate([np.zeros_like(np.take(m, [0], axis=ax)), lo], axis=ax)
            inner &= pad_hi & pad_lo
        return self.mask & ~inner

    @property
    def interior(self) -> np.ndarray:
        return self.mask & ~self.boundary_layer


def _masked_dirichlet_laplacian(g: Grid, mask: np.ndarray) -> csr_matrix:
    """Laplacian on the masked cells with the value 0 at every face leading
    outside the mask (ghost fold-in, so the matrix stays symmetric)."""
    idx = -np.ones(g.shape, dtype=np.int64)
    cells = np.argwhere(mask)
    for row, cell in enumerate(cells):
        idx[tuple(cell)] = row
    n_cells = len(cells)
    rows, cols, vals = [], [], []
    inv_h2 = 1.0 / (g.h * g.h)
    for row, cell in enumerate(cells):
        diag = -2.0 * g.dim * inv_h2
        for ax in range(g.dim):
            for off in (-1, 1):
                nb = list(cell)
                nb[ax] += off
                inside = 0 <= nb[ax] < g.n and mask[tuple(nb)]
                if inside:
                    rows.append(row)
                    cols.append(idx[tuple(nb)])
                    vals.append(inv_h2)
                else:
                    diag -= inv_h2
        rows.append(row)
        cols.append(row)
        vals.append(diag)
    return csr_matrix((vals, (rows, cols)), shape=(n_cells, n_cells))


@dataclass
class HeleShawResult:
    pressure: np.ndarray           # reference pressure on the full grid
    mask: PositivitySet
    iterations: int
    contraction: float             # last observed update ratio
    update_history: np.ndarray
    residual_inf: float            # |Lap p + G|_inf on the mask interior


def heleshaw_reference(p_num: np.ndarray, c_num: np.ndarray,
                       spec: model.ReactionSpec, eps_O: float, g: Grid,
                       tol: float = 1e-8, max_iter: int = 500) -> HeleShawResult:
    """Solve -Lap(p) = G(p, c_num) on O = {p_num > eps_O}, zero outside."""
    params = spec.params
    beta = params.beta
    pos = PositivitySet.from_pressure(g, p_num, eps_O)
    out = np.zeros(g.shape)
    if not np.any(pos.mask):
        return HeleShawResult(pressure=out, mask=pos, iterations=0,
                              contraction=0.0, update_history=np.zeros(0),
                              residual_inf=0.0)
    L = _masked_dirichlet_laplacian(g, pos.mask)
    lu = splu((-L + beta * sparse_identity(L.shape[0], format="csr")).tocsc())
    c_m = c_num[pos.mask]
    p = p_num[pos.mask].astype(float)
    updates = []
    grow = 0
    for it in range(1, max_iter + 1):
        rhs = np.asarray(spec.G(p, c_m), dtype=float) + beta * p
        p_new = lu.solve(rhs)
        upd = float(np.max(np.abs(p_new - p)))
        scale = max(float(np.max(np.abs(p_new))), 1e-300)
        if updates and upd > updates[-1]:
            grow += 1
            if grow >= 3:
                raise RuntimeError(
                    "fixed point diverging for 3 consecutive iterations; "
                    "check the monotonicity assumption dG/dp < -beta")
        else:
            grow = 0
        updates.append(upd)
        p = p_new
        if upd <= tol * scale:
            break
    else:
        raise RuntimeError(f"fixed point did not converge in {max_iter} iterations")
    out[pos.mask] = p
    resid_field = np.abs(L @ p + np.asarray(spec.G(p, c_m), dtype=float))
    interior = pos.interior[pos.mask]
    resid = float(np.max(resid_field[interior])) if np.any(interior) else 0.0
    contraction = updates[-1] / updates[-2] if len(updates) > 1 else 0.0
    return HeleShawResult(pressure=out, mask=pos, iterations=len(updates),
                          contraction=contraction,
                          update_history=np.asarray(updates),
                          residual_inf=resid)


# ---------------------------------------------------------------------------
# one run and the gamma sweep
# ---------------------------------------------------------------------------

def run_once(cfg, out_root, gamma: float | None = None) -> tuple:
    """Run a parsed config (at gamma, when given) into the run directory
    out_root/<config hash>[-g<gamma>] and compute its monitors.

    The run streams: each snapshot goes to the field writer and to the
    monitor pass as the run reaches it, the returned trajectory holds only
    the first and the last snapshot, and timing.json gets the time of both
    consumers.  A run that fails with a SolverError leaves the snapshots it
    reached there as a partial dump, whose directory is the error's
    partial_dir; when the dump itself fails, partial_dir stays None and the
    OSError is the error's partial_error.  Returns (trajectory, monitor
    report, setup, run directory).
    """
    setup, zeta, weight_on = config.build_setup(cfg, gamma_override=gamma)
    weight = monitors.build_weight(setup.grid) if weight_on else None
    echo = config.render_config(cfg)
    out_dir = runio.run_dir_for(out_root, echo, tag="" if gamma is None else f"g{gamma:g}")
    times = solver.snapshot_times(setup.T, setup.snapshot_dt)
    scan = monitors.MonitorPass(setup.grid, setup.params, setup.spec, times,
                                zeta=zeta, weight=weight)
    with runio.FieldWriter(out_dir, times) as fields:
        sink = solver.Fanout(write=fields, monitor=scan)
        try:
            traj = solver.run(setup, sink=sink)
        except solver.SolverError as exc:
            try:
                fields.abort()
                exc.partial_dir = out_dir
            except OSError as dump_error:
                exc.partial_error = dump_error
            raise
        sink.timed("write", fields.finish)
    report = sink.timed("monitor", scan.report, traj)
    traj.meta["monitor_s"] = sink.seconds["monitor"]
    traj.meta["write_s"] = sink.seconds["write"]
    runio.write_run(out_dir, echo, traj, report)
    return traj, report, setup, out_dir


def _sweep_worker(job) -> tuple:
    """One gamma of a sweep; never raises, so a failing gamma is isolated the
    same way with one worker or with many.  Returns the outcome
    (gamma, row, runtime_s, out_dir, error): row holds the accumulated
    monitors and gamma, error is None on success and the repr of the
    exception (with row, runtime_s and out_dir None) on failure."""
    cfg, gamma, out_root = job
    try:
        traj, report, _, out_dir = run_once(cfg, out_root, gamma)
    except Exception as exc:   # noqa: BLE001 - per-run isolation
        return gamma, None, None, None, repr(exc)
    row = dict(report.accum)
    row["gamma"] = gamma
    return gamma, row, traj.meta["runtime_s"], out_dir, None


def gamma_sweep(cfg, gammas, out_root, workers: int = 1):
    """Run the parsed config once per gamma into out_root; yield each
    outcome of _sweep_worker in gamma order as soon as it is done.

    Per-gamma runs are independent and deterministic, so the pool size cannot
    change any outcome apart from its runtime.  Only the outcomes are kept,
    never a trajectory.
    """
    gammas = [float(g) for g in gammas]
    if gammas != sorted(set(gammas)):
        raise ValueError("gamma list must be strictly increasing")
    jobs = [(cfg, g, out_root) for g in gammas]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_sweep_worker, jobs)
    else:
        yield from map(_sweep_worker, jobs)


@dataclass
class SweepReport:
    gammas: list                   # the gammas that completed, increasing
    rows: list                     # per-gamma accumulated monitor dicts
    failed: list                   # (gamma, error) of the gammas that failed
    fit_graph_residual: tuple | None   # (exponent, stderr)
    fit_compl_rhs: tuple | None

    @classmethod
    def from_outcomes(cls, outcomes) -> "SweepReport":
        """Collect gamma_sweep outcomes; the decay fits need at least three
        completed gammas and are None otherwise."""
        rows, failed = [], []
        for gamma, row, _, _, err in outcomes:
            if err is None:
                rows.append(row)
            else:
                failed.append((gamma, err))
        gammas = [r["gamma"] for r in rows]
        fit_graph = fit_compl = None
        if len(gammas) >= 3:
            fit_graph = fit_decay(gammas, [r["graph_residual_max"] for r in rows])
            if all("compl_rhs" in r for r in rows):
                fit_compl = fit_decay(gammas, [abs(r["compl_rhs"]) for r in rows])
        return cls(gammas=gammas, rows=rows, failed=failed,
                   fit_graph_residual=fit_graph, fit_compl_rhs=fit_compl)


def fit_decay(gammas, values) -> tuple:
    """Log-log least squares of value ~ gamma^(-q); returns (q, stderr(q))."""
    x = np.log(np.asarray(gammas, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    if len(x) < 3:
        raise ValueError("at least 3 points required for a decay fit")
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = len(x) - 2
    s2 = float(res[0]) / dof if len(res) and dof > 0 else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    return -float(coef[0]), float(np.sqrt(cov[0, 0]))


# ---------------------------------------------------------------------------
# Cauchy-in-gamma comparison
# ---------------------------------------------------------------------------

def limit_compare(traj_a: solver.Trajectory, traj_b: solver.Trajectory) -> dict:
    """Space-time distances between two runs on matching grids and times:
    L1 for p and c, L2 for the pressure gradient."""
    if traj_a.grid != traj_b.grid:
        raise ValueError("trajectories live on different grids")
    if len(traj_a) != len(traj_b) or not np.allclose(traj_a.times, traj_b.times,
                                                     rtol=0.0, atol=1e-12):
        raise ValueError("snapshot times do not match")
    g = traj_a.grid
    hd = g.cell_volume
    dts = np.diff(traj_a.times)
    l1_p = l1_c = l2g = 0.0
    for k, dt in enumerate(dts):
        l1_p += float(np.sum(np.abs(traj_a.p[k] - traj_b.p[k]))) * hd * dt
        l1_c += float(np.sum(np.abs(traj_a.c[k] - traj_b.c[k]))) * hd * dt
        diff = traj_a.p[k] - traj_b.p[k]
        grads = gradient_array(diff, g.h, DIRICHLET_ZERO)
        l2g += float(np.sum(sum(x * x for x in grads))) * hd * dt
    return {"l1_p": l1_p, "l1_c": l1_c, "l2_grad_p": math.sqrt(l2g)}
