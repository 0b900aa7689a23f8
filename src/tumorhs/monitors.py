"""Estimate monitors: every a-priori bound the analysis provides is measured
here as a per-snapshot scalar or an accumulated space-time integral.

The central object is w = Lap(p) + G(p, c), the reaction-shifted Laplacian of
the pressure.  Its negative part is accumulated in cube (the one-sided
L^3-in-space-time bound), the pressure Laplacian in L^1, the pressure gradient
in L^4, and the dissipation pair ((gamma-1) * int p*w^2, int p*sum (d2p)^2)
tracks the energy-descent inequality.  A weighted variant uses the
exponential-decay weight Phi(x) = exp(-sqrt(1+|x|^2)), whose analytic gradient
and Laplacian satisfy |grad Phi| <= Phi and |Lap Phi| <= (d+1) Phi pointwise.

The weak-form pair (lhs, rhs) of the stiff-pressure identity

  -(1/gamma) * intint (p dzeta/dt + |grad p|^2 zeta)
      = intint (-|grad p|^2 zeta - p grad p . grad zeta + p G zeta)

is evaluated with the grid quadrature for a compactly supported space-time
bump zeta; |rhs| is the complementarity residual that must vanish in the stiff
limit, |lhs - rhs| the discrete consistency defect (reported, not asserted).

Everything is measured in one pass over the history, a block of snapshots at
a time: each derivative (grad p, grad c, Lap p, Lap c, the Hessian terms),
G, Gbar and w is computed once per block, vectorised over the snapshot axis,
and every series value and per-interval integrand is reduced over the space
axes of the block.  compute_report is the one way to measure; the integrals
over a sub-interval of the run are those of the report of the trajectory cut
to that time slice.

Space integrals are midpoint-rule sums.  Time accumulation is left-endpoint
over the snapshot intervals, added one interval at a time in time order, so
every accumulator is exactly additive over time partitions and each output
has the bits a loop over single snapshots gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .grid import (DIRICHLET_ZERO, Grid, TestFunction, dirichlet,
                   gradient_array, laplacian_array, second_diff_array)
from .solver import State, Trajectory

__all__ = [
    "MonitorReport",
    "WeightFunction",
    "build_weight",
    "ab_field",
    "graph_residual",
    "graph_residual_bound",
    "energy",
    "compute_report",
    "SERIES_COLUMNS",
]


@dataclass
class MonitorReport:
    """Per-snapshot series plus accumulated space-time scalars for one run."""

    series: dict            # name -> ndarray over snapshots
    accum: dict             # name -> float, nondecreasing in T
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exponential-decay weight
# ---------------------------------------------------------------------------

@dataclass
class WeightFunction:
    """Phi(x) = exp(-sqrt(1+|x|^2)) with analytic gradient and Laplacian.

    With s = sqrt(1+r^2): grad Phi = -x/s * Phi, so |grad Phi| = (r/s) Phi < Phi,
    and Lap Phi = (r^2/s^2 - 1/s^3 - (d-1)/s) Phi, so |Lap Phi| <= (d+1) Phi.
    C_phi is the measured ratio max |Lap Phi| / Phi on the grid.
    """

    grid: Grid
    values: np.ndarray
    grad: tuple
    lap: np.ndarray
    C_phi: float

    def verify(self) -> None:
        gnorm = np.sqrt(sum(g * g for g in self.grad))
        bad = gnorm > self.values
        if np.any(bad):
            k = int(np.argmax(gnorm - self.values))
            idx = np.unravel_index(k, self.values.shape)
            raise ValueError(f"|grad Phi| > Phi at cell {idx}")
        dim_bound = (self.grid.dim + 1.0) * self.values
        if np.any(np.abs(self.lap) > dim_bound):
            k = int(np.argmax(np.abs(self.lap) - dim_bound))
            idx = np.unravel_index(k, self.values.shape)
            raise ValueError(f"|Lap Phi| > (d+1) Phi at cell {idx}")


def build_weight(g: Grid) -> WeightFunction:
    r = g.radius
    s = np.sqrt(1.0 + r * r)
    phi = np.exp(-s)
    grad = tuple(-(x / s) * phi for x in g.coords)
    lap = (r * r / (s * s) - 1.0 / s ** 3 - (g.dim - 1.0) / s) * phi
    w = WeightFunction(grid=g, values=phi, grad=grad, lap=lap,
                       C_phi=float(np.max(np.abs(lap) / phi)))
    w.verify()
    return w


# ---------------------------------------------------------------------------
# single-state functionals
# ---------------------------------------------------------------------------

def ab_field(state: State, spec: model.ReactionSpec) -> np.ndarray:
    """w = Lap(p) + G(p, c) with the pressure's Dirichlet-zero stencil."""
    lap = laplacian_array(state.p, state.grid.h, DIRICHLET_ZERO)
    return lap + spec.G(state.p, state.c)


def graph_residual(state: State) -> float:
    """max over cells of p * (1 - n); vanishes in the stiff limit where the
    density saturates wherever pressure is positive."""
    return float(np.max(state.p * (1.0 - state.n)))


def graph_residual_bound(gamma: float) -> float:
    """max of n^gamma (1 - n) over 0 <= n <= 1, gamma^gamma / (gamma+1)^(gamma+1),
    in a form whose powers cannot overflow a float at large gamma."""
    return (gamma / (gamma + 1.0)) ** gamma / (gamma + 1.0)


def energy(state: State, spec: model.ReactionSpec) -> float:
    """int (|grad p|^2 / 2 - Gbar(p, c)), Gbar the pressure antiderivative of G."""
    g = state.grid
    grads = gradient_array(state.p, g.h, DIRICHLET_ZERO)
    gsq = sum(gc * gc for gc in grads)
    gbar = model.eval_Gbar(state.p, state.c, spec)
    return float(np.sum(0.5 * gsq - gbar)) * g.cell_volume


# ---------------------------------------------------------------------------
# the monitor pass
# ---------------------------------------------------------------------------

# Cells per block of the pass: max(1, _BLOCK_CELLS // cells) snapshots go
# through each numpy call together (15 at 272 cells, one at 128^2), so the
# per-call overhead is paid once per block while each temporary holds about
# 4096 cells (one snapshot where a snapshot is larger).
_BLOCK_CELLS = 4096


def _scan(traj: Trajectory, spec: model.ReactionSpec, zeta: TestFunction | None,
          weight: WeightFunction | None) -> dict:
    """One pass over the snapshots, a block of them at a time.

    Returns name -> array over the snapshots: the per-snapshot series values
    (unscaled sums where the series is an integral) and, for each space-time
    accumulator, the space sum of its integrand at k.  The difference
    quotients exist only for k < K - 1, where k + 1 does.  Each derivative is
    computed once per block, and each snapshot gets exactly the bits it gets
    alone.
    """
    g = traj.grid
    dim, h = g.dim, g.h
    K = len(traj)
    axes = tuple(range(1, dim + 1))
    c_B = traj.params.c_B
    bc_c = dirichlet(c_B)
    dts = np.diff(traj.times)
    col = (slice(None),) + (None,) * dim   # a per-snapshot vector against a block
    if zeta is not None:
        zeta.check_support(g, float(traj.times[-1]))
        bump, bump_grad = zeta.space_factors(g)
        z_t, z_dt = zeta.time_factors(traj.times)
    if weight is not None:
        weight.verify()
    parts = {}

    def put(name, block_sums):
        parts.setdefault(name, []).append(block_sums)

    size = max(1, _BLOCK_CELLS // traj.n[0].size)
    for a in range(0, K, size):
        b = min(a + size, K)
        n, p, c = traj.n[a:b], traj.p[a:b], traj.c[a:b]
        put("mass", np.sum(n, axis=axes))
        put("linf_n", np.max(n, axis=axes))
        put("l1_n", np.sum(np.abs(n), axis=axes))
        put("linf_p", np.max(p, axis=axes))
        put("l1_p", np.sum(np.abs(p), axis=axes))
        put("l1_c_dev", np.sum(np.abs(c - c_B), axis=axes))
        put("graph_residual", np.max(p * (1.0 - n), axis=axes))
        put("support_radius", np.max(np.where(n > 1e-12, g.radius, 0.0), axis=axes))

        grads = gradient_array(p, h, DIRICHLET_ZERO, dim)
        gsq = sum(x * x for x in grads)
        lap = laplacian_array(p, h, DIRICHLET_ZERO, dim)
        put("grad_p_sq", np.sum(gsq, axis=axes))
        put("grad_p_l4", np.sum(gsq * gsq, axis=axes))
        put("lap_l1", np.sum(np.abs(lap), axis=axes))

        gc_sq = sum(x * x for x in gradient_array(c, h, bc_c, dim))
        lap_c = laplacian_array(c, h, bc_c, dim)
        put("grad_c_sq", np.sum(gc_sq, axis=axes))
        put("grad_c_l4", np.sum(gc_sq * gc_sq, axis=axes))
        put("lap_c_l2_sq", np.sum(lap_c * lap_c, axis=axes))

        # forward difference quotients between snapshots k and k + 1
        m = min(b, K - 1) - a
        if m > 0:
            dt = dts[a:a + m][col]
            dn = (traj.n[a + 1:a + m + 1] - n[:m]) / dt
            dp = (traj.p[a + 1:a + m + 1] - p[:m]) / dt
            dc = (traj.c[a + 1:a + m + 1] - c[:m]) / dt
            put("dt_n_l1", np.sum(np.abs(dn), axis=axes))
            put("dt_p_l1", np.sum(np.abs(dp), axis=axes))
            put("dt_c_l1", np.sum(np.abs(dc), axis=axes))
            put("dt_c_l2_sq", np.sum(dc * dc, axis=axes))

        G = spec.G(p, c)
        w = lap + G
        w_neg3 = np.maximum(-w, 0.0) ** 3
        put("w_min", np.min(w, axis=axes))
        put("energy", np.sum(0.5 * gsq - model.eval_Gbar(p, c, spec), axis=axes))
        put("ab_neg_l3", np.sum(w_neg3, axis=axes))
        put("diss_w", np.sum(p * w * w, axis=axes))
        hess = 0.0
        for i in range(dim):
            for j in range(dim):
                d2 = (second_diff_array(p, i, i, h, DIRICHLET_ZERO, dim) if i == j
                      else gradient_array(grads[i], h, DIRICHLET_ZERO, dim)[j])
                hess += d2 * d2
        put("diss_h", np.sum(p * hess, axis=axes))
        if weight is not None:
            put("weighted_ab_neg_l3", np.sum(w_neg3 * weight.values, axis=axes))
        if zeta is not None:
            t_fac = z_t[a:b][col]
            zv = bump * t_fac
            zdt = bump * z_dt[a:b][col]
            put("compl_lhs", np.sum(p * zdt + gsq * zv, axis=axes))
            pdotz = sum(gx * (zg * t_fac) for gx, zg in zip(grads, bump_grad))
            put("compl_rhs", np.sum(-gsq * zv - p * pdotz + p * G * zv, axis=axes))
    return {name: np.concatenate(blocks) for name, blocks in parts.items()}


SERIES_COLUMNS = [
    "t", "dt", "mass", "linf_n", "l1_n", "linf_p", "l1_p", "l1_c_dev",
    "l2_grad_c", "l2_grad_p", "energy", "graph_residual", "support_radius",
    "w_min",
]


def compute_report(traj: Trajectory, spec: model.ReactionSpec,
                   zeta: TestFunction | None = None,
                   weight: WeightFunction | None = None) -> MonitorReport:
    """All monitors for one trajectory from one pass over its snapshots; the
    report is what runs write to disk.

    Per-snapshot norms, then the space-time integrals of the one-sided
    Laplacian bounds, of c's derivatives and of the time-difference quotients
    of (n, p, c); with weight the Phi-weighted |w|_-^3, with zeta both sides
    of the weak stiff-pressure identity plus the explicit (1/gamma) bound on
    its left side, with all factors measured.
    """
    sums = _scan(traj, spec, zeta, weight)
    hd = traj.grid.cell_volume
    dts = np.diff(traj.times).tolist()
    gamma = traj.params.gamma

    def accumulate(name):
        """Left-endpoint rule, added in k order: sum_k sums[name][k] * h^d * dt_k."""
        total = 0.0
        if name in sums:
            for s, dt in zip(sums[name].tolist(), dts):
                total += s * hd * dt
        return total

    series = {
        "t": traj.times.copy(),
        "dt": traj.snap_dts.copy(),
        "mass": sums["mass"] * hd,
        "linf_n": sums["linf_n"],
        "l1_n": sums["l1_n"] * hd,
        "linf_p": sums["linf_p"],
        "l1_p": sums["l1_p"] * hd,
        "l1_c_dev": sums["l1_c_dev"] * hd,
        "l2_grad_c": np.sqrt(sums["grad_c_sq"] * hd),
        "l2_grad_p": np.sqrt(sums["grad_p_sq"] * hd),
        "energy": sums["energy"] * hd,
        "graph_residual": sums["graph_residual"],
        "support_radius": sums["support_radius"],
        "w_min": sums["w_min"],
    }
    accum = {name: accumulate(name) for name in (
        "grad_c_l4", "lap_c_l2_sq", "dt_c_l2_sq", "dt_n_l1", "dt_p_l1", "dt_c_l1",
        "ab_neg_l3", "lap_l1", "grad_p_l4")}
    # the dissipation pair ((gamma-1) intint p|w|^2, intint p sum_ij (d2_ij p)^2)
    accum["diss_pressure_weighted"] = (gamma - 1.0) * accumulate("diss_w")
    accum["diss_hessian"] = accumulate("diss_h")
    meta = {"gamma": gamma}
    if weight is not None:
        accum["weighted_ab_neg_l3"] = accumulate("weighted_ab_neg_l3")
        meta["C_phi"] = weight.C_phi
    if zeta is not None:
        lhs = -accumulate("compl_lhs") / gamma
        rhs = accumulate("compl_rhs")
        zmax, dtmax = zeta.sup_norms(traj.grid, traj.times[:-1])
        accum["compl_lhs"] = lhs
        accum["compl_rhs"] = rhs
        accum["compl_defect"] = abs(lhs - rhs)
        accum["compl_lhs_bound"] = (accumulate("l1_p") * dtmax
                                    + accumulate("grad_p_sq") * zmax) / gamma
        meta["zeta_sup"] = zmax
        meta["zeta_dt_sup"] = dtmax
    accum["graph_residual_max"] = float(np.max(series["graph_residual"]))
    accum["energy_max"] = float(np.max(series["energy"]))
    meta["clipped_mass"] = traj.clipped_mass
    meta["steps"] = int(traj.meta.get("steps", 0))
    return MonitorReport(series=series, accum=accum, meta=meta)
