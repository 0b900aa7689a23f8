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

Space integrals are midpoint-rule sums, time accumulation is left-endpoint
over the snapshot intervals, so every accumulator is exactly additive over
time partitions.
"""

from __future__ import annotations

import math
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
    "ab_negative_l3",
    "laplacian_l1",
    "weighted_ab_l3",
    "grad_p_l4",
    "dissipation",
    "complementarity_residual",
    "graph_residual",
    "energy",
    "direct_estimates",
    "compute_report",
    "SERIES_COLUMNS",
]


@dataclass
class MonitorReport:
    """Per-snapshot series plus accumulated space-time scalars for one run."""

    series: dict            # name -> ndarray over snapshots
    accum: dict             # name -> float, nondecreasing in T
    meta: dict = field(default_factory=dict)

    def row(self, k: int) -> dict:
        return {name: float(vals[k]) for name, vals in self.series.items()}


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


def energy(state: State, spec: model.ReactionSpec) -> float:
    """int (|grad p|^2 / 2 - Gbar(p, c)), Gbar the pressure antiderivative of G."""
    g = state.grid
    grads = gradient_array(state.p, g.h, DIRICHLET_ZERO)
    gsq = sum(gc * gc for gc in grads)
    gbar = model.eval_Gbar(state.p, state.c, spec)
    return float(np.sum(0.5 * gsq - gbar)) * g.cell_volume


# ---------------------------------------------------------------------------
# space-time accumulators (left endpoints over [k0, k1))
# ---------------------------------------------------------------------------

def _interval_weights(traj: Trajectory, k0: int, k1: int):
    dts = np.diff(traj.times)
    for k in range(k0, min(k1, len(traj) - 1)):
        yield k, float(dts[k])


def ab_negative_l3(traj: Trajectory, spec: model.ReactionSpec,
                   k0: int = 0, k1: int | None = None) -> float:
    """intint |w|_-^3 over the selected snapshot range."""
    g = traj.grid
    total = 0.0
    for k, dt in _interval_weights(traj, k0, k1 if k1 is not None else len(traj)):
        w = ab_field(traj.state(k), spec)
        total += float(np.sum(np.maximum(-w, 0.0) ** 3)) * g.cell_volume * dt
    return total


def laplacian_l1(traj: Trajectory, k0: int = 0, k1: int | None = None) -> float:
    g = traj.grid
    total = 0.0
    for k, dt in _interval_weights(traj, k0, k1 if k1 is not None else len(traj)):
        lap = laplacian_array(traj.p[k], g.h, DIRICHLET_ZERO)
        total += float(np.sum(np.abs(lap))) * g.cell_volume * dt
    return total


def weighted_ab_l3(traj: Trajectory, weight: WeightFunction,
                   spec: model.ReactionSpec, k0: int = 0,
                   k1: int | None = None) -> float:
    """intint |w|_-^3 Phi; Phi's pointwise bounds are re-verified first."""
    weight.verify()
    g = traj.grid
    total = 0.0
    for k, dt in _interval_weights(traj, k0, k1 if k1 is not None else len(traj)):
        w = ab_field(traj.state(k), spec)
        total += float(np.sum(np.maximum(-w, 0.0) ** 3 * weight.values)) \
            * g.cell_volume * dt
    return total


def grad_p_l4(traj: Trajectory, k0: int = 0, k1: int | None = None) -> float:
    """intint |grad p|^4 (centered differences)."""
    g = traj.grid
    total = 0.0
    for k, dt in _interval_weights(traj, k0, k1 if k1 is not None else len(traj)):
        grads = gradient_array(traj.p[k], g.h, DIRICHLET_ZERO)
        gsq = sum(gc * gc for gc in grads)
        total += float(np.sum(gsq * gsq)) * g.cell_volume * dt
    return total


def dissipation(traj: Trajectory, spec: model.ReactionSpec, k0: int = 0,
                k1: int | None = None) -> tuple:
    """((gamma-1) intint p|w|^2, intint p sum_ij (d2_ij p)^2)."""
    g = traj.grid
    gamma = traj.params.gamma
    total_w = 0.0
    total_h = 0.0
    for k, dt in _interval_weights(traj, k0, k1 if k1 is not None else len(traj)):
        p = traj.p[k]
        w = ab_field(traj.state(k), spec)
        total_w += float(np.sum(p * w * w)) * g.cell_volume * dt
        hess = 0.0
        for i in range(g.dim):
            for j in range(g.dim):
                d2 = second_diff_array(p, i, j, g.h, DIRICHLET_ZERO)
                hess += d2 * d2
        total_h += float(np.sum(p * hess)) * g.cell_volume * dt
    return (gamma - 1.0) * total_w, total_h


def complementarity_residual(traj: Trajectory, zeta: TestFunction,
                             spec: model.ReactionSpec, k0: int = 0,
                             k1: int | None = None) -> tuple:
    """Both sides of the weak stiff-pressure identity, plus the explicit
    (1/gamma) bound on the left side with all factors measured.

    Returns (lhs, rhs, info) where info carries the defect and bound pieces.
    """
    g = traj.grid
    zeta.check_support(g, float(traj.times[-1]))
    gamma = traj.params.gamma
    hd = g.cell_volume
    lhs_acc = 0.0
    rhs_acc = 0.0
    p_l1_acc = 0.0
    gp_l2_acc = 0.0
    for k, dt in _interval_weights(traj, k0, k1 if k1 is not None else len(traj)):
        t = float(traj.times[k])
        p = traj.p[k]
        zv = zeta.value(g, t)
        zdt = zeta.dt(g, t)
        zgrad = zeta.grad(g, t)
        grads = gradient_array(p, g.h, DIRICHLET_ZERO)
        gsq = sum(gc * gc for gc in grads)
        lhs_acc += float(np.sum(p * zdt + gsq * zv)) * hd * dt
        pdotz = sum(gc * zg for gc, zg in zip(grads, zgrad))
        rhs_acc += float(np.sum(-gsq * zv - p * pdotz
                                + p * spec.G(p, traj.c[k]) * zv)) * hd * dt
        p_l1_acc += float(np.sum(np.abs(p))) * hd * dt
        gp_l2_acc += float(np.sum(gsq)) * hd * dt
    lhs = -lhs_acc / gamma
    rhs = rhs_acc
    zmax, dtmax = zeta.sup_norms(g, traj.times[:-1])
    bound = (p_l1_acc * dtmax + gp_l2_acc * zmax) / gamma
    info = {
        "defect": abs(lhs - rhs),
        "lhs_bound": bound,
        "p_l1_spacetime": p_l1_acc,
        "grad_p_l2_sq_spacetime": gp_l2_acc,
        "zeta_sup": zmax,
        "zeta_dt_sup": dtmax,
    }
    return lhs, rhs, info


# ---------------------------------------------------------------------------
# direct estimates (per-snapshot norms and time-difference accumulators)
# ---------------------------------------------------------------------------

SERIES_COLUMNS = [
    "t", "dt", "mass", "linf_n", "l1_n", "linf_p", "l1_p", "l1_c_dev",
    "l2_grad_c", "l2_grad_p", "energy", "graph_residual", "support_radius",
    "w_min",
]


def direct_estimates(traj: Trajectory, spec: model.ReactionSpec) -> MonitorReport:
    """Per-snapshot norms plus the accumulated bounds on c's derivatives and
    the time-difference quotients of (n, p, c)."""
    g = traj.grid
    params = traj.params
    hd = g.cell_volume
    K = len(traj)
    bc_c = dirichlet(params.c_B)

    series = {name: np.zeros(K) for name in SERIES_COLUMNS}
    series["t"] = traj.times.copy()
    series["dt"] = traj.snap_dts.copy()
    for k in range(K):
        n, p, c = traj.n[k], traj.p[k], traj.c[k]
        series["mass"][k] = float(np.sum(n)) * hd
        series["linf_n"][k] = float(np.max(n))
        series["l1_n"][k] = float(np.sum(np.abs(n))) * hd
        series["linf_p"][k] = float(np.max(p))
        series["l1_p"][k] = float(np.sum(np.abs(p))) * hd
        series["l1_c_dev"][k] = float(np.sum(np.abs(c - params.c_B))) * hd
        gc = gradient_array(c, g.h, bc_c)
        series["l2_grad_c"][k] = math.sqrt(float(np.sum(sum(x * x for x in gc))) * hd)
        gp = gradient_array(p, g.h, DIRICHLET_ZERO)
        series["l2_grad_p"][k] = math.sqrt(float(np.sum(sum(x * x for x in gp))) * hd)
        series["energy"][k] = energy(traj.state(k), spec)
        series["graph_residual"][k] = graph_residual(traj.state(k))
        supp = traj.n[k] > 1e-12
        series["support_radius"][k] = float(np.max(g.radius[supp])) if np.any(supp) else 0.0
        series["w_min"][k] = float(np.min(ab_field(traj.state(k), spec)))

    accum = {
        "grad_c_l4": 0.0, "lap_c_l2_sq": 0.0, "dt_c_l2_sq": 0.0,
        "dt_n_l1": 0.0, "dt_p_l1": 0.0, "dt_c_l1": 0.0,
    }
    for k, dt in _interval_weights(traj, 0, K):
        c = traj.c[k]
        gc = gradient_array(c, g.h, bc_c)
        gsq = sum(x * x for x in gc)
        accum["grad_c_l4"] += float(np.sum(gsq * gsq)) * hd * dt
        lap_c = laplacian_array(c, g.h, bc_c)
        accum["lap_c_l2_sq"] += float(np.sum(lap_c * lap_c)) * hd * dt
        # forward difference quotients between snapshots
        dn = (traj.n[k + 1] - traj.n[k]) / dt
        dp = (traj.p[k + 1] - traj.p[k]) / dt
        dc = (traj.c[k + 1] - traj.c[k]) / dt
        accum["dt_n_l1"] += float(np.sum(np.abs(dn))) * hd * dt
        accum["dt_p_l1"] += float(np.sum(np.abs(dp))) * hd * dt
        accum["dt_c_l1"] += float(np.sum(np.abs(dc))) * hd * dt
        accum["dt_c_l2_sq"] += float(np.sum(dc * dc)) * hd * dt
    return MonitorReport(series=series, accum=accum,
                         meta={"gamma": params.gamma})


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def compute_report(traj: Trajectory, spec: model.ReactionSpec,
                   zeta: TestFunction | None = None,
                   weight: WeightFunction | None = None) -> MonitorReport:
    """All monitors for one trajectory; the report is what runs write to disk."""
    report = direct_estimates(traj, spec)
    report.accum["ab_neg_l3"] = ab_negative_l3(traj, spec)
    report.accum["lap_l1"] = laplacian_l1(traj)
    report.accum["grad_p_l4"] = grad_p_l4(traj)
    diss_w, diss_h = dissipation(traj, spec)
    report.accum["diss_pressure_weighted"] = diss_w
    report.accum["diss_hessian"] = diss_h
    if weight is not None:
        report.accum["weighted_ab_neg_l3"] = weighted_ab_l3(traj, weight, spec)
        report.meta["C_phi"] = weight.C_phi
    if zeta is not None:
        lhs, rhs, info = complementarity_residual(traj, zeta, spec)
        report.accum["compl_lhs"] = lhs
        report.accum["compl_rhs"] = rhs
        report.accum["compl_defect"] = info["defect"]
        report.accum["compl_lhs_bound"] = info["lhs_bound"]
        report.meta.update({k: v for k, v in info.items() if k.startswith("zeta")})
    report.accum["graph_residual_max"] = float(np.max(report.series["graph_residual"]))
    report.accum["energy_max"] = float(np.max(report.series["energy"]))
    report.meta["clipped_mass"] = traj.clipped_mass
    report.meta["steps"] = int(traj.meta.get("steps", 0))
    return report
