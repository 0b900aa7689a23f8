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

Everything is measured in one pass, MonitorPass, fed one snapshot at a time,
which measures a block of snapshots at a time: each derivative (grad p,
grad c, Lap p, Lap c, the Hessian terms), G, Gbar and w is computed once per
block, vectorised over the snapshot axis, and every series value and
per-interval integrand is reduced over the space axes of the block.  The
pass keeps only the block being filled and the snapshot after it, so every
run feeds it as a sink of solver.run while it runs and holds no history;
compute_report feeds it the snapshots of a trajectory, such as one reloaded
from its run directory.  The integrals over a sub-interval of the run are
those of the report of the trajectory cut to that time slice.

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
    "MonitorPass",
    "compute_report",
    "SERIES_COLUMNS",
]


@dataclass
class MonitorReport:
    """Per-snapshot series plus accumulated space-time scalars for one run."""

    series: dict            # name -> ndarray over snapshots
    accum: dict             # name -> float, nondecreasing in T
    meta: dict = field(default_factory=dict)
    # n_min, n_max, c_min, c_max -> ndarray over snapshots: the field bounds
    # the acceptance checks read; no output file holds them
    extremes: dict = field(default_factory=dict)


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


class MonitorPass:
    """The one monitor pass, fed one snapshot at a time: a run sink, called
    with (k, state, snap_dt) for k = 0 .. K-1 in order; report(trajectory)
    then gives the report.

    It keeps at most size + 1 snapshots, size = max(1, _BLOCK_CELLS //
    cells).  The snapshots k = a .. a + size - 1 form a block, measured once
    snapshot a + size, which the block's difference quotients need, has
    arrived; the last block is measured when the last snapshot arrives.
    Each derivative is computed once per block, vectorised over the
    snapshot axis, and every block is a contiguous (size, *shape) array, so
    each snapshot gets exactly the bits it gets alone, however it was fed.
    """

    def __init__(self, grid: Grid, params: model.ModelParams, spec: model.ReactionSpec,
                 times, zeta: TestFunction | None = None,
                 weight: WeightFunction | None = None):
        self.grid, self.params, self.spec = grid, params, spec
        self.zeta, self.weight = zeta, weight
        self.times = np.array(times, dtype=float)
        self.snap_dts = np.zeros(len(self.times))
        self._dts = np.diff(self.times)
        if zeta is not None:
            zeta.check_support(grid, float(self.times[-1]))
            self._bump, self._bump_grad = zeta.space_factors(grid)
            self._z_t, self._z_dt = zeta.time_factors(self.times)
        if weight is not None:
            weight.verify()
        self._size = max(1, _BLOCK_CELLS // grid.n ** grid.dim)
        self._block = np.empty((3, self._size + 1) + grid.shape)   # n, p, c
        self._first = 0             # the snapshot in slot 0 of the block
        self._count = 0             # snapshots fed so far
        self._parts = {}

    def __call__(self, k: int, state: State, snap_dt: float) -> None:
        if k != self._count:
            raise ValueError(f"snapshot {k} fed after {self._count} snapshots")
        self._count += 1
        j = k - self._first
        block = self._block
        block[0, j], block[1, j], block[2, j] = state.n, state.p, state.c
        self.snap_dts[k] = snap_dt
        if j == self._size:
            self._measure(j, j)
            block[:, 0] = block[:, j]
            self._first = k
        if k == len(self.times) - 1:
            size = k - self._first + 1
            self._measure(size, size - 1)

    def _put(self, name, block_sums):
        self._parts.setdefault(name, []).append(block_sums)

    def _measure(self, size: int, m: int) -> None:
        """Measure the block of the size snapshots in the first slots, with
        m difference quotients: size while snapshot k + 1 of its last
        snapshot k is in the next slot, size - 1 for the run's last block.

        The space sums of the block go to the parts: the per-snapshot series
        values (unscaled sums where the series is an integral) and, for each
        space-time accumulator, the space sum of its integrand at k.  The
        difference quotients exist only for k < K - 1, where k + 1 does.
        """
        g = self.grid
        dim, h = g.dim, g.h
        a = self._first
        axes = tuple(range(1, dim + 1))
        c_B = self.params.c_B
        bc_c = dirichlet(c_B)
        spec, put = self.spec, self._put
        col = (slice(None),) + (None,) * dim   # a per-snapshot vector against a block
        n, p, c = self._block[:, :size]
        put("mass", np.sum(n, axis=axes))
        put("linf_n", np.max(n, axis=axes))
        put("n_min", np.min(n, axis=axes))
        put("c_min", np.min(c, axis=axes))
        put("c_max", np.max(c, axis=axes))
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
        if m > 0:
            dt = self._dts[a:a + m][col]
            n_next, p_next, c_next = self._block[:, 1:m + 1]
            dn = (n_next - n[:m]) / dt
            dp = (p_next - p[:m]) / dt
            dc = (c_next - c[:m]) / dt
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
        if self.weight is not None:
            put("weighted_ab_neg_l3", np.sum(w_neg3 * self.weight.values, axis=axes))
        if self.zeta is not None:
            t_fac = self._z_t[a:a + size][col]
            zv = self._bump * t_fac
            zdt = self._bump * self._z_dt[a:a + size][col]
            put("compl_lhs", np.sum(p * zdt + gsq * zv, axis=axes))
            pdotz = sum(gx * (zg * t_fac) for gx, zg in zip(grads, self._bump_grad))
            put("compl_rhs", np.sum(-gsq * zv - p * pdotz + p * G * zv, axis=axes))

    def report(self, traj: Trajectory) -> MonitorReport:
        """The report of the snapshots fed, once all K have been; traj gives
        the run's clipped mass and step count."""
        if self._count != len(self.times):
            raise ValueError(f"{self._count} of {len(self.times)} snapshots fed")
        sums = {name: np.concatenate(blocks) for name, blocks in self._parts.items()}
        hd = self.grid.cell_volume
        dts = self._dts.tolist()
        gamma = self.params.gamma

        def accumulate(name):
            """Left-endpoint rule, added in k order: sum_k sums[name][k] * h^d * dt_k."""
            total = 0.0
            if name in sums:
                for s, dt in zip(sums[name].tolist(), dts):
                    total += s * hd * dt
            return total

        series = {
            "t": self.times.copy(),
            "dt": self.snap_dts.copy(),
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
        if self.weight is not None:
            accum["weighted_ab_neg_l3"] = accumulate("weighted_ab_neg_l3")
            meta["C_phi"] = self.weight.C_phi
        if self.zeta is not None:
            lhs = -accumulate("compl_lhs") / gamma
            rhs = accumulate("compl_rhs")
            zmax, dtmax = self.zeta.sup_norms(self.grid, self.times[:-1])
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
        extremes = {"n_min": sums["n_min"], "n_max": sums["linf_n"],
                    "c_min": sums["c_min"], "c_max": sums["c_max"]}
        return MonitorReport(series=series, accum=accum, meta=meta, extremes=extremes)


SERIES_COLUMNS = [
    "t", "dt", "mass", "linf_n", "l1_n", "linf_p", "l1_p", "l1_c_dev",
    "l2_grad_c", "l2_grad_p", "energy", "graph_residual", "support_radius",
    "w_min",
]


def compute_report(traj: Trajectory, spec: model.ReactionSpec,
                   zeta: TestFunction | None = None,
                   weight: WeightFunction | None = None) -> MonitorReport:
    """All monitors of a trajectory: its snapshots fed, in order, to the one
    monitor pass.  Of a run reloaded from its directory, it is the report
    the run streamed, bit for bit.

    Per-snapshot norms, then the space-time integrals of the one-sided
    Laplacian bounds, of c's derivatives and of the time-difference quotients
    of (n, p, c); with weight the Phi-weighted |w|_-^3, with zeta both sides
    of the weak stiff-pressure identity plus the explicit (1/gamma) bound on
    its left side, with all factors measured.
    """
    scan = MonitorPass(traj.grid, traj.params, spec, traj.times, zeta=zeta, weight=weight)
    for k in range(len(traj)):
        scan(k, traj.state(k), traj.snap_dts[k])
    return scan.report(traj)
