"""Time integration of the coupled density/pressure/nutrient system.

The density update is a conservative finite-volume step for
dn/dt = div(n grad p) + n G, p = n^gamma; with reactions off it is a
consistent discretization of the porous-medium form
dn/dt = kappa * Lap(n^(gamma+1)), kappa = gamma/(gamma+1).  One linearly
implicit scheme serves both dimensions:

- The face mobility D_f = mean(n) * s_f is frozen at the old state, with s_f
  the secant (p_hi - p_lo)/(n_hi - n_lo) (the tangent gamma p/n where the
  two cells agree, 0 where n = 0).  At n_new = n the face flux -D_f dn/h is
  the explicit flux -mean(n) dp/h.
- A sweep along one axis solves (I - dt A) x = b, with A = div D_f grad
  along that axis, for every line of cells at once: the lines are
  concatenated into one tridiagonal system with zero coupling at the line
  ends and solved with LAPACK's gtsv.  With s_f >= 0 and zero mobility on
  the wall faces the matrix is a symmetric M-matrix with unit column sums,
  so for every dt x is nonnegative, no larger than max b, and sums to sum b.
- 1D is one sweep: n_new = X^-1 n (1 + dt G).
- 2D splits by axis and averages the two orders (symmetrically weighted
  sequential splitting): n_new = (Y^-1 X^-1 + X^-1 Y^-1) n (1 + dt G) / 2.
  Either order alone favours its first axis and breaks the transpose
  symmetry of radial data; the average keeps it exactly.  Elimination runs
  one way along each line, so a gtsv solve is not mirror-symmetric in
  floating point: each 2D sweep therefore averages its solve with the solve
  of the reversed system, reversed back, which makes it exactly equivariant
  under reflections.  Averages keep the properties of the sweeps, so n stays
  >= 0 for every dt and the mass changes by dt * sum(n G) h^d.
- 2D works on a box alone: the bounding box of n != 0, grown by one cell and
  clamped to the grid; n and p are 0 outside it.  This is the whole-grid
  step bit for bit: the box's outer ring is empty, so every face on or
  outside the box's edge has mobility 0 and every cell outside it a
  right-hand side of +0.  In the elimination such a face adds a +0 term,
  which changes no bit of a nonnegative value that is not -0, and the
  initial data and the step hold no -0.

The step is an accuracy choice: dt is bounded by
FRONT_COURANT * h^2 / max_f |dp| over the faces of every axis, so the Darcy
front moves at most FRONT_COURANT of a cell per step, and by safety / |G|_inf
for the reactions.  Growth can push densities above n_H; they are clipped
and the clipped mass is accounted per run.  The nutrient is advanced by
backward-Euler diffusion with explicit reactions (IMEX), solved in the
deviation variable c - c_B so the implicit matrix is symmetric positive
definite.  Both dimensions solve it directly: a tridiagonal LAPACK solve in
1D, a diagonal solve in the DST-II basis in 2D.  Steps land exactly on the
snapshot marks so repeated runs and gamma sweeps share identical output
times.

A run keeps its whole history in memory, or, given a sink, hands each
snapshot to it as the run reaches it and keeps only the first and the last:
limit.run_once streams a run with an output directory to its field writer
and to the monitor pass that way (Fanout), so memory does not grow with the
snapshot count.
"""

from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs
# unused here; perfbench/child.py wraps solver.sparse_cg by name to count CG steps
from scipy.sparse.linalg import cg as sparse_cg  # noqa: F401

from . import model
from .grid import Grid, integral_array

__all__ = [
    "State",
    "Trajectory",
    "RunSetup",
    "SolverError",
    "initial_plateau",
    "initial_prerelaxed",
    "initial_barenblatt",
    "initial_from_csv",
    "reactions_off",
    "nutrient_uniform",
    "nutrient_deficit",
    "cfl_dt",
    "step_density",
    "step_nutrient",
    "Fanout",
    "run",
    "barenblatt_convergence",
]

# post-update densities below -NEG_TOL abort; smaller undershoots are clipped
# into the accounting
NEG_TOL = 1e-10
STATE_TOL = 1e-8
# step rule: the Darcy front moves at most this fraction of a cell per step.
# The time error of the accumulated monitors is first order in it.
FRONT_COURANT = 0.005


class SolverError(RuntimeError):
    """Fatal integration failure with cell-level diagnostics.  Raised out of
    limit.run_once, it also carries the directory of the partial dump, if one
    was written, or the OSError that kept it from being written."""

    partial_dir = None
    partial_error = None


@dataclass
class State:
    """Snapshot (t, n, p, c) on a grid; p = n**gamma is maintained by the stepper."""

    grid: Grid
    t: float
    n: np.ndarray
    p: np.ndarray
    c: np.ndarray


@dataclass
class Trajectory:
    """Time-ordered snapshots at the configured cadence plus the full dt
    record: every snapshot, or the first and the last of a streamed run."""

    grid: Grid
    params: model.ModelParams
    times: np.ndarray          # snapshot times, strictly increasing
    n: np.ndarray              # (snapshots, *grid.shape)
    p: np.ndarray
    c: np.ndarray
    snap_dts: np.ndarray       # solver dt active when each snapshot was taken
    dts: np.ndarray            # every solver step
    clipped_mass: float        # cumulative |clipped| * h^d over the run
    meta: dict = field(default_factory=dict)

    def state(self, k: int) -> State:
        return State(self.grid, float(self.times[k]), self.n[k], self.p[k], self.c[k])

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class RunSetup:
    """Everything one run needs; built from an ExperimentConfig or by hand in tests."""

    grid: Grid
    params: model.ModelParams
    spec: model.ReactionSpec
    n0: np.ndarray
    c0: np.ndarray
    T: float
    snapshot_dt: float
    cfl_safety: float = 0.4


# ---------------------------------------------------------------------------
# initial data builders
# ---------------------------------------------------------------------------

def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        hi = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return lo / (lo + hi)


def initial_plateau(g: Grid, params: model.ModelParams, theta: float,
                    radius: float, edge: float,
                    height: str = "pressure") -> tuple:
    """Plateau with a mollified edge, supported on |x| < radius.

    height="density" sets n0 = theta * n_H on the plateau (the profile is the
    density); height="pressure" sets p0 = theta * p_H, which gives a family of
    initial data whose pressure, pressure gradient and pressure Laplacian are
    uniform in gamma (well-prepared for the stiff limit).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta in (0, 1) required")
    if not 0.0 < edge < radius:
        raise ValueError("need 0 < edge < radius")
    profile = _smoothstep((radius - g.radius) / edge)
    if height == "pressure":
        p0 = theta * params.p_H * profile
        n0 = model.density_from_pressure(p0, params.gamma)
    elif height == "density":
        n0 = theta * params.n_H * profile
        p0 = model.pressure_from_density(n0, params.gamma)
    else:
        raise ValueError(f"unknown plateau height mode {height!r}")
    return n0, p0


def initial_barenblatt(g: Grid, params: model.ModelParams, mass: float,
                       t0: float) -> tuple:
    """Barenblatt profile at its self-similar time offset (verification runs)."""
    from .analytic import BarenblattParams, barenblatt_density
    prm = BarenblattParams(m=params.gamma + 1.0, d=g.dim, mass=mass,
                           kappa=params.gamma / (params.gamma + 1.0), t0=t0)
    n0 = barenblatt_density(g.radius, 0.0, prm)
    return n0, model.pressure_from_density(n0, params.gamma)


def initial_prerelaxed(g: Grid, params: model.ModelParams,
                       spec: model.ReactionSpec, theta: float, radius: float,
                       edge: float, t_relax: float = 0.02,
                       gamma_prep: float = 80.0) -> tuple:
    """Plateau evolved briefly under near-stiff dynamics, then re-used for
    every gamma (the warmup pressure profile is gamma-independent).

    The raw plateau edge relaxes at a rate proportional to gamma, so the
    small-gamma members of the family would otherwise spend an O(1/gamma)
    initial layer with steep gradients that skews the accumulated space-time
    norms.  A short warmup at gamma_prep brings the gradients down to the
    quasi-steady scale while the shoulder of the profile still carries the
    one-sided Laplacian mass the monitors track.
    """
    if t_relax < 0.0:
        raise ValueError("t_relax >= 0 required")
    prep_params = model.ModelParams(gamma=gamma_prep, p_H=params.p_H,
                                    p_B=params.p_B, c_B=params.c_B,
                                    g0=params.g0, c1=params.c1, c2=params.c2)
    default = spec.family == "default"
    p0 = _warmup_pressure(g, prep_params, spec.c_star if default else None,
                          None if default else spec, theta, radius, edge,
                          t_relax).copy()
    return model.density_from_pressure(p0, params.gamma), p0


@functools.lru_cache(maxsize=4)
def _warmup_pressure(g: Grid, prep_params: model.ModelParams, c_star, custom_spec,
                     theta: float, radius: float, edge: float,
                     t_relax: float) -> np.ndarray:
    """Warmup pressure of initial_prerelaxed, computed once per set of inputs:
    it does not depend on the run's gamma, so a gamma sweep shares it.  The
    reactions are the default family at c_star, or custom_spec when given."""
    prep_spec = custom_spec or model.default_reactions(prep_params, c_star=c_star)
    n0, p0 = initial_plateau(g, prep_params, theta=theta, radius=radius, edge=edge)
    if t_relax > 0.0:
        setup = RunSetup(grid=g, params=prep_params, spec=prep_spec, n0=n0,
                         c0=nutrient_uniform(g, prep_params), T=t_relax,
                         snapshot_dt=t_relax)
        p0 = run(setup).p[-1].copy()
    p0.flags.writeable = False
    return p0


def _require_finite(a: np.ndarray, what: str) -> None:
    """ValueError naming `what` and the first cell where a is not finite:
    the bound checks of the initial data compare, and a NaN passes them."""
    bad = ~np.isfinite(a)
    if bad.any():
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), a.shape))
        raise ValueError(f"{what} is not finite at cell {idx}")


def initial_from_csv(g: Grid, params: model.ModelParams, path) -> tuple:
    """Density from a CSV file with one header line, then one row per cell in
    C order of the grid: the cell-centre coordinates, then the density in the
    last column.  In 1D, np.savetxt(path, np.column_stack([x, n0]),
    delimiter=",", header="x0,value", comments="") writes such a file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n0 = data[:, -1].reshape(g.shape)
    _require_finite(n0, f"file density n0 ({path})")
    if np.any(n0 < 0.0) or np.any(n0 > params.n_H + 1e-12):
        raise ValueError("file density violates 0 <= n0 <= n_H")
    return n0, model.pressure_from_density(np.maximum(n0, 0.0), params.gamma)


def nutrient_uniform(g: Grid, params: model.ModelParams) -> np.ndarray:
    return np.full(g.shape, params.c_B)


def nutrient_deficit(g: Grid, params: model.ModelParams, depth: float,
                     radius: float) -> np.ndarray:
    """c0 = c_B * (1 - depth * bump(|x|/radius)); keeps 0 <= c0 <= c_B for depth <= 1."""
    if not 0.0 <= depth <= 1.0:
        raise ValueError("depth in [0, 1] required")
    s = g.radius / radius
    bump = np.zeros(g.shape)
    inside = s < 1.0
    # normalized mollifier: 1 at the center, 0 outside the radius
    bump[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return params.c_B * (1.0 - depth * bump)


# ---------------------------------------------------------------------------
# time step control
# ---------------------------------------------------------------------------

def cfl_dt(state: State, params: model.ModelParams, spec: model.ReactionSpec,
           safety: float = 0.4, *, G: np.ndarray | None = None) -> float:
    """Step size of the density scheme: the front rule
    FRONT_COURANT * h^2 / max_f |dp| over the faces of every axis, capped by
    the reactions at safety / |G|_inf.  With no pressure difference the cap
    alone governs, and with no reactions either the result is inf: the
    caller bounds the step.

    G, when given, is spec.G(state.p, state.c), already evaluated for this step.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety in (0, 1] required")
    p = state.p
    p_max = float(p.max())
    if not math.isfinite(p_max):
        k = int(np.argmax(~np.isfinite(p)))
        idx = tuple(int(i) for i in np.unravel_index(k, p.shape))
        raise SolverError(f"non-finite pressure at cell {idx} (t={state.t})")
    g = state.grid
    dt = math.inf
    dp_max = float(np.abs(p[1:] - p[:-1]).max())
    if p.ndim == 2:
        dp_max = max(dp_max, float(np.abs(p[:, 1:] - p[:, :-1]).max()))
    if dp_max > 0.0:
        dt = FRONT_COURANT * g.h * g.h / dp_max
    if G is None:
        G = spec.G(state.p, state.c)
    g_max = float(np.abs(G).max())
    if g_max > 0.0:
        dt = min(dt, safety / g_max)
    if dt <= 0.0 or not dt > 1e-300:
        raise SolverError(f"time step underflow (max p = {p_max:.3e})")
    return dt


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def _sl(ax: int, start, stop, ndim: int):
    sl = [slice(None)] * ndim
    sl[ax] = slice(start, stop)
    return tuple(sl)


def _support_box(n: np.ndarray) -> tuple:
    """Slices of the bounding box of the cells with n != 0, grown by one cell
    and clamped to the grid (2D); both empty when n vanishes everywhere."""
    rows = np.flatnonzero(n.any(axis=1))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    r0, r1 = max(int(rows[0]) - 1, 0), min(int(rows[-1]) + 2, n.shape[0])
    cols = np.flatnonzero(n[r0:r1].any(axis=0))
    return (slice(r0, r1),
            slice(max(int(cols[0]) - 1, 0), min(int(cols[-1]) + 2, n.shape[1])))


class _ImplicitDensity:
    """The linearly implicit density step (see the module doc).  A sweep
    works on L lines of m cells, concatenated in one vector of M = L m
    cells; its mobility array holds the M + 1 faces, face k between cells
    k - 1 and k, and is 0 on every wall face k = i m.  The scratch arrays are
    sized for the grid and allocated once per run, and a sweep uses a prefix
    of each.  cells sums the cells of every 2D box over the run."""

    def __init__(self, g: Grid):
        size = g.n ** g.dim
        self.h = g.h
        self.cells = 0
        self._gtsv, = get_lapack_funcs(("gtsv",), (np.zeros(1),))
        self._dn, self._dp, self._tan = np.empty(size - 1), np.empty(size - 1), np.empty(size - 1)
        self._flat = np.empty(size - 1, dtype=bool)
        # the mobility of each sweep axis, then dt / h^2 times it
        self._mobility = [np.empty(size + 1) for _ in range(g.dim)]
        self._lower, self._diag, self._upper = np.empty(size - 1), np.empty(size), np.empty(size - 1)
        self._prefixes = {}

    def _scratch(self, M: int) -> tuple:
        """((dn, dp, tan, flat), (lower, diag, upper)): the prefixes of the
        scratch arrays that a sweep over M cells uses, sliced once per M."""
        views = self._prefixes.get(M)
        if views is None:
            k = M - 1
            views = self._prefixes[M] = (
                (self._dn[:k], self._dp[:k], self._tan[:k], self._flat[:k]),
                (self._lower[:k], self._diag[:M], self._upper[:k]))
        return views

    def face_mobility(self, n: np.ndarray, p: np.ndarray, gamma: float, m: int,
                      out: np.ndarray) -> np.ndarray:
        """The mobility D_f = mean(n) * max(s_f, 0) of the concatenated lines
        of m cells n, p (flat arrays), written into out and returned as its
        first n.size + 1 entries: s_f is the secant dp/dn, or the tangent
        gamma p/n where the two cells agree (0 where they are empty)."""
        dn, dp, tan, flat = self._scratch(n.size)[0]
        np.subtract(n[1:], n[:-1], out=dn)
        np.subtract(p[1:], p[:-1], out=dp)
        np.equal(dn, 0.0, out=flat)
        np.multiply(p[:-1], gamma, out=tan)
        np.copyto(dp, tan, where=flat)
        np.copyto(dn, n[:-1], where=flat)
        np.equal(dn, 0.0, out=flat)
        np.copyto(dn, 1.0, where=flat)
        out = out[:n.size + 1]
        D = out[1:-1]
        np.divide(dp, dn, out=D)
        np.maximum(D, 0.0, out=D)
        np.add(n[1:], n[:-1], out=dn)
        dn *= 0.5
        D *= dn
        # the wall faces, the faces joining two lines among them
        out[::m] = 0.0
        return out

    def _solve(self, r: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x of the concatenated line system (I - dt A) x = b, with r the
        scaled mobility dt D_f / h^2 of its faces; b may be overwritten."""
        lower, diag, upper = self._scratch(b.size)[1]
        np.negative(r[1:-1], out=lower)
        np.copyto(upper, lower)
        np.add(r[:-1], r[1:], out=diag)
        diag += 1.0
        _, _, _, x, info = self._gtsv(lower, diag, upper, b, 1, 1, 1, 1)
        if info != 0:
            raise SolverError(f"tridiagonal density solve failed (gtsv info {info})")
        return x

    def _sweep(self, r: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x of the concatenated line system (I - dt A) x = b averaged with
        the solve of the reversed system, reversed back: exactly equivariant
        under reversal.  b is overwritten."""
        back = self._solve(r[::-1], b[::-1])[::-1]
        x = self._solve(r, b)
        x += back
        x *= 0.5
        return x

    def advance(self, n: np.ndarray, p: np.ndarray, G: np.ndarray, dt: float,
                gamma: float) -> tuple:
        """(n_new, box): n_new of the step from n with rates G, a new array
        that is 0 outside box, an Ellipsis in 1D and a tuple of slices in 2D."""
        scale = dt / (self.h * self.h)
        if n.ndim == 1:
            # one solve, not mirror-averaged: no symmetry needs it in 1D
            r = self.face_mobility(n, p, gamma, n.size, self._mobility[0])
            r *= scale
            rhs = n * G
            rhs *= dt
            rhs += n
            return self._solve(r, rhs), ...
        box = _support_box(n)
        n_new = np.zeros(n.shape)
        nb, pb = n[box], p[box]
        if nb.size == 0:
            return n_new, box
        self.cells += nb.size
        L0, L1 = nb.shape
        # x sweeps run along axis 0, on the transposed block
        rx = self.face_mobility(nb.T.ravel(), pb.T.ravel(), gamma, L0, self._mobility[0])
        ry = self.face_mobility(nb.ravel(), pb.ravel(), gamma, L1, self._mobility[1])
        rx *= scale
        ry *= scale
        rhs = nb * G[box]
        rhs *= dt
        rhs += nb
        xy = self._sweep(rx, rhs.T.ravel()).reshape(L1, L0)
        xy = self._sweep(ry, xy.T.ravel()).reshape(L0, L1)
        yx = self._sweep(ry, rhs.ravel()).reshape(L0, L1)
        yx = self._sweep(rx, yx.T.ravel()).reshape(L1, L0).T
        out = n_new[box]
        np.add(xy, yx, out=out)
        out *= 0.5
        return n_new, box


def step_density(state: State, dt: float, params: model.ModelParams,
                 spec: model.ReactionSpec, *, G: np.ndarray | None = None,
                 _buffers=None) -> tuple:
    """One linearly implicit, conservative update of n (and p); returns
    (n, p, clipped_mass).

    G, when given, is spec.G(state.p, state.c), already evaluated for this
    step.  _buffers, when given, is _ImplicitDensity(state.grid).  The arrays
    of `state` are left untouched; n and p are new arrays.
    """
    g = state.grid
    if G is None:
        G = spec.G(state.p, state.c)
    buf = _buffers or _ImplicitDensity(g)
    n_new, box = buf.advance(state.n, state.p, G, dt, params.gamma)
    nb = n_new[box]
    # n_new is 0 outside the box; initial=0.0 also covers an empty box
    worst = float(nb.min(initial=0.0))
    if not math.isfinite(worst) or worst < -NEG_TOL:
        # the 2D sweeps spread a non-finite input along every line of the
        # box, so the first such cell of the old n (or of G) is named
        bad = ~np.isfinite(state.n)
        if not bad.any():
            bad = ~np.isfinite(G)
        k = int(np.argmax(bad)) if bad.any() else int(np.argmin(n_new))
        idx = tuple(int(i) for i in np.unravel_index(k, n_new.shape))
        raise SolverError(
            f"density update out of range at cell {idx}: n={worst:.3e} (t={state.t})")
    n_H = params.n_H
    clipped = 0.0
    # inside [0, n_H] the clip is the identity and the clipped mass exactly 0;
    # the sums run over the whole grid so their bits do not depend on the box
    if worst < 0.0 or float(nb.max(initial=0.0)) > n_H:
        clipped = float(np.sum(np.maximum(-n_new, 0.0))
                        + np.sum(np.maximum(n_new - n_H, 0.0))) * g.cell_volume
        np.clip(n_new, 0.0, n_H, out=n_new)
    # the NEG_TOL abort and the clip above make n_new >= 0, which is all the
    # pressure law's negative-density guard would check
    p_new = np.zeros(g.shape)
    model._pressure(nb, params.gamma, out=p_new[box])
    return n_new, p_new, clipped


class _NutrientSolver:
    """Backward-Euler diffusion solve (I - dt*Lap) u = rhs in the deviation
    u = c - c_B, with Dirichlet-zero (odd) ghosts.

    1D calls LAPACK's tridiagonal gtsv.  2D solves directly in the DST-II
    basis, in which the cell-centred Laplacian with the odd ghost is exactly
    diagonal, with eigenvalues lam_i + lam_j, lam_k = -4/h^2 sin^2(pi k/2N)
    for k = 1..N.  At a few hundred cells one gtsv call is about half the
    cost of one 1D DST, hence the split by dimension.  Every solve is
    verified to relative residual <= 1e-10 with the 2d+1-point stencil;
    residual_max is the largest relative residual of the solver's solves.
    The scratch arrays of the solve and of the check are allocated once.
    """

    residual_tol = 1e-10

    def __init__(self, g: Grid):
        self.grid = g
        self.residual_max = 0.0
        self._Au, self._scratch = np.empty(g.shape), np.empty(g.shape)
        d = g.dim
        # residual stencil per axis: neighbour slices, and the first and last
        # cell layers, whose odd ghost folds one more +r into the diagonal
        self._axes = [(_sl(ax, None, -1, d), _sl(ax, 1, None, d),
                       (slice(None),) * ax + (0,), (slice(None),) * ax + (-1,))
                      for ax in range(d)]
        # the 2D y axis walks the flattened arrays (contiguous memory)
        self._flat = self._Au.reshape(-1), self._scratch.reshape(-1)
        if d == 1:
            # the routine solve_banded uses for (1, 1)-banded systems; it
            # overwrites the three diagonals, so they are refilled per solve
            self._gtsv, = get_lapack_funcs(("gtsv",), (np.zeros(1),))
            self._diags = (np.empty(g.n - 1), np.empty(g.n), np.empty(g.n - 1))
        else:
            # imported here: 1D never needs scipy.fft, which takes a tenth of a
            # second to import
            from scipy.fft import dstn, idstn
            self._dstn, self._idstn = dstn, idstn
            k = np.arange(1, g.n + 1)
            lam = -4.0 / (g.h * g.h) * np.sin(0.5 * math.pi * k / g.n) ** 2
            self._lam = lam[:, None] + lam[None, :]
            self._denom = np.empty(g.shape)

    def solve(self, rhs: np.ndarray, dt: float) -> np.ndarray:
        """u of (I - dt*Lap) u = rhs, a new array."""
        scale = float(np.abs(rhs, out=self._scratch).max())
        if scale == 0.0:
            # the exact solution, and what gtsv and the DST return for a zero rhs
            return np.zeros_like(rhs)
        g = self.grid
        r = dt / (g.h * g.h)
        if g.dim == 1:
            lower, diag, upper = self._diags
            lower.fill(-r)
            upper.fill(-r)
            diag.fill(1.0 + 2.0 * r)
            diag[0] = diag[-1] = 1.0 + 3.0 * r
            _, _, _, out, info = self._gtsv(lower, diag, upper, rhs, 1, 1, 1, 0)
            if info != 0:
                raise SolverError(f"tridiagonal nutrient solve failed (gtsv info {info})")
        else:
            coef = self._dstn(rhs, type=2, norm="ortho")
            denom = np.multiply(self._lam, -dt, out=self._denom)
            denom += 1.0
            coef /= denom
            out = self._idstn(coef, type=2, norm="ortho", overwrite_x=True)
        resid = self._residual(out, rhs, r)
        # written so that a NaN residual fails too
        if not resid <= self.residual_tol * scale:
            raise SolverError(
                f"nutrient solve residual {resid / scale:.2e} above "
                f"{self.residual_tol:.0e}")
        self.residual_max = max(self.residual_max, resid / scale)
        return out

    def _residual(self, u, rhs, r):
        """max |(I - dt*Lap) u - rhs|, with r = dt/h^2.

        The neighbour terms of axis 0 run over whole rows.  Those of the 2D
        y axis are subtracted along the flattened arrays, where the terms
        that would cross from one row into the next are masked to +0: x - 0
        is x, so each cell sees the operations of the per-axis stencil, in
        the same order, to the bit, on contiguous memory.
        """
        Au, ru = self._Au, self._scratch
        np.multiply(u, 1.0 + 2.0 * u.ndim * r, out=Au)
        np.multiply(u, r, out=ru)
        for ax, (lo, hi, first, last) in enumerate(self._axes):
            Au[first] += ru[first]
            Au[last] += ru[last]
            if ax == 0:
                Au[hi] -= ru[lo]
                Au[lo] -= ru[hi]
            else:
                flat_Au, flat_ru = self._flat
                ru[last] = 0.0                      # row i's last cell into row i+1
                flat_Au[1:] -= flat_ru[:-1]
                np.multiply(u[last], r, out=ru[last])
                ru[first] = 0.0                     # row i+1's first cell into row i
                flat_Au[:-1] -= flat_ru[1:]
        Au -= rhs
        return float(np.abs(Au, out=Au).max())


def step_nutrient(state: State, dt: float, params: model.ModelParams,
                  spec: model.ReactionSpec,
                  _solver: _NutrientSolver | None = None) -> np.ndarray:
    """IMEX nutrient update: implicit diffusion, explicit consumption/release."""
    if dt <= 0.0:
        raise ValueError("dt > 0 required")
    solver = _solver or _NutrientSolver(state.grid)
    c_B = params.c_B
    u = state.c - c_B
    # dt * (-n H(c) + (c_B - c) K(p)), bit for bit, in one array
    b = c_B - state.c
    b *= spec.K(state.p)
    b -= state.n * spec.H(state.c)
    b *= dt
    u += b
    out = solver.solve(u, dt)
    out += c_B
    return out


def _check_state(state: State, params: model.ModelParams) -> None:
    # 0 <= n <= n_H is not checked again: step_density aborts below -NEG_TOL
    # and clips the rest to [0, n_H]
    cmin, cmax = float(state.c.min()), float(state.c.max())
    if cmin < -STATE_TOL or cmax > params.c_B + STATE_TOL:
        raise SolverError(
            f"nutrient bounds violated at t={state.t}: [{cmin:.3e}, {cmax:.3e}]")
    # the support must stay strictly inside the box (Dirichlet-zero ghosts
    # would silently destroy mass once the front touches the walls)
    n = state.n
    if n.ndim == 1:
        wall = max(n[0], n[-1])
    else:
        wall = max(n[0].max(), n[-1].max(), n[:, 0].max(), n[:, -1].max())
    if wall > 1e-12:
        raise SolverError(f"support reached the box boundary at t={state.t}")


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def snapshot_times(T: float, snapshot_dt: float) -> np.ndarray:
    if T == 0.0:
        return np.array([0.0])
    k = round(T / snapshot_dt)
    if k < 1 or abs(k * snapshot_dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must be an integer multiple of the snapshot cadence")
    return np.arange(k + 1) * snapshot_dt


def _initial_state(setup: RunSetup) -> State:
    params = setup.params
    n = np.array(setup.n0, dtype=float)
    _require_finite(n, "initial density n0")
    if np.any(n < 0.0) or np.any(n > params.n_H + 1e-12):
        raise ValueError("initial density violates 0 <= n0 <= n_H")
    c = np.array(setup.c0, dtype=float)
    _require_finite(c, "initial nutrient c0")
    if np.any(c < 0.0) or np.any(c > params.c_B + 1e-12):
        raise ValueError("initial nutrient violates 0 <= c0 <= c_B")
    return State(setup.grid, 0.0, n, model.pressure_from_density(n, params.gamma), c)


def _step(state: State, t_stop: float, setup: RunSetup, buffers,
          nut: _NutrientSolver) -> tuple:
    """One checked step that ends at t_stop at the latest, landing on it
    exactly; returns (new state, dt, clipped mass, whether t_stop cut the
    step short).

    The three stages are looked up in the module namespace at every call, so
    wrappers installed on solver.cfl_dt / step_density / step_nutrient see
    every step.
    """
    params, spec = setup.params, setup.spec
    t = state.t
    G = spec.G(state.p, state.c)
    dt = cfl_dt(state, params, spec, setup.cfl_safety, G=G)
    at_mark = t_stop - t < dt
    if at_mark:
        dt = t_stop - t
    n, p, clipped = step_density(state, dt, params, spec, G=G, _buffers=buffers)
    c = step_nutrient(state, dt, params, spec, _solver=nut)
    t = t_stop if t_stop - (t + dt) < 1e-14 else t + dt
    state = State(state.grid, t, n, p, c)
    _check_state(state, params)
    return state, dt, clipped, at_mark


class Fanout:
    """A run sink that hands each snapshot to several consumers, in the order
    given, each called as a sink itself; seconds[name] totals the
    perf_counter time of each consumer, with the calls made through timed()."""

    def __init__(self, **consumers):
        self.consumers = consumers
        self.seconds = dict.fromkeys(consumers, 0.0)

    def __call__(self, k: int, state: State, snap_dt: float) -> None:
        for name, consume in self.consumers.items():
            self.timed(name, consume, k, state, snap_dt)

    def timed(self, name: str, fn, *args):
        """fn(*args), its time counted to consumer name."""
        t0 = _time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] += _time.perf_counter() - t0


def run(setup: RunSetup, sink=None) -> Trajectory:
    """Advance from t = 0 to T, landing exactly on every snapshot mark.

    Without a sink the trajectory holds every snapshot.  With one, the run
    calls sink(k, state, snap_dt) at each mark k = 0 .. K-1 as it reaches
    it, with the state there and the solver dt active when it was taken (0
    at k = 0), and the trajectory holds only the first and the last
    snapshot; its dts and meta are those of the whole run either way.  The
    sink may keep the state's arrays, which no later step writes into, and
    its time is not counted in meta["runtime_s"].  run writes no files.
    """
    g, params = setup.grid, setup.params
    marks = snapshot_times(setup.T, setup.snapshot_dt)
    state = _initial_state(setup)

    # the whole history, or the first and the last snapshot alone
    kept = np.arange(len(marks)) if sink is None else np.unique([0, len(marks) - 1])
    shape = (len(kept),) + g.shape
    traj = Trajectory(grid=g, params=params, times=marks[kept],
                      n=np.zeros(shape), p=np.zeros(shape), c=np.zeros(shape),
                      snap_dts=np.zeros(len(kept)), dts=np.zeros(0),
                      clipped_mass=0.0)
    buffers, nut = _ImplicitDensity(g), _NutrientSolver(g)
    dts = []
    clipped_total = 0.0
    at_marks = 0
    sink_s = 0.0
    wall0 = _time.perf_counter()
    for k, mark in enumerate(marks.tolist()):
        last_dt = 0.0
        while state.t < mark - 1e-14:
            state, last_dt, clipped, at_mark = _step(state, mark, setup, buffers, nut)
            clipped_total += clipped
            at_marks += at_mark
            dts.append(last_dt)
        if sink is not None:
            t0 = _time.perf_counter()
            sink(k, state, last_dt)
            sink_s += _time.perf_counter() - t0
        j = min(k, len(kept) - 1)
        traj.n[j], traj.p[j], traj.c[j] = state.n, state.p, state.c
        traj.snap_dts[j] = last_dt
    traj.dts = np.asarray(dts)
    traj.clipped_mass = clipped_total
    traj.meta["runtime_s"] = _time.perf_counter() - wall0 - sink_s
    traj.meta["steps"] = len(dts)
    traj.meta["steps_at_marks"] = at_marks
    traj.meta["front_courant"] = FRONT_COURANT
    traj.meta["nutrient_residual_max"] = nut.residual_max
    traj.meta["density_window_mean"] = (
        buffers.cells / (len(dts) * math.prod(g.shape)) if g.dim == 2 and dts else None)
    return traj


def iterate_states(setup: RunSetup, max_steps: int):
    """Yield the initial state, then the state after each of max_steps steps
    of the kernel run() uses, with no snapshot marks to land on (for
    fine-grained invariant tests).  As in run(), no step is longer than
    setup.snapshot_dt: a uniform state with reactions off gives the step
    rule no finite bound."""
    state = _initial_state(setup)
    buffers, nut = _ImplicitDensity(setup.grid), _NutrientSolver(setup.grid)
    yield state
    for _ in range(max_steps):
        state = _step(state, state.t + setup.snapshot_dt, setup, buffers, nut)[0]
        yield state


# ---------------------------------------------------------------------------
# verification against the self-similar oracle
# ---------------------------------------------------------------------------

def reactions_off(params: model.ModelParams) -> model.ReactionSpec:
    """G = H = K = 0: the scheme reduces to the pure porous-medium form."""
    def zero1(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return model.ReactionSpec(G=lambda p, c: zero1(p), H=zero1, K=zero1,
                              c_star=1.0, family="off", params=params)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def barenblatt_cell_averages(g: Grid, t: float, prm) -> np.ndarray:
    """Exact profile averaged over each cell (1D), matching what the scheme evolves.

    The profile is smooth on its support but behaves like (R - |x|)^(1/(m-1))
    at the front x = +-R(t), so each cell is clipped to [-R, R] before the
    Gauss-Legendre rule is applied to it.
    """
    from .analytic import barenblatt_density, barenblatt_support_radius
    R = barenblatt_support_radius(t, prm)
    x = g.axis_centers
    lo = np.clip(x - 0.5 * g.h, -R, R)
    hi = np.clip(x + 0.5 * g.h, -R, R)
    half = 0.5 * (hi - lo)
    pts = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES[None, :]
    return (half / g.h) * (barenblatt_density(np.abs(pts), t, prm) @ _GL_WEIGHTS)


def barenblatt_convergence(gamma: float, Ns, T: float = 1.0, L: float | None = None,
                           mass: float | None = None, t0: float = 0.1,
                           safety: float = 0.4):
    """Refinement study of the reaction-free scheme against the exact profile.

    The small time offset makes the front traverse many cells over [0, T], so
    the measured L1 error reflects accumulated scheme error rather than the
    projection of the initial kink.  Larger gamma flattens the density front,
    which therefore needs a wider, better-resolved support: the defaults widen
    the profile (mass 3, box 2.5) from gamma = 8 up.

    Returns rows [(N, h, l1_error, runtime_s)] and the measured orders between
    consecutive refinements.
    """
    from .analytic import BarenblattParams, barenblatt_support_radius
    if L is None:
        L = 2.0 if gamma < 8.0 else 2.5
    if mass is None:
        mass = 1.0 if gamma < 8.0 else 3.0
    params = model.ModelParams(gamma=gamma, p_H=4.0)  # headroom: no clipping
    spec = reactions_off(params)
    prm = BarenblattParams(m=gamma + 1.0, d=1, mass=mass,
                           kappa=gamma / (gamma + 1.0), t0=t0)
    if barenblatt_support_radius(T, prm) >= L:
        raise ValueError("box too small for the support at time T")
    rows = []
    for N in Ns:
        g = Grid.symmetric(1, L, int(N))
        n0 = barenblatt_cell_averages(g, 0.0, prm)
        setup = RunSetup(grid=g, params=params, spec=spec, n0=n0,
                         c0=nutrient_uniform(g, params), T=T,
                         snapshot_dt=T, cfl_safety=safety)
        traj = run(setup)
        exact = barenblatt_cell_averages(g, T, prm)
        err = integral_array(np.abs(traj.n[-1] - exact), g.h)
        rows.append((int(N), g.h, err, traj.meta["runtime_s"]))
    orders = [math.log(rows[i][2] / rows[i + 1][2])
              / math.log(rows[i + 1][0] / rows[i][0]) for i in range(len(rows) - 1)]
    return rows, orders
