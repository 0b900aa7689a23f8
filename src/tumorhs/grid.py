"""Uniform cell-centered grids in 1D/2D with second-order discrete operators.

Cell centers sit at lo + (i + 1/2)h, so the box faces lie exactly at the
domain boundary.  Boundary conditions enter through one layer of ghost
cells: a Dirichlet value v at the face gives ghost = 2v - interior (linear
extrapolation through the face), Neumann-zero mirrors the interior cell.
With Dirichlet ghosts the Laplacian matrix is symmetric, so the discrete
integration-by-parts identities hold to roundoff against the face-based
gradient energy (dirichlet_energy_array below); the centered-difference
gradient is kept separate for the monitors, which only need O(h^2)
consistency.  Fields are plain ndarrays of the grid's shape throughout.

Space integrals use the midpoint rule (cell value times h^d), space-time
accumulations the left-endpoint rule in time, matching the first-order time
stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "BoundaryCondition",
    "dirichlet",
    "NEUMANN_ZERO",
    "DIRICHLET_ZERO",
    "TestFunction",
]


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # "dirichlet" | "neumann"
    value: float = 0.0


def dirichlet(value: float) -> BoundaryCondition:
    return BoundaryCondition("dirichlet", float(value))


DIRICHLET_ZERO = dirichlet(0.0)
NEUMANN_ZERO = BoundaryCondition("neumann")


@dataclass(frozen=True)
class Grid:
    """Uniform box [lo, hi]^d split into n cells per axis (same n and h on each)."""

    dim: int
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"at least 8 cells per axis required, got {self.n}")
        if not self.hi > self.lo:
            raise ValueError("hi must exceed lo")

    @classmethod
    def symmetric(cls, dim: int, L: float, n: int) -> "Grid":
        return cls(dim=dim, lo=-float(L), hi=float(L), n=int(n))

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @cached_property
    def axis_centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def coords(self) -> tuple:
        """Cell-center coordinate arrays, one per axis, broadcast to grid shape."""
        if self.dim == 1:
            return (self.axis_centers,)
        return tuple(np.meshgrid(self.axis_centers, self.axis_centers, indexing="ij"))

    @cached_property
    def radius(self) -> np.ndarray:
        """Distance of each cell center from the origin."""
        r2 = sum(x * x for x in self.coords)
        return np.sqrt(r2)

    def contains_ball(self, radius: float, margin_cells: int = 1) -> bool:
        """True if the ball B_radius(0) fits inside the box with a cell margin."""
        half = min(-self.lo, self.hi)
        return radius + margin_cells * self.h <= half


# ---------------------------------------------------------------------------
# ghost-cell extension and stencils
# ---------------------------------------------------------------------------

def _extend(v: np.ndarray, bc: BoundaryCondition, dim: int) -> np.ndarray:
    """Pad the trailing dim axes with one ghost layer each according to the
    boundary condition; leading axes (a block of snapshots) are not padded."""
    lead = v.ndim - dim
    interior = [slice(None)] * lead + [slice(1, -1)] * dim
    ext = np.zeros(v.shape[:lead] + tuple(m + 2 for m in v.shape[lead:]), dtype=v.dtype)
    ext[tuple(interior)] = v
    for ax in range(lead, v.ndim):
        lo_ghost, lo_in, hi_ghost, hi_in = (list(interior) for _ in range(4))
        lo_ghost[ax], lo_in[ax] = 0, 1
        hi_ghost[ax], hi_in[ax] = -1, -2
        if bc.kind == "dirichlet":
            ext[tuple(lo_ghost)] = 2.0 * bc.value - ext[tuple(lo_in)]
            ext[tuple(hi_ghost)] = 2.0 * bc.value - ext[tuple(hi_in)]
        elif bc.kind == "neumann":
            ext[tuple(lo_ghost)] = ext[tuple(lo_in)]
            ext[tuple(hi_ghost)] = ext[tuple(hi_in)]
        else:
            raise ValueError(f"unknown boundary kind {bc.kind!r}")
    return ext


def _shift(ext: np.ndarray, ax: int, off: int, dim: int) -> np.ndarray:
    """View of the extended array shifted by off cells along spatial axis ax
    (0 is the first of the trailing dim axes), in the interior shape."""
    lead = ext.ndim - dim
    sl = [slice(None)] * lead + [slice(1, -1)] * dim
    sl[lead + ax] = slice(1 + off, ext.shape[lead + ax] - 1 + off)
    return ext[tuple(sl)]


# The array stencils act on the trailing dim axes of v (dim defaults to
# v.ndim), so one call serves a single field or a block of snapshots stacked
# along leading axes; each snapshot of a block gets the same bits as alone.

def laplacian_array(v: np.ndarray, h: float, bc: BoundaryCondition,
                    dim: int | None = None) -> np.ndarray:
    dim = v.ndim if dim is None else dim
    ext = _extend(v, bc, dim)
    out = np.zeros_like(v)
    for ax in range(dim):
        out += _shift(ext, ax, 1, dim) - 2.0 * v + _shift(ext, ax, -1, dim)
    return out / (h * h)


def gradient_array(v: np.ndarray, h: float, bc: BoundaryCondition,
                   dim: int | None = None) -> tuple:
    dim = v.ndim if dim is None else dim
    ext = _extend(v, bc, dim)
    return tuple((_shift(ext, ax, 1, dim) - _shift(ext, ax, -1, dim)) / (2.0 * h)
                 for ax in range(dim))


def second_diff_array(v: np.ndarray, i: int, j: int, h: float,
                      bc: BoundaryCondition, dim: int | None = None) -> np.ndarray:
    """Centered second difference d^2/dx_i dx_j; mixed terms by nested first differences."""
    dim = v.ndim if dim is None else dim
    if i == j:
        ext = _extend(v, bc, dim)
        return (_shift(ext, i, 1, dim) - 2.0 * v + _shift(ext, i, -1, dim)) / (h * h)
    gi = gradient_array(v, h, bc, dim)[i]
    return gradient_array(gi, h, bc, dim)[j]


def dirichlet_energy_array(v: np.ndarray, h: float) -> float:
    """Face-based form of int |grad f|^2 for Dirichlet-zero f.

    Interior faces contribute (df/h)^2 * h^d; boundary faces see the value 0
    at distance h/2, contributing (2 f/h)^2 * h^d / 2.  This is the unique
    form for which integral_array(f * laplacian_array(f)) equals
    -dirichlet_energy_array(f) to roundoff with the ghost-cell Laplacian above.
    """
    hd = h ** v.ndim
    total = 0.0
    for ax in range(v.ndim):
        d = np.diff(v, axis=ax) / h
        total += float(np.sum(d * d)) * hd
        lo = np.take(v, 0, axis=ax)
        hi = np.take(v, -1, axis=ax)
        total += (float(np.sum(lo * lo)) + float(np.sum(hi * hi))) * (2.0 * hd / (h * h))
    return total


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integral_array(v: np.ndarray, h: float) -> float:
    """Midpoint rule: sum of cell values times h^d."""
    return float(np.sum(v)) * h ** v.ndim


# ---------------------------------------------------------------------------
# compactly supported space-time test bump
# ---------------------------------------------------------------------------

def _bump(s: np.ndarray) -> np.ndarray:
    """Mollifier profile exp(-1/(1-s^2)) for |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _bump_deriv(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    om = 1.0 - si * si
    out[inside] = np.exp(-1.0 / om) * (-2.0 * si / (om * om))
    return out


@dataclass(frozen=True)
class TestFunction:
    """Space-time bump zeta(x,t) = phi(|x - center|/radius) * phi((t - t_center)/t_halfwidth).

    phi is the standard mollifier profile, so zeta >= 0 is smooth and both
    zeta and its time derivative vanish identically outside the declared
    window.  center is a tuple with one entry per axis.
    """

    __test__ = False  # named for the weak-formulation role; not a test class

    center: tuple
    radius: float
    t_center: float
    t_halfwidth: float

    def __post_init__(self):
        if self.radius <= 0 or self.t_halfwidth <= 0:
            raise ValueError("zeta radius and t_halfwidth must be positive")

    def check_support(self, grid: Grid, T: float) -> None:
        for c in self.center:
            if not (grid.lo < c - self.radius and c + self.radius < grid.hi):
                raise ValueError("zeta support is not strictly inside the box")
        if not (0.0 < self.t_center - self.t_halfwidth
                and self.t_center + self.t_halfwidth < T):
            raise ValueError("zeta time window is not strictly inside (0, T)")

    def _s_space(self, grid: Grid) -> np.ndarray:
        r2 = sum((x - c) ** 2 for x, c in zip(grid.coords, self.center))
        return np.sqrt(r2) / self.radius

    def _s_time(self, t):
        return (t - self.t_center) / self.t_halfwidth

    def space_factors(self, grid: Grid) -> tuple:
        """The time-independent spatial bump and its analytic gradient (one
        array per axis, without the time factor)."""
        s = self._s_space(grid)
        dphi = _bump_deriv(s) / self.radius
        r = s * self.radius
        safe_r = np.where(r > 0.0, r, 1.0)
        grad = tuple(dphi * np.where(r > 0.0, (x - c) / safe_r, 0.0)
                     for x, c in zip(grid.coords, self.center))
        return _bump(s), grad

    def time_factors(self, t) -> tuple:
        """(phi, dphi/dt) of the time profile, elementwise in t."""
        s = self._s_time(np.asarray(t, dtype=float))
        return _bump(s), _bump_deriv(s) / self.t_halfwidth

    def value(self, grid: Grid, t: float) -> np.ndarray:
        return _bump(self._s_space(grid)) * float(self.time_factors(t)[0])

    def dt(self, grid: Grid, t: float) -> np.ndarray:
        return _bump(self._s_space(grid)) * float(self.time_factors(t)[1])

    def grad(self, grid: Grid, t: float) -> tuple:
        """Analytic spatial gradient, one array per axis."""
        tv = float(self.time_factors(t)[0])
        return tuple(gs * tv for gs in self.space_factors(grid)[1])

    def sup_norms(self, grid: Grid, times) -> tuple:
        """Measured (|zeta|_inf, |dt zeta|_inf) over grid nodes and given times.

        zeta = bump(x) * phi(t) with bump >= 0, and rounding a product is
        monotone in each nonnegative factor, so the largest cell of a time
        slice is the largest bump times the time factor, to the last bit.
        """
        bump_max = float(np.max(_bump(self._s_space(grid))))
        tv, tdt = self.time_factors(times)
        return float(np.max(bump_max * tv)), float(np.max(np.abs(bump_max * tdt)))
