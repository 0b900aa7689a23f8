"""Constitutive law and reaction terms for the tumor-growth system.

Density n and pressure p are linked by the power law p = n**gamma with
gamma > 1.  Cell division is driven by a rate G(p, c) that decreases in
pressure, nutrient consumption by H(c), and nutrient release from the
vasculature by K(p).  The default family is

    G(p, c) = g0*(p_H - p)*(c + c1) - c2
    H(c)    = c
    K(p)    = |1 - p/p_B|_+

for which dG/dp = -g0*(c + c1) <= -g0*c1 everywhere, so beta = g0*c1 is an
admissible monotonicity margin, and G(p_H, c_B) = -c2 < 0.

Structural assumptions (pressure-monotonicity with margin beta, homeostatic
sign condition, vanishing of K above the vessel pressure, necrosis below a
declared nutrient threshold c_star) are verified by sampling on a dense
lattice rather than symbolically, so user-supplied families plug in as plain
callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ModelParams",
    "ReactionSpec",
    "ValidationReport",
    "default_reactions",
    "validate",
    "pressure_from_density",
    "density_from_pressure",
    "eval_Gbar",
]


class DomainError(ValueError):
    """Raised when a field value violates a pointwise domain constraint."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model.

    gamma is the stiffness exponent of the pressure law, p_H the homeostatic
    pressure, p_B the vessel reference pressure, c_B the far-field nutrient
    level, beta the declared lower bound for -dG/dp, and (g0, c1, c2) the
    coefficients of the default reaction family.  n_H = p_H**(1/gamma) is
    always derived, never stored.
    """

    gamma: float
    p_H: float = 1.0
    p_B: float = 2.0
    c_B: float = 1.0
    g0: float = 1.0
    c1: float = 0.1
    c2: float = 0.5
    beta: float | None = None

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma > 1 required, got {self.gamma}")
        for name in ("p_H", "p_B", "c_B", "g0", "c1", "c2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.beta is None:
            # admissible closed-form margin for the default family
            object.__setattr__(self, "beta", self.g0 * self.c1)
        elif not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def n_H(self) -> float:
        return self.p_H ** (1.0 / self.gamma)

    def gamma_floor(self, dim: int) -> float:
        """Minimal admissible gamma when the one-sided Laplacian monitors run."""
        return max(1.0, 2.0 - 4.0 / dim)


@dataclass(frozen=True)
class ReactionSpec:
    """Concrete reaction family: callables plus the necrosis threshold.

    G, H, K take numpy arrays (or floats) and evaluate elementwise.  Gbar is
    the antiderivative of G in p at fixed c, used by the energy monitor; when
    None it is computed by quadrature.  c_star is the user-declared nutrient
    level below which division must be negative at every pressure.
    """

    G: Callable
    H: Callable
    K: Callable
    c_star: float
    family: str = "custom"
    Gbar: Callable | None = None
    params: ModelParams | None = field(default=None, repr=False)


def default_reactions(params: ModelParams, c_star: float = 0.4) -> ReactionSpec:
    """Build the default family G = g0*(p_H - p)*(c + c1) - c2, H = c, K = |1 - p/p_B|_+."""
    g0, c1, c2, p_H, p_B = params.g0, params.c1, params.c2, params.p_H, params.p_B

    def G(p, c):
        return g0 * (p_H - p) * (c + c1) - c2

    def H(c):
        return np.asarray(c, dtype=float) + 0.0

    def K(p):
        return np.maximum(0.0, 1.0 - np.asarray(p, dtype=float) / p_B)

    def Gbar(p, c):
        # int_0^p G(q, c) dq, closed form for the linear g
        p = np.asarray(p, dtype=float)
        return (np.asarray(c) + c1) * g0 * (p_H * p - 0.5 * p * p) - c2 * p

    return ReactionSpec(G=G, H=H, K=K, c_star=c_star, family="default",
                        Gbar=Gbar, params=params)


def pressure_from_density(n, gamma: float) -> np.ndarray:
    """p = n**gamma elementwise; n must be nonnegative.

    Evaluated as exp(gamma*log n) with an explicit zero branch at n = 0.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 0.0):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(n)), n.shape))
        raise DomainError(f"negative density {n[idx]:.3e} at cell {idx}")
    return _pressure(n, gamma)


def _pressure(n: np.ndarray, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """p = exp(gamma * log n), with p = 0 where n = 0, written into out when
    given, which must hold zeros.  n >= 0 is the caller's guarantee:
    pressure_from_density checks it, the solver's density step ensures it."""
    pos = n > 0.0
    p = np.zeros(n.shape) if out is None else out
    np.log(n, out=p, where=pos)
    p *= gamma
    np.exp(p, out=p, where=pos)
    return p


def density_from_pressure(p, gamma: float) -> np.ndarray:
    """n = p**(1/gamma) elementwise; inverse of pressure_from_density."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(p)), p.shape))
        raise DomainError(f"negative pressure {p[idx]:.3e} at cell {idx}")
    pos = p > 0.0
    out = np.zeros_like(p)
    out[pos] = np.exp(np.log(p[pos]) / gamma)
    return out


def eval_Gbar(p, c, spec: ReactionSpec, quad_nodes: int = 33) -> np.ndarray:
    """Antiderivative int_0^p G(q, c) dq; closed form when the family provides it."""
    p, c = np.asarray(p, dtype=float), np.asarray(c, dtype=float)
    if spec.Gbar is not None:
        return spec.Gbar(p, c)
    # composite Simpson in q, vectorized over cells (quad_nodes must be odd)
    m = quad_nodes if quad_nodes % 2 == 1 else quad_nodes + 1
    s = np.linspace(0.0, 1.0, m)
    q = p[..., None] * s  # shape (*cells, m)
    gq = spec.G(q, np.broadcast_to(c[..., None], q.shape))
    w = np.ones(m)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (p / (3.0 * (m - 1))) * np.sum(w * gq, axis=-1)


@dataclass
class ValidationReport:
    """Outcome of sampling-based assumption checks.

    failures lists (name, worst_point, worst_value) triples; passed is True
    iff every inequality held at every sample.  beta_measured is the largest
    admissible monotonicity margin observed on the lattice.
    """

    passed: bool
    failures: list
    beta_measured: float
    lattice: tuple

    def __bool__(self):
        return self.passed


def validate(params: ModelParams, spec: ReactionSpec,
             n_samples: int = 100, tol: float = 1e-12) -> ValidationReport:
    """Check every structural assumption on a dense lattice of [0, p_H] x [0, c_B].

    Never raises on a bad family: all violations are collected in the report,
    each with its worst sample point.  Difference quotients stand in for the
    derivatives of user-supplied callables.
    """
    failures = []
    p = np.linspace(0.0, params.p_H, n_samples)
    c = np.linspace(0.0, params.c_B, n_samples)
    P, C = np.meshgrid(p, c, indexing="ij")
    dp = p[1] - p[0]

    def worst(name, values, points, bound=0.0):
        # record a failure when max(values) exceeds bound + tol
        k = int(np.argmax(values))
        if values.flat[k] > bound + tol:
            failures.append((name, tuple(np.asarray(pt).flat[k] for pt in points),
                             float(values.flat[k])))

    G = spec.G(P, C)
    G_up = spec.G(P + dp, C)
    # dG/dp <= -beta with margin: G(p+dp,c) - G(p,c) <= -beta*dp
    mono = (G_up - G) + params.beta * dp
    worst("dG/dp <= -beta", mono, (P, C))
    beta_measured = float(np.min((G - G_up) / dp))

    dc = c[1] - c[0]
    G_right = spec.G(P, C + dc)
    worst("dG/dc >= 0", G - G_right, (P, C))

    # homeostatic sign condition at and above p_H
    p_hi = np.linspace(params.p_H, max(2.0 * params.p_H, params.p_B), n_samples)
    worst("G(p, c_B) <= 0 for p >= p_H", spec.G(p_hi, np.full_like(p_hi, params.c_B)),
          (p_hi,))

    p_wide = np.linspace(0.0, max(2.0 * params.p_H, params.p_B), 2 * n_samples)
    K = spec.K(p_wide)
    worst("K <= 1", K - 1.0, (p_wide,))
    worst("K >= 0", -K, (p_wide,))
    worst("K(p) = 0 for p >= p_B", np.abs(np.where(p_wide >= params.p_B, K, 0.0)),
          (p_wide,))
    worst("K nonincreasing", np.diff(K), (p_wide[:-1],))

    H = spec.H(c)
    h0 = float(np.abs(spec.H(0.0)))
    if h0 > tol:
        failures.append(("H(0) = 0", (0.0,), h0))
    worst("H >= 0", -H, (c,))
    worst("H nondecreasing", -np.diff(H), (c[:-1],))

    # necrosis: G(p, c) < 0 for every c < c_star and p >= 0
    if not spec.c_star > 0.0:
        failures.append(("c_star > 0", (spec.c_star,), float(spec.c_star)))
    else:
        c_low = np.linspace(0.0, spec.c_star * (1.0 - 1e-9), n_samples)
        Pn, Cn = np.meshgrid(p_wide, c_low, indexing="ij")
        worst("G < 0 for c < c_star", spec.G(Pn, Cn), (Pn, Cn), bound=-tol)

    return ValidationReport(passed=not failures, failures=failures,
                            beta_measured=beta_measured,
                            lattice=(n_samples, n_samples))
