"""Closed-form oracles: Barenblatt profiles, the support barrier, and the
radial hole-filling solution with its gradient-integrability classifier.

The Barenblatt family solves du/dt = kappa * Lap(u^m) and is used to verify
the density scheme (with reactions off the solver reduces to exactly this
equation with m = gamma + 1, kappa = gamma/(gamma+1)).  Constants are derived
by substituting the self-similar ansatz into the equation, not copied, and
the tests re-check the residual numerically.

The barrier is the parabolic super-solution Pi(x,t) = G0 * |S(t) - |x|^2/2|_+
with S' = 2*G0*S, G0 = G(0, c_B) > 0: every simulated support must stay inside
the ball of radius sqrt(2 S(t)).

The hole-filling solution lives on a 2D annulus R(t) < r < R1 where the
pressure solves -Lap p = 1 with zero boundary values; the inner radius obeys
dR/dt = -p'(R) and vanishes in finite time, producing the sharpest gradient
singularity the model admits.  The classifier decides whether
int_0^T int |grad p|^alpha stays finite by watching cutoff increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BarenblattParams",
    "barenblatt_density",
    "barenblatt_pressure",
    "barenblatt_support_radius",
    "BarrierParams",
    "barrier_radius",
    "barrier_check",
    "barrier_check_radii",
    "shell_coefficients",
    "shell_pressure",
    "shell_pressure_slope",
    "evolve_hole",
    "FocusingTrace",
    "shell_gradient_integral",
    "integrability_exponent",
    "classify_increments",
    "IntegrabilityResult",
]


# ---------------------------------------------------------------------------
# Barenblatt self-similar solution of du/dt = kappa * Lap(u^m)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarenblattParams:
    """Source-type self-similar profile: exponent m > 1, dimension d, total
    mass, diffusion coefficient kappa, and time offset t0 > 0."""

    m: float
    d: int
    mass: float = 1.0
    kappa: float = 1.0
    t0: float = 1.0

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValueError("m > 1 required")
        if self.d not in (1, 2):
            raise ValueError("d in {1, 2} required")
        if self.mass <= 0 or self.t0 <= 0 or self.kappa <= 0:
            raise ValueError("mass, kappa and t0 must be positive")

    @property
    def alpha(self) -> float:
        return self.d / (self.d * (self.m - 1.0) + 2.0)

    @property
    def beta(self) -> float:
        return self.alpha / self.d

    @property
    def k(self) -> float:
        return self.alpha * (self.m - 1.0) / (2.0 * self.d * self.m)

    @property
    def C(self) -> float:
        """Profile constant fixed by the mass."""
        m, k, M = self.m, self.k, self.mass
        if self.d == 1:
            e = 1.0 / (m - 1.0)
            J = math.sqrt(math.pi) * math.gamma(e + 1.0) / math.gamma(e + 1.5)
            return (M * math.sqrt(k) / J) ** (2.0 * (m - 1.0) / (m + 1.0))
        # d == 2
        return (M * k * m / (math.pi * (m - 1.0))) ** ((m - 1.0) / m)


def _tau(t, prm: BarenblattParams) -> float:
    """Rescaled self-similar time; kappa enters the equation only through it."""
    tau = prm.kappa * (t + prm.t0)
    if tau <= 0.0:
        raise ValueError("t + t0 must be positive")
    return tau


def barenblatt_density(x, t, prm: BarenblattParams) -> np.ndarray:
    """u(x, t) for du/dt = kappa*Lap(u^m); x is |x| (array) or coordinate array in 1D."""
    x = np.asarray(x, dtype=float)
    tau = _tau(t, prm)
    arg = prm.C - prm.k * x * x * tau ** (-2.0 * prm.beta)
    core = np.maximum(arg, 0.0) ** (1.0 / (prm.m - 1.0))
    return tau ** (-prm.alpha) * core


def barenblatt_pressure(x, t, prm: BarenblattParams) -> np.ndarray:
    """p = u^(m-1): a truncated parabola in x (constant curvature on the support)."""
    x = np.asarray(x, dtype=float)
    tau = _tau(t, prm)
    arg = prm.C - prm.k * x * x * tau ** (-2.0 * prm.beta)
    return tau ** (-prm.alpha * (prm.m - 1.0)) * np.maximum(arg, 0.0)


def barenblatt_support_radius(t, prm: BarenblattParams) -> float:
    tau = _tau(t, prm)
    return math.sqrt(prm.C / prm.k) * tau ** prm.beta


# ---------------------------------------------------------------------------
# support barrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarrierParams:
    """S(t) = S0 * exp(rate * t) with rate = 2*G(0, c_B); requires G(0, c_B) > 0
    and the initial support inside the ball of radius sqrt(2*S0)."""

    S0: float
    rate: float

    def __post_init__(self):
        if self.S0 <= 0:
            raise ValueError("S0 must be positive")
        if self.rate <= 0:
            raise ValueError("barrier requires G(0, c_B) > 0")

    @classmethod
    def for_run(cls, S0: float, spec) -> "BarrierParams":
        G0 = float(spec.G(0.0, spec.params.c_B))
        return cls(S0=S0, rate=2.0 * G0)


def barrier_radius(t, prm: BarrierParams) -> float:
    return math.sqrt(2.0 * prm.S0 * math.exp(prm.rate * float(t)))


def barrier_check(trajectory, prm: BarrierParams,
                  support_threshold: float = 1e-12):
    """Per-snapshot containment of {n > threshold} in the barrier ball.

    Returns (all_pass, failures) where failures lists
    (snapshot index, time, worst radius, barrier radius).
    """
    r = trajectory.grid.radius
    radii = [float(np.max(np.where(nk > support_threshold, r, 0.0)))
             for nk in trajectory.n]
    return barrier_check_radii(trajectory.times, radii, prm)


def barrier_check_radii(times, support_radius, prm: BarrierParams):
    """barrier_check from the support radius of each snapshot, the largest
    cell-centre radius of its support (0 for an empty support, which no
    barrier radius is below), as the monitors' support_radius series holds
    it."""
    failures = []
    for k, (t, worst) in enumerate(zip(times, support_radius)):
        rad = barrier_radius(t, prm)
        if worst > rad:
            failures.append((k, float(t), float(worst), rad))
    return (not failures, failures)


# ---------------------------------------------------------------------------
# hole filling on the 2D annulus
# ---------------------------------------------------------------------------

def shell_coefficients(R: float, R1: float) -> tuple:
    """Exact (a, b) for p = -r^2/4 + a ln r + b vanishing at r = R and r = R1."""
    if not 0.0 < R < R1:
        raise ValueError(f"need 0 < R < R1, got R={R}, R1={R1}")
    a = (R1 * R1 - R * R) / (4.0 * math.log(R1 / R))
    b = R1 * R1 / 4.0 - a * math.log(R1)
    return a, b


def shell_pressure(r, a: float, b: float):
    r = np.asarray(r, dtype=float)
    return -r * r / 4.0 + a * np.log(r) + b


def shell_pressure_slope(r, a: float):
    r = np.asarray(r, dtype=float)
    return -r / 2.0 + a / r


@dataclass
class FocusingTrace:
    """Time series of the filling hole: times, inner radii, shell coefficients,
    the outer radius, and the extrapolated extinction time."""

    t: np.ndarray
    R: np.ndarray
    a: np.ndarray
    b: np.ndarray
    R1: float
    t_ext: float

    def to_csv(self, path) -> None:
        np.savetxt(path, np.column_stack([self.t, self.R, self.a, self.b]),
                   delimiter=",", header="t,R,a,b", comments="", fmt="%.17g")


def _hole_speed(R: float, R1: float) -> float:
    """dR/dt = -p'(R) = R/2 - a(R)/R; strictly negative on 0 < R < R1."""
    a, _ = shell_coefficients(R, R1)
    return 0.5 * R - a / R


def evolve_hole(R0: float, R1: float, max_dr_frac: float = 0.02,
                R_stop_frac: float = 1e-8) -> FocusingTrace:
    """Integrate the inner-radius law dR/dt = -p'(R) until R <= R_stop.

    Steps are RK4 with |dR| held near max_dr_frac * R, so the resolution is
    geometric all the way into the singularity.  The extinction time comes
    from linear extrapolation of R^2 versus t over the final step, which is
    exact up to logarithmic factors.
    """
    if not 0.0 < R0 < R1:
        raise ValueError("need 0 < R0 < R1")
    R_stop = R_stop_frac * R1
    ts, Rs = [0.0], [R0]
    t, R = 0.0, R0
    while R > R_stop:
        speed = _hole_speed(R, R1)
        if speed >= 0.0:
            raise RuntimeError(f"hole radius failed to decrease at R={R}")
        dt = max_dr_frac * R / abs(speed)
        k1 = _hole_speed(R, R1)
        k2 = _hole_speed(max(R + 0.5 * dt * k1, 0.5 * R_stop), R1)
        k3 = _hole_speed(max(R + 0.5 * dt * k2, 0.5 * R_stop), R1)
        k4 = _hole_speed(max(R + dt * k3, 0.5 * R_stop), R1)
        R_new = R + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not R_new < R:
            raise RuntimeError(f"nonmonotone hole radius at R={R}")
        t += dt
        R = max(R_new, 0.5 * R_stop)
        ts.append(t)
        Rs.append(R)
    ts = np.asarray(ts)
    Rs = np.asarray(Rs)
    ab = np.array([shell_coefficients(R, R1) for R in Rs])
    # R^2 is locally linear in t near extinction (up to log factors)
    slope = (Rs[-1] ** 2 - Rs[-2] ** 2) / (ts[-1] - ts[-2])
    t_ext = ts[-1] - Rs[-1] ** 2 / slope
    return FocusingTrace(t=ts, R=Rs, a=ab[:, 0], b=ab[:, 1], R1=R1, t_ext=t_ext)


# ---------------------------------------------------------------------------
# gradient integrability across the extinction time
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gauss_panels(edges: np.ndarray) -> tuple:
    """Gauss-Legendre nodes/weights for a sequence of panels given by edges."""
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    return nodes.ravel(), weights.ravel()


def shell_gradient_integral(R: float, R1: float, alpha: float) -> float:
    """S(R; alpha) = int_R^R1 |p'(r)|^alpha r dr with graded panels.

    The integrand spikes like r^(1-alpha) at the inner radius and has a
    |r - r*|^alpha kink where p' changes sign, so panels refine geometrically
    toward both points.
    """
    if alpha < 1.0:
        raise ValueError("alpha >= 1 required")
    a, _ = shell_coefficients(R, R1)
    r_star = math.sqrt(2.0 * a)
    # geometric edges from R up to the kink
    inner = [R]
    while inner[-1] * 2.0 < r_star:
        inner.append(inner[-1] * 2.0)
    inner.append(r_star)
    # edges refining toward the kink from the outer side
    n_out = 12
    fracs = 2.0 ** (-np.arange(n_out, -1, -1, dtype=float))
    outer = r_star + (R1 - r_star) * np.concatenate(([0.0], fracs))
    edges = np.concatenate([np.asarray(inner), outer[1:]])
    nodes, weights = _gauss_panels(edges)
    vals = np.abs(shell_pressure_slope(nodes, a)) ** alpha * nodes
    return float(np.sum(weights * vals))


@dataclass
class IntegrabilityResult:
    alpha: float
    classification: str  # "convergent" | "divergent" | "inconclusive"
    eps: np.ndarray
    increments: np.ndarray
    totals: np.ndarray


def classify_increments(increments, last_k: int = 8) -> str:
    """Convergent if the tail increments decrease monotonically, divergent if
    they increase monotonically, inconclusive otherwise.

    Monotone decrease (rather than a geometric-ratio test) is deliberate: at
    the critical exponent the increments decay only logarithmically.
    """
    inc = np.asarray(increments, dtype=float)
    if len(inc) < 3:
        return "inconclusive"
    tail = inc[-min(last_k, len(inc)):]
    ratios = tail[1:] / tail[:-1]
    if np.all(ratios < 1.0):
        return "convergent"
    if np.all(ratios > 1.0):
        return "divergent"
    return "inconclusive"


def integrability_exponent(trace: FocusingTrace, alpha: float,
                           eps0: float | None = None,
                           eps_floor_frac: float = 1e-12,
                           last_k: int = 8) -> IntegrabilityResult:
    """Classify int_0^{T-eps} int_{R(t)}^{R1} |p'|^alpha r dr dt as eps -> 0.

    The cutoff schedule is geometric, eps_j = eps0 * 2^-j, stopped when the
    window would leave the traced time range.  Window integrals are computed
    in the radius variable using dt = dR / |dR/dt| with Gauss panels in log R,
    so late (tiny) windows lose no relative accuracy.
    """
    T = trace.t_ext
    if eps0 is None:
        eps0 = 0.5 * T
    tail_gap = max(T - trace.t[-1], 1e-300)
    eps_min = max(4.0 * tail_gap, eps_floor_frac * T)

    eps = [eps0]
    while eps[-1] * 0.5 >= eps_min:
        eps.append(eps[-1] * 0.5)
    eps = np.asarray(eps)
    if len(eps) < 4:
        raise ValueError("trace too short for a cutoff schedule")

    # map cutoff times to inner radii through the trace
    t_targets = T - eps
    R_at = np.interp(t_targets, trace.t, trace.R)

    def window_integral(R_hi: float, R_lo: float) -> float:
        # int_{t(R_hi)}^{t(R_lo)} S dt = int_{R_lo}^{R_hi} S(R)/|R'(R)| dR
        u = np.linspace(math.log(R_lo), math.log(R_hi), 9)
        nodes, weights = _gauss_panels(u)
        total = 0.0
        for un, w in zip(nodes, weights):
            R = math.exp(un)
            S = shell_gradient_integral(R, trace.R1, alpha)
            total += w * S * R / abs(_hole_speed(R, trace.R1))
        return total

    increments = np.array([window_integral(R_at[j], R_at[j + 1])
                           for j in range(len(eps) - 1)])
    totals = np.cumsum(increments)
    cls = classify_increments(increments, last_k=last_k)
    return IntegrabilityResult(alpha=alpha, classification=cls, eps=eps,
                               increments=increments, totals=totals)
