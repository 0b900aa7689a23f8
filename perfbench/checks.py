"""Property checks on the outputs of the benchmark workloads.

Every check derives its reference from first principles (bounds of the model,
closed-form profiles, symmetries of the input) instead of comparing with a
stored copy of earlier output, so a faster program that still solves the same
problem passes, and a wrong one fails.  Each check returns a list of failure
messages; an empty list means it passed.  None of them imports tumorhs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FIELDS = ("n", "p", "c")
ROUNDOFF = 1e-12        # absolute tolerance for O(1) fields "to roundoff"
SUPPORT_EPS = 1e-12     # a cell belongs to the support when n exceeds this


def read_cfg(text: str) -> dict:
    """`[section]` / `key = value` text -> {section: {key: raw string}}."""
    out, section = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = out.setdefault(line[1:-1].strip().lower(), {})
        elif "=" in line and section is not None:
            key, _, value = line.partition("=")
            section[key.strip().lower()] = value.strip()
    return out


def load_fields(run_dir) -> tuple:
    """(times, n, p, c) from a run directory's manifest.json and fields.bin."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    cells = manifest["grid"]["cells"]
    shape = (cells,) * manifest["grid"]["dimension"]
    K = manifest["snapshots"]
    raw = np.fromfile(run_dir / "fields.bin", dtype="<f8")
    if raw.size != K * len(FIELDS) * math.prod(shape):
        raise ValueError(f"{run_dir}: fields.bin holds {raw.size} values, "
                         f"manifest promises {K} snapshots of {shape}")
    blocks = raw.reshape((K, len(FIELDS)) + shape)
    return (np.asarray(manifest["times"], dtype=float),
            blocks[:, 0], blocks[:, 1], blocks[:, 2])


def cell_centers(L: float, cells: int, dim: int) -> tuple:
    """(h, radius of every cell centre) on the box [-L, L]^dim."""
    h = 2.0 * L / cells
    x = -L + (np.arange(cells) + 0.5) * h
    if dim == 1:
        return h, np.abs(x)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return h, np.hypot(X, Y)


# ---------------------------------------------------------------------------
# pointwise bounds and the graph relation
# ---------------------------------------------------------------------------

def check_bounds(n, p, c, gamma: float, p_H: float, c_B: float) -> list:
    """0 <= n <= n_H, 0 <= c <= c_B and p = n^gamma at every snapshot."""
    fails = []
    n_H = p_H ** (1.0 / gamma)
    if not (np.all(np.isfinite(n)) and np.all(np.isfinite(p)) and np.all(np.isfinite(c))):
        return ["non-finite field value"]
    if n.min() < 0.0 or n.max() > n_H + ROUNDOFF:
        fails.append(f"n in [{n.min():.3e}, {n.max():.15f}] leaves [0, n_H={n_H:.15f}]")
    if c.min() < 0.0 or c.max() > c_B + ROUNDOFF:
        fails.append(f"c in [{c.min():.3e}, {c.max():.15f}] leaves [0, c_B={c_B}]")
    err = float(np.max(np.abs(p - np.power(n, gamma)) / np.maximum(1.0, np.abs(p))))
    if err > ROUNDOFF:
        fails.append(f"p differs from n^gamma by {err:.3e}")
    return fails


def graph_residual(n, p) -> float:
    """max over snapshots and cells of p (1 - n)."""
    return float(np.max(p * (1.0 - n)))


def graph_bound(gamma: float, p_H: float, h: float) -> float:
    """max of p(1 - p^(1/gamma)) is gamma^gamma/(gamma+1)^(gamma+1) p_H, plus O(h^2)."""
    return gamma ** gamma / (gamma + 1.0) ** (gamma + 1.0) * p_H + 10.0 * h * h


def check_graph_residual(n, p, gamma: float, p_H: float, h: float) -> list:
    res, bound = graph_residual(n, p), graph_bound(gamma, p_H, h)
    return [] if res < bound else [f"graph residual {res:.6f} >= bound {bound:.6f} at gamma={gamma:g}"]


def decay_exponent(gammas, values) -> float:
    """b in values ~ a * gamma^(-b), by least squares on the logs."""
    x = np.log(np.asarray(gammas, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    return float(-slope)


def check_decay(gammas, values, lo: float = 0.8, hi: float = 1.2) -> list:
    if len(gammas) < 3 or min(values) <= 0.0:
        return [f"decay fit needs 3 positive values, got {list(values)}"]
    b = decay_exponent(gammas, values)
    return [] if lo <= b <= hi else [f"graph-residual decay exponent {b:.4f} outside [{lo}, {hi}]"]


# ---------------------------------------------------------------------------
# 2D: symmetry of a radially symmetric run, support barrier
# ---------------------------------------------------------------------------

def check_symmetry(fields: dict) -> list:
    """Each (K, N, N) field is invariant under the transpose and both reflections."""
    fails = []
    ops = {"transpose": lambda a: np.swapaxes(a, 1, 2),
           "x-reflection": lambda a: a[:, ::-1, :],
           "y-reflection": lambda a: a[:, :, ::-1]}
    for name, arr in fields.items():
        for op, f in ops.items():
            err = float(np.max(np.abs(arr - f(arr))))
            if err > ROUNDOFF:
                fails.append(f"{name} breaks {op} symmetry by {err:.3e}")
    return fails


def barrier_S0(p0, radius, G0: float) -> float:
    """Smallest S0 with Pi(x, 0) = G0 (S0 - |x|^2/2) >= p0(x) on the support of p0.

    Pi(x, t) = G0 |S(t) - |x|^2/2|_+ with S(t) = S0 exp(2 G0 t) is a
    super-solution of the pressure equation while G <= G0 = G(0, c_B), so the
    support stays inside the ball of radius sqrt(2 S(t)).
    """
    mask = p0 > 0.0
    return float(np.max(p0[mask] / G0 + 0.5 * radius[mask] ** 2))


def check_barrier(times, n, p0, radius, G0: float, h: float) -> list:
    """Support radius <= sqrt(2 S0) exp(G0 t) + h at every snapshot."""
    S0 = barrier_S0(p0, radius, G0)
    fails = []
    for t, nk in zip(times, n):
        supp = nk > SUPPORT_EPS
        if not np.any(supp):
            continue
        worst = float(np.max(radius[supp]))
        allowed = math.sqrt(2.0 * S0) * math.exp(G0 * float(t)) + h
        if worst > allowed:
            fails.append(f"support radius {worst:.4f} > barrier {allowed:.4f} at t={t:g}")
    return fails[:3]


# ---------------------------------------------------------------------------
# Barenblatt ladder
# ---------------------------------------------------------------------------

def _barenblatt_constants(m: float, kappa: float, mass: float, t0: float, t: float):
    """(tau, a, k, e, C) of u = tau^(-a) (C - k x^2 tau^(-2a))_+^e."""
    a = 1.0 / (m + 1.0)
    k = a * (m - 1.0) / (2.0 * m)
    e = 1.0 / (m - 1.0)
    beta = math.gamma(0.5) * math.gamma(e + 1.0) / math.gamma(e + 1.5)
    C = (mass * math.sqrt(k) / beta) ** (1.0 / (e + 0.5))
    return kappa * (t + t0), a, k, e, C


def barenblatt_1d(x, t: float, m: float, kappa: float, mass: float, t0: float):
    """Source-type solution of u_t = kappa (u^m)_xx in 1D with the given mass.

    u = tau^(-a) (C - k x^2 tau^(-2a))_+^(1/(m-1)), tau = kappa (t + t0),
    a = 1/(m+1), k = a (m-1)/(2m); C follows from int u dx = mass, which
    equals C^(1/(m-1) + 1/2) k^(-1/2) B(1/2, 1/(m-1) + 1).
    """
    tau, a, k, e, C = _barenblatt_constants(m, kappa, mass, t0, t)
    arg = C - k * np.asarray(x, dtype=float) ** 2 * tau ** (-2.0 * a)
    return tau ** (-a) * np.maximum(arg, 0.0) ** e


def barenblatt_cell_averages(L: float, cells: int, t: float, **prm) -> np.ndarray:
    """Cell averages of the exact profile on [-L, L].

    Each cell is clipped to the support [-R, R] first, so the front's
    (R - |x|)^(1/(m-1)) singularity sits at an end of the quadrature
    interval, where 32-point Gauss-Legendre resolves it.
    """
    tau, a, k, _, C = _barenblatt_constants(t=t, **prm)
    R = math.sqrt(C / k) * tau ** a
    h = 2.0 * L / cells
    lo = np.clip(-L + np.arange(cells) * h, -R, R)
    hi = np.clip(-L + (np.arange(cells) + 1) * h, -R, R)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    return (barenblatt_1d(pts, t, **prm) @ weights) * half / h


def check_ladder(cells, errors, min_order: float = 0.8) -> list:
    """L1 error falls at every refinement, with overall order >= min_order."""
    fails = []
    for i in range(len(errors) - 1):
        if not errors[i + 1] < errors[i]:
            fails.append(f"L1 error rose from N={cells[i]} ({errors[i]:.4e}) "
                         f"to N={cells[i + 1]} ({errors[i + 1]:.4e})")
    order = math.log(errors[0] / errors[-1]) / math.log(cells[-1] / cells[0])
    if not order >= min_order:
        fails.append(f"overall order {order:.3f} < {min_order}")
    return fails


def check_mass_conserved(mass0: float, mass1: float, scale: float) -> list:
    err = abs(mass1 - mass0)
    return [] if err <= ROUNDOFF * max(scale, 1.0) else [f"mass changed by {err:.3e}"]


# ---------------------------------------------------------------------------
# traced runs: mass balance by two independent paths
# ---------------------------------------------------------------------------

def check_mass_balance(source_minus_clip: float, mass_change: float,
                       scale: float, steps: int) -> list:
    """sum dt int n G - clipped (from the step inputs) against mass(T) - mass(0).

    Each step adds a rounding error of a few ulps of the mass; they add up like
    a random walk, so the tolerance grows with the square root of the steps.
    """
    err = abs(source_minus_clip - mass_change)
    tol = 64.0 * np.finfo(float).eps * max(scale, 1.0) * math.sqrt(max(steps, 1))
    return [] if err <= tol else [f"mass balance off by {err:.3e} (tolerance {tol:.1e})"]
