"""Self-test of the output checks: each must pass a good input and fail a
deliberately broken one.

    python3 perfbench/selftest.py

run.py calls run_selftest() before every benchmark run and refuses to report
a result when a check no longer catches its broken input.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from checks import (barenblatt_1d, barenblatt_cell_averages, cell_centers,
                    check_barrier, check_bounds, check_decay, check_graph_residual,
                    check_ladder, check_mass_balance, check_mass_conserved,
                    check_symmetry)

GAMMA, P_H, C_B = 10.0, 1.0, 1.0
L, CELLS = 3.9, 272          # the standard 1D grid


def _fields_1d():
    h, r = cell_centers(L, CELLS, 1)
    n = np.where(r < 1.2, 0.95, 0.0)[None, :].repeat(3, axis=0)
    p = n ** GAMMA
    c = np.full_like(n, 0.9)
    return h, n, p, c


def _fields_2d():
    h, r = cell_centers(L, 64, 2)
    times = np.array([0.0, 0.1, 0.2])
    G0 = 0.6
    n = np.stack([np.where(r < 1.2 * math.exp(0.5 * G0 * t), 0.9, 0.0) for t in times])
    return h, r, times, G0, n, n ** GAMMA, np.full_like(n, 0.8)


def _bb_ladder(shift: float) -> list:
    """L1 errors of exact cell averages against the profile moved by `shift`."""
    prm = {"m": 6.0, "kappa": 5.0 / 6.0, "mass": 1.0, "t0": 0.1}
    errs = []
    for N in (100, 200, 400):
        h, _ = cell_centers(2.0, N, 1)
        exact = barenblatt_cell_averages(2.0, N, 1.0, **prm)
        x = -2.0 + (np.arange(N) + 0.5) * h
        # a first-order scheme's error: the profile sampled at centres, plus `shift`
        approx = barenblatt_1d(x + shift, 1.0, **prm)
        errs.append(float(np.abs(approx - exact).sum() * h))
    return errs


def cases():
    """(name, good-input result, broken-input result) for every check."""
    h, n, p, c = _fields_1d()
    out = []

    n_bad = n.copy()
    n_bad[1, CELLS // 2] = P_H ** (1.0 / GAMMA) + 1e-9          # one cell above n_H
    out.append(("bounds: n > n_H", check_bounds(n, p, c, GAMMA, P_H, C_B),
                check_bounds(n_bad, n_bad ** GAMMA, c, GAMMA, P_H, C_B)))
    c_bad = c.copy()
    c_bad[2, 3] = C_B + 1e-9
    out.append(("bounds: c > c_B", [], check_bounds(n, p, c_bad, GAMMA, P_H, C_B)))
    p_bad = p.copy()
    p_bad[0, CELLS // 2] *= 1.0 + 1e-9
    out.append(("bounds: p != n^gamma", [], check_bounds(n, p_bad, c, GAMMA, P_H, C_B)))

    worst = GAMMA / (GAMMA + 1.0)                      # argmax of n^g (1 - n)
    n_top = np.full((1, CELLS), worst)
    p_over = n_top ** GAMMA
    p_over[0, 5] *= 3.0                                   # one cell off the graph p = n^g
    out.append(("graph residual bound",
                check_graph_residual(n_top, n_top ** GAMMA, GAMMA, P_H, h),
                check_graph_residual(n_top, p_over, GAMMA, P_H, h)))

    gammas = [10.0, 20.0, 40.0]
    out.append(("decay exponent",
                check_decay(gammas, [0.3 / g for g in gammas]),
                check_decay(gammas, [0.3 / g ** 2 for g in gammas])))

    h2, r2, times, G0, n2, p2, c2 = _fields_2d()
    sym_bad = n2.copy()
    sym_bad[1, 10, 20] += 1e-9
    out.append(("symmetry", check_symmetry({"n": n2, "p": p2, "c": c2}),
                check_symmetry({"n": sym_bad})))
    n_out = n2.copy()
    n_out[2, r2.shape[0] // 2, -4] = 0.5                  # a cell far outside the ball
    out.append(("support barrier", check_barrier(times, n2, p2[0], r2, G0, h2),
                check_barrier(times, n_out, p2[0], r2, G0, h2)))

    out.append(("Barenblatt ladder", check_ladder([100, 200, 400], _bb_ladder(0.0)),
                check_ladder([100, 200, 400], _bb_ladder(0.02))))
    out.append(("mass conserved", check_mass_conserved(1.0, 1.0 + 1e-15, 1.0),
                check_mass_conserved(1.0, 1.0 + 1e-9, 1.0)))
    out.append(("mass balance", check_mass_balance(0.25, 0.25 + 1e-13, 2.0, 1000),
                check_mass_balance(0.25, 0.25 + 1e-10, 2.0, 1000)))
    return out


def run_selftest() -> list:
    """Names of checks that failed a good input or passed a broken one."""
    problems = []
    for name, good, bad in cases():
        if good:
            problems.append(f"{name}: rejects a good input ({good[0]})")
        if not bad:
            problems.append(f"{name}: accepts a broken input")
    return problems


if __name__ == "__main__":
    for name, good, bad in cases():
        print(f"{name:24s} good: {'pass' if not good else 'FAIL ' + good[0]}; "
              f"broken: {'caught: ' + bad[0] if bad else 'NOT CAUGHT'}")
    problems = run_selftest()
    print("self-test", "failed: " + "; ".join(problems) if problems else "passed")
    sys.exit(1 if problems else 0)
