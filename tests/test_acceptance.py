"""Acceptance criteria, one test per criterion, each printing a verdict line.

All sweep-level criteria run against the frozen standard 1D experiment
(configs/standard1d.cfg) cached once per session; the refinement study and the
focusing classifier have their own cached fixtures.  Run with `-s` to see the
verdict lines on passing tests.
"""

import itertools
import math
import time

import numpy as np

from tumorhs import analytic, cli, config as config_mod, limit, monitors

GAMMAS = (10.0, 20.0, 40.0, 80.0)


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def spearman_exact(x, y):
    """Spearman rho plus the exact one-sided permutation p-value for small n."""
    xr = np.argsort(np.argsort(x))
    yr = np.argsort(np.argsort(y))
    n = len(x)

    def rho(a, b):
        d = a - b
        return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))

    observed = rho(xr, yr)
    perms = [rho(np.asarray(p), yr) for p in itertools.permutations(range(n))]
    p_value = sum(1 for r in perms if r >= observed - 1e-12) / len(perms)
    return observed, p_value


# ---------------------------------------------------------------------------

def test_criterion_1_barenblatt_refinement(barenblatt_study):
    details = []
    ok = True
    for gamma, (rows, orders) in sorted(barenblatt_study.items()):
        errs = [r[2] for r in rows]
        runtimes = [r[3] for r in rows]
        decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        order = math.log(errs[0] / errs[-1]) / math.log(rows[-1][0] / rows[0][0])
        ok &= decreasing and order >= 0.8 and max(runtimes) <= 120.0
        details.append(f"g={gamma:g}: order {order:.2f}, "
                       f"max runtime {max(runtimes):.0f}s")
    verdict(1, ok, "; ".join(details))


def test_criterion_2_a_priori_bounds(standard_sweep):
    ok = True
    details = []
    for gamma in GAMMAS:
        traj, rep, setup = standard_sweep[gamma]
        params = setup.params
        bounds_ok = (float(np.min(traj.n)) >= 0.0
                     and float(np.max(traj.n)) <= params.n_H + 1e-8
                     and float(np.min(traj.c)) >= -1e-8
                     and float(np.max(traj.c)) <= params.c_B + 1e-8)
        rel_clip = traj.clipped_mass / rep.series["mass"][0]
        factor = params.p_H ** ((params.gamma - 1.0) / params.gamma)
        l1_ok = bool(np.all(rep.series["l1_p"] <= factor * rep.series["l1_n"] + 1e-12))
        nut_ok = 0.25 * rep.accum["grad_c_l4"] <= \
            4.5 * params.c_B ** 2 * rep.accum["lap_c_l2_sq"]
        ok &= bounds_ok and rel_clip <= 1e-6 and l1_ok and nut_ok
        details.append(f"g={gamma:g}: clip {rel_clip:.1e}")
    verdict(2, ok, "; ".join(details))


def test_criterion_3_uniform_in_gamma_bands(standard_sweep):
    ok = True
    details = []
    for key in ("ab_neg_l3", "grad_p_l4"):
        vals = np.array([standard_sweep[g][1].accum[key] for g in GAMMAS])
        band = float(np.max(vals) / np.min(vals))
        rho, p_val = spearman_exact(np.array(GAMMAS), vals)
        trend_ok = not (rho > 0.0 and p_val < 0.05)
        ok &= band <= 2.0 and trend_ok
        details.append(f"{key}: band {band:.3f}, rho {rho:+.2f} (p {p_val:.3f})")
    verdict(3, ok, "; ".join(details))


def test_criterion_4_complementarity(standard_sweep):
    ok = True
    details = []
    for gamma in GAMMAS:
        rep = standard_sweep[gamma][1]
        lhs_ok = abs(rep.accum["compl_lhs"]) <= rep.accum["compl_lhs_bound"] + 1e-15
        ok &= lhs_ok
    rhs10 = abs(standard_sweep[10.0][1].accum["compl_rhs"])
    rhs80 = abs(standard_sweep[80.0][1].accum["compl_rhs"])
    quartered = rhs80 <= rhs10 / 4.0
    ok &= quartered
    details.append(f"lhs bound holds at every gamma; "
                   f"|rhs(80)|={rhs80:.2e} vs |rhs(10)|/4={rhs10 / 4:.2e}")
    verdict(4, ok, "; ".join(details))


def test_criterion_5_graph_relation(standard_sweep):
    ok = True
    details = []
    for gamma in GAMMAS:
        traj, rep, setup = standard_sweep[gamma]
        bound = monitors.graph_residual_bound(gamma) * setup.params.p_H \
            + 10.0 * setup.grid.h ** 2
        res = rep.accum["graph_residual_max"]
        ok &= res <= bound
        if gamma == 10.0:
            details.append(f"g=10: {res:.6f} <= {bound:.6f}")
    q, se = limit.fit_decay(GAMMAS, [standard_sweep[g][1].accum["graph_residual_max"]
                                     for g in GAMMAS])
    ok &= 0.8 <= q <= 1.2
    details.append(f"decay exponent {q:.3f} +- {se:.3f}")
    verdict(5, ok, "; ".join(details))


def test_criterion_6_heleshaw_reference(standard_sweep):
    dists = {}
    iters_ok = True
    contraction_ok = True
    for gamma in (40.0, 80.0):
        traj, rep, setup = standard_sweep[gamma]
        k = len(traj) // 2
        res = limit.heleshaw_reference(traj.p[k], traj.c[k], setup.spec,
                                       1e-3 * setup.params.p_H, traj.grid)
        diff = (traj.p[k] - res.pressure)[res.mask.mask]
        dists[gamma] = math.sqrt(float(np.sum(diff ** 2)) * traj.grid.cell_volume)
        iters_ok &= res.iterations <= 500
        contraction_ok &= res.contraction < 1.0
    ok = dists[80.0] <= dists[40.0] and iters_ok and contraction_ok
    verdict(6, ok, f"L2(O): g=40 {dists[40.0]:.5f} -> g=80 {dists[80.0]:.5f}; "
                   f"fixed point <= 500 iters, contraction < 1")


def test_criterion_7_support_barrier(standard_sweep, standard_cfg):
    ok = True
    details = []
    for gamma in GAMMAS:
        traj, rep, setup = standard_sweep[gamma]
        prm = config_mod.barrier_params(standard_cfg, setup)
        passed, failures = analytic.barrier_check(traj, prm)
        ok &= passed
        details.append(f"g={gamma:g}: {'inside' if passed else f'{len(failures)} outside'}")
    verdict(7, ok, "; ".join(details))


def test_criterion_8_focusing_optimality(focusing_trace):
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha, want in ((2.0, "convergent"), (3.0, "convergent"),
                        (3.5, "convergent"), (4.0, "convergent"),
                        (4.5, "divergent"), (6.0, "divergent")):
        res = analytic.integrability_exponent(focusing_trace, alpha)
        ok &= res.classification == want
        details.append(f"a={alpha:g}:{res.classification[:4]}")
    tr = focusing_trace
    mid_R = 0.5 * (tr.R[1:] + tr.R[:-1])
    dRdt = np.diff(tr.R) / np.diff(tr.t)
    mask = mid_R <= 1e-2 * tr.R1
    law = tr.R1 ** 2 / (4.0 * mid_R[mask] * np.log(mid_R[mask] / tr.R1))
    ratio = dRdt[mask] / law
    law_ok = bool(np.all(ratio >= 0.9) and np.all(ratio <= 1.1))
    ok &= law_ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    verdict(8, ok, "; ".join(details) + f"; law ratio in [{ratio.min():.3f}, "
            f"{ratio.max():.3f}]; {elapsed:.1f}s")


def test_criterion_9_weighted_ab(standard_sweep):
    vals = np.array([standard_sweep[g][1].accum["weighted_ab_neg_l3"] for g in GAMMAS])
    band = float(np.max(vals) / np.min(vals))
    g = standard_sweep[10.0][2].grid
    w = monitors.build_weight(g)
    gnorm = np.sqrt(sum(gc * gc for gc in w.grad))
    pointwise_ok = bool(np.all(gnorm <= w.values)
                        and np.all(np.abs(w.lap) <= w.C_phi * w.values * (1 + 1e-14)))
    ok = band <= 2.0 and pointwise_ok
    verdict(9, ok, f"weighted band {band:.3f}; C_phi {w.C_phi:.3f}; "
                   f"pointwise bounds hold at every node")


def test_criterion_10_determinism(tmp_path):
    cfg_text = """
[model]
gamma = 12
[grid]
dimension = 1
box_half_width = 2.6
cells = 96
[initial]
builder = plateau
theta = 0.4
radius = 0.6
edge_width = 0.25
[barrier]
radius_slack = 1.3
[time]
horizon = 0.06
snapshot_dt = 2e-3
[monitors]
zeta_center = 0.0
zeta_radius = 0.8
zeta_t_center = 0.03
zeta_t_halfwidth = 0.02
"""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
    a = next((tmp_path / "r1").iterdir()) / "monitors.csv"
    b = next((tmp_path / "r2").iterdir()) / "monitors.csv"
    ok = a.read_bytes() == b.read_bytes()
    verdict(10, ok, "repeated run invocations give bitwise-identical monitor CSVs")


# ---------------------------------------------------------------------------
# sweep-level properties beyond the numbered criteria
# ---------------------------------------------------------------------------

def test_sweep_rhs_monotone_nonincreasing_with_slack(standard_sweep):
    rhs = [abs(standard_sweep[g][1].accum["compl_rhs"]) for g in GAMMAS]
    assert all(rhs[i + 1] <= 1.10 * rhs[i] for i in range(len(rhs) - 1)), rhs


def test_sweep_hessian_dissipation_band(standard_sweep):
    vals = [standard_sweep[g][1].accum["diss_hessian"] for g in GAMMAS]
    assert max(vals) / min(vals) <= 2.0, vals


def test_sweep_pressure_weighted_dissipation_recorded(standard_sweep):
    # the (gamma-1)-weighted dissipation inherits an O(gamma) front artifact
    # from the measure-like discrete Laplacian at the free boundary; it is
    # recorded and must stay finite, but no gamma band is asserted (see the
    # hessian-part band above for the assertable half of the estimate)
    vals = [standard_sweep[g][1].accum["diss_pressure_weighted"] for g in GAMMAS]
    assert all(math.isfinite(v) and v > 0.0 for v in vals)
    print("pressure-weighted dissipation across the sweep:",
          [f"{v:.3f}" for v in vals])


def test_sweep_energy_rise_band(standard_sweep):
    # the energy functional may grow by at most the measured right side of the
    # descent inequality; the accumulated rise stays in a gamma band
    rises = []
    for g in GAMMAS:
        e = standard_sweep[g][1].series["energy"]
        rises.append(float(np.max(e) - e[0]))
    assert all(r >= 0.0 for r in rises)
    assert max(rises) / min(rises) <= 2.0, rises


def test_sweep_laplacian_l1_band(standard_sweep):
    vals = [standard_sweep[g][1].accum["lap_l1"] for g in GAMMAS]
    assert max(vals) / min(vals) <= 2.0, vals


def test_sweep_limit_compare_cauchy(standard_sweep):
    pairs = [(10.0, 20.0), (20.0, 40.0), (40.0, 80.0)]
    l1 = [limit.limit_compare(standard_sweep[a][0], standard_sweep[b][0])["l1_p"]
          for a, b in pairs]
    assert l1[2] < l1[1] < l1[0], l1
