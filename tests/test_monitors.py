"""Estimate monitors on synthetic trajectories with closed-form oracles."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from tumorhs import grid, model, monitors, solver
from tumorhs.grid import DIRICHLET_ZERO, Grid, TestFunction, laplacian_array
from tumorhs.monitors import (ab_field, build_weight, compute_report, energy,
                              graph_residual)
from tumorhs.solver import State, Trajectory


def synthetic_traj(g, params, p_fields, c_fields=None, times=None):
    """Trajectory from prescribed pressure snapshots (n via the power law)."""
    K = len(p_fields)
    times = np.linspace(0.0, 1.0, K) if times is None else np.asarray(times)
    p = np.stack([np.asarray(f, dtype=float) for f in p_fields])
    n = np.stack([model.density_from_pressure(f, params.gamma) for f in p])
    if c_fields is None:
        c = np.full_like(p, params.c_B)
    else:
        c = np.stack([np.asarray(f, dtype=float) for f in c_fields])
    return Trajectory(grid=g, params=params, times=times, n=n, p=p, c=c,
                      snap_dts=np.zeros(K), dts=np.zeros(0), clipped_mass=0.0)


def time_slice(traj, a, b):
    """traj cut to the snapshots a..b (b included, clipped to the last one):
    its report accumulates over the intervals a..b-1 of traj."""
    k = slice(a, b + 1)
    return dataclasses.replace(traj, times=traj.times[k], n=traj.n[k], p=traj.p[k],
                               c=traj.c[k], snap_dts=traj.snap_dts[k])


@pytest.fixture
def g1():
    return Grid.symmetric(1, 2.0, 400)


@pytest.fixture
def params():
    return model.ModelParams(gamma=10.0)


@pytest.fixture
def spec(params):
    return model.default_reactions(params)


# ---------------------------------------------------------------------------
# ab_field
# ---------------------------------------------------------------------------

def test_ab_field_constant_plateau(g1, params, spec):
    # flat pressure in the interior: w = G(p0, c) there
    p = np.where(np.abs(g1.coords[0]) < 1.0, 0.25, 0.25)  # globally constant
    state = State(g1, 0.0, model.density_from_pressure(p, params.gamma), p,
                  np.full(g1.shape, 0.8))
    w = ab_field(state, spec)
    expected = float(spec.G(0.25, 0.8))
    assert np.allclose(w[5:-5], expected, atol=1e-9)


def test_ab_field_parabola_interior(g1, params, spec):
    x = g1.coords[0]
    p = np.maximum(1.0 - x * x, 0.0)
    zero = solver.reactions_off(params)
    state = State(g1, 0.0, model.density_from_pressure(p, params.gamma), p,
                  np.full(g1.shape, params.c_B))
    w = ab_field(state, zero)
    interior = np.abs(x) < 0.8
    assert np.allclose(w[interior], -2.0, atol=1e-8)


def test_ab_field_barenblatt_pressure_constant_inside(params):
    from tumorhs.analytic import BarenblattParams, barenblatt_pressure
    g = Grid.symmetric(1, 2.0, 400)
    prm = BarenblattParams(m=params.gamma + 1.0, d=1, mass=1.0,
                           kappa=params.gamma / (params.gamma + 1.0), t0=0.5)
    p = barenblatt_pressure(g.radius, 0.0, prm)
    zero = solver.reactions_off(params)
    state = State(g, 0.0, model.density_from_pressure(p, params.gamma), p,
                  np.full(g.shape, params.c_B))
    w = ab_field(state, zero)
    inside = g.radius < 0.8 * np.sqrt(prm.C / prm.k) * (prm.kappa * prm.t0) ** prm.beta
    assert np.std(w[inside]) <= 1e-8 * max(1.0, float(np.max(np.abs(w[inside]))))


# ---------------------------------------------------------------------------
# accumulators on degenerate trajectories
# ---------------------------------------------------------------------------

def test_zero_pressure_trajectory_reduces_to_reaction_quadrature(g1, params, spec):
    # with p = 0, w = G(0, c); pick c dipping below the necrosis threshold
    x = g1.coords[0]
    c = params.c_B * (1.0 - 0.8 * np.exp(-4.0 * x * x))
    traj = synthetic_traj(g1, params, [np.zeros(g1.shape)] * 3, [c] * 3)
    accum = compute_report(traj, spec).accum
    gneg = np.maximum(-np.asarray(spec.G(np.zeros(g1.shape), c)), 0.0)
    direct = float(np.sum(gneg ** 3)) * g1.cell_volume * 1.0   # unit time span
    assert accum["ab_neg_l3"] == pytest.approx(direct, rel=1e-13)
    assert accum["lap_l1"] == 0.0
    assert accum["grad_p_l4"] == 0.0
    assert (accum["diss_pressure_weighted"], accum["diss_hessian"]) == (0.0, 0.0)


def test_zero_pressure_complementarity_pair_vanishes(g1, params, spec):
    traj = synthetic_traj(g1, params, [np.zeros(g1.shape)] * 4)
    zeta = TestFunction(center=(0.0,), radius=1.0, t_center=0.5, t_halfwidth=0.3)
    accum = compute_report(traj, spec, zeta=zeta).accum
    assert accum["compl_lhs"] == 0.0 and accum["compl_rhs"] == 0.0


def test_frozen_parabola_grad_p_l4_exact_value(params, spec):
    # static p = |1 - x^2|_+ over unit time: int int |grad p|^4 = 32/5
    g = Grid.symmetric(1, 2.0, 800)
    x = g.coords[0]
    p = np.maximum(1.0 - x * x, 0.0)
    traj = synthetic_traj(g, params, [p] * 5)
    val = compute_report(traj, spec).accum["grad_p_l4"]
    assert val == pytest.approx(6.4, rel=2e-2)   # kink cells contribute O(h)


def test_box_doubling_leaves_laplacian_part_unchanged(params):
    # the |lap p|_- mass lives on supp p: padding the box with zeros adds none
    vals = {}
    for L, n in ((2.0, 200), (4.0, 400)):   # same h, doubled box
        g = Grid.symmetric(1, L, n)
        x = g.coords[0]
        p = np.maximum(1.0 - x * x, 0.0) ** 2
        lap = laplacian_array(p, g.h, DIRICHLET_ZERO)
        mask = p > 0.0
        vals[L] = float(np.sum(np.maximum(-lap[mask], 0.0) ** 3)) * g.cell_volume
    assert vals[2.0] == pytest.approx(vals[4.0], rel=1e-12)


def test_amplitude_homogeneity(g1, params, spec):
    # synthetic fields: grad_p_l4 scales as lambda^4, the Laplacian part of w
    # as lambda
    x = g1.coords[0]
    p = np.maximum(1.0 - x * x, 0.0) ** 2
    lam = 3.0
    t_a = synthetic_traj(g1, params, [p] * 3)
    t_b = synthetic_traj(g1, params, [lam * p] * 3)
    l4_a = compute_report(t_a, spec).accum["grad_p_l4"]
    l4_b = compute_report(t_b, spec).accum["grad_p_l4"]
    assert l4_b == pytest.approx(lam ** 4 * l4_a, rel=1e-12)
    lap_a = laplacian_array(t_a.p[0], g1.h, DIRICHLET_ZERO)
    lap_b = laplacian_array(t_b.p[0], g1.h, DIRICHLET_ZERO)
    # roundoff in the stencil is amplified by 1/h^2
    assert np.allclose(lap_b, lam * lap_a, rtol=1e-12, atol=10 * np.finfo(float).eps / g1.h ** 2)


# ---------------------------------------------------------------------------
# chain inequalities and additivity (exact quadrature statements)
# ---------------------------------------------------------------------------

def run_small(gamma=15.0):
    params = model.ModelParams(gamma=gamma)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 2.0, 96)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    setup = solver.RunSetup(grid=g, params=params, spec=spec, n0=n0,
                            c0=solver.nutrient_uniform(g, params), T=0.1,
                            snapshot_dt=0.005)
    return solver.run(setup), spec


# the accumulators that are plain left-endpoint sums (no factor applied after)
SUMMED = ("grad_c_l4", "lap_c_l2_sq", "dt_c_l2_sq", "dt_n_l1", "dt_p_l1", "dt_c_l1",
          "ab_neg_l3", "lap_l1", "grad_p_l4", "diss_hessian", "weighted_ab_neg_l3")


def test_accumulators_additive_over_time_partition():
    traj, spec = run_small()
    weight = build_weight(traj.grid)
    K = len(traj)
    mid = K // 2
    whole = compute_report(traj, spec, weight=weight).accum
    first = compute_report(time_slice(traj, 0, mid), spec, weight=weight).accum
    second = compute_report(time_slice(traj, mid, K), spec, weight=weight).accum
    for name in SUMMED:
        assert whole[name] == pytest.approx(first[name] + second[name], rel=1e-13), name
    # over the partition into single intervals the additivity is exact: the
    # run's accumulator adds up the one-interval accumulators in time order
    totals = dict.fromkeys(SUMMED, 0.0)
    for k in range(K - 1):
        piece = compute_report(time_slice(traj, k, k + 1), spec, weight=weight).accum
        for name in SUMMED:
            totals[name] += piece[name]
    assert_same_bits(totals, {name: whole[name] for name in SUMMED})


def test_positive_part_chain_inequality():
    traj, spec = run_small()
    g = traj.grid
    hd = g.cell_volume
    dts = np.diff(traj.times)
    w_pos = w_neg = w_int = lap_abs = w_abs = g_abs = 0.0
    for k, dt in enumerate(dts):
        w = ab_field(traj.state(k), spec)
        lap = laplacian_array(traj.p[k], g.h, DIRICHLET_ZERO)
        gv = np.asarray(spec.G(traj.p[k], traj.c[k]))
        w_pos += float(np.sum(np.maximum(w, 0.0))) * hd * dt
        w_neg += float(np.sum(np.maximum(-w, 0.0))) * hd * dt
        w_int += float(np.sum(w)) * hd * dt
        w_abs += float(np.sum(np.abs(w))) * hd * dt
        lap_abs += float(np.sum(np.abs(lap))) * hd * dt
        g_abs += float(np.sum(np.abs(gv))) * hd * dt
    # |w|_+ = w + |w|_-, so the quadrature inequality is exact
    assert w_pos <= abs(w_int) + w_neg + 1e-12
    # lap p = w - G: triangle inequality in quadrature
    assert lap_abs <= w_abs + g_abs + 1e-12


# ---------------------------------------------------------------------------
# graph residual
# ---------------------------------------------------------------------------

def test_graph_residual_saturated_region_contributes_zero():
    params = model.ModelParams(gamma=10.0)
    g = Grid.symmetric(1, 1.0, 64)
    n = np.ones(g.shape)
    p = np.full(g.shape, 0.7)
    state = State(g, 0.0, n, p, np.full(g.shape, 1.0))
    assert graph_residual(state) == 0.0


def test_graph_residual_worst_case_matches_closed_form(params):
    g = Grid.symmetric(1, 1.0, 20000)
    n = np.linspace(0.0, 1.0, g.n)   # dense scan of densities
    p = model.pressure_from_density(n, params.gamma)
    state = State(g, 0.0, n, p, np.ones(g.shape))
    closed = params.gamma ** params.gamma / (params.gamma + 1.0) ** (params.gamma + 1.0)
    assert graph_residual(state) == pytest.approx(closed, rel=1e-7)
    assert closed == pytest.approx(0.0350494, abs=5e-8)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_pressure_is_zero(g1, params, spec):
    state = State(g1, 0.0, np.zeros(g1.shape), np.zeros(g1.shape),
                  np.full(g1.shape, params.c_B))
    assert energy(state, spec) == 0.0


def test_graph_residual_bound_finite_at_large_gamma():
    # gamma^gamma overflows a float above gamma ~ 143; the bound must not
    for gamma in (160.0, 320.0):
        bound = monitors.graph_residual_bound(gamma)
        assert math.isfinite(bound) and bound > 0.0
        assert bound == pytest.approx(math.exp(-gamma * math.log1p(1.0 / gamma))
                                      / (gamma + 1.0), rel=1e-12)


def test_graph_residual_bound_matches_closed_form():
    for gamma in range(10, 81):
        exact = Fraction(gamma) ** gamma / Fraction(gamma + 1) ** (gamma + 1)
        bound = monitors.graph_residual_bound(float(gamma))
        assert abs(Fraction(bound) - exact) <= Fraction(1, 10 ** 14) * exact, gamma
    for gamma in (10.0, 20.0, 40.0, 80.0, 12.5):
        closed = gamma ** gamma / (gamma + 1.0) ** (gamma + 1.0)
        assert monitors.graph_residual_bound(gamma) == pytest.approx(closed, rel=1e-14)


def test_energy_closed_form_single_cell_value(params, spec):
    # p = 1, c = 1, zero gradient: density -Gbar = -(1.1*0.5 - 0.5) = -0.05
    g = Grid(dim=1, lo=0.0, hi=1.0, n=16)
    state = State(g, 0.0, np.ones(g.shape), np.ones(g.shape), np.ones(g.shape))
    # remove the boundary-gradient contribution by measuring the Gbar part only
    gbar = model.eval_Gbar(1.0, 1.0, spec)
    assert -gbar == pytest.approx(-0.05, rel=1e-12)
    interior_energy = energy(state, spec)
    # the Dirichlet ghosts see the box walls, so only the Gbar part is exact
    assert interior_energy <= 0.0 or interior_energy > -1.0


# ---------------------------------------------------------------------------
# weight function
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,n", [(1, 128), (2, 48)])
def test_weight_pointwise_bounds_every_node(dim, n):
    g = Grid.symmetric(dim, 2.0, n)
    w = build_weight(g)
    gnorm = np.sqrt(sum(gc * gc for gc in w.grad))
    assert np.all(gnorm <= w.values)
    assert np.all(np.abs(w.lap) <= w.C_phi * w.values * (1.0 + 1e-14))
    assert w.C_phi <= g.dim + 1.0


def test_weight_gradient_matches_finite_difference():
    g = Grid.symmetric(1, 2.0, 256)
    w = build_weight(g)
    fd = np.gradient(w.values, g.h)
    assert np.max(np.abs(fd - w.grad[0])[3:-3]) <= 5e-4


def test_weight_violation_reports_cell():
    g = Grid.symmetric(1, 1.0, 32)
    w = build_weight(g)
    bad = monitors.WeightFunction(grid=g, values=w.values,
                                  grad=(w.grad[0] + 1.0,), lap=w.lap,
                                  C_phi=w.C_phi)
    with pytest.raises(ValueError, match="cell"):
        bad.verify()


def test_weighted_ab_bounded_by_weight_maximum(g1, params, spec):
    x = g1.coords[0]
    c = params.c_B * (1.0 - 0.8 * np.exp(-4.0 * x * x))
    traj = synthetic_traj(g1, params, [np.zeros(g1.shape)] * 3, [c] * 3)
    w = build_weight(g1)
    accum = compute_report(traj, spec, weight=w).accum
    weighted, unweighted = accum["weighted_ab_neg_l3"], accum["ab_neg_l3"]
    assert weighted <= float(np.max(w.values)) * unweighted + 1e-15
    # p = 0: the weighted accumulator is the direct weighted quadrature of G
    gneg = np.maximum(-np.asarray(spec.G(np.zeros(g1.shape), c)), 0.0)
    direct = float(np.sum(gneg ** 3 * w.values)) * g1.cell_volume
    assert weighted == pytest.approx(direct, rel=1e-13)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def test_direct_estimates_quiescent_trajectory(g1, params, spec):
    traj = synthetic_traj(g1, params, [np.zeros(g1.shape)] * 3)
    rep = compute_report(traj, spec)
    for key in ("l1_c_dev", "l2_grad_c"):
        assert np.all(rep.series[key] == 0.0)
    for key in ("grad_c_l4", "lap_c_l2_sq", "dt_c_l2_sq", "dt_c_l1"):
        assert rep.accum[key] == 0.0


def test_pressure_l1_bound_and_nutrient_inequality_on_run():
    traj, spec = run_small()
    params = traj.params
    rep = monitors.compute_report(traj, spec)
    bound = params.p_H ** ((params.gamma - 1.0) / params.gamma)
    assert np.all(rep.series["l1_p"] <= bound * rep.series["l1_n"] + 1e-12)
    assert 0.25 * rep.accum["grad_c_l4"] <= 4.5 * params.c_B ** 2 \
        * rep.accum["lap_c_l2_sq"] + 1e-15


def test_complementarity_lhs_bound_holds_on_run():
    traj, spec = run_small()
    zeta = TestFunction(center=(0.0,), radius=1.0, t_center=0.05, t_halfwidth=0.03)
    accum = compute_report(traj, spec, zeta=zeta).accum
    lhs, rhs = accum["compl_lhs"], accum["compl_rhs"]
    assert abs(lhs) <= accum["compl_lhs_bound"] + 1e-15
    assert accum["compl_defect"] == pytest.approx(abs(lhs - rhs), rel=1e-12)


def test_report_accumulators_nondecreasing_in_horizon():
    traj, spec = run_small()
    reports = [compute_report(time_slice(traj, 0, k), spec) for k in range(1, len(traj))]
    for name in ("ab_neg_l3", "grad_p_l4", "lap_l1"):
        vals = [rep.accum[name] for rep in reports]
        assert all(vals[i + 1] >= vals[i] - 1e-15 for i in range(len(vals) - 1))


def test_compute_report_has_all_accumulators():
    traj, spec = run_small()
    zeta = TestFunction(center=(0.0,), radius=1.0, t_center=0.05, t_halfwidth=0.03)
    rep = monitors.compute_report(traj, spec, zeta=zeta,
                                  weight=build_weight(traj.grid))
    for key in ("ab_neg_l3", "lap_l1", "grad_p_l4", "diss_pressure_weighted",
                "diss_hessian", "grad_c_l4", "lap_c_l2_sq", "dt_n_l1", "dt_p_l1",
                "dt_c_l1", "dt_c_l2_sq", "compl_lhs", "compl_rhs", "compl_defect",
                "compl_lhs_bound", "weighted_ab_neg_l3", "graph_residual_max"):
        assert key in rep.accum, key
    assert all(len(v) == len(traj) for v in rep.series.values())


# ---------------------------------------------------------------------------
# the blocked pass against a per-snapshot reference loop
# ---------------------------------------------------------------------------

def reference_report(traj, spec, zeta=None, weight=None, k0=0, k1=None):
    """compute_report one snapshot at a time, from the single-state
    functionals and the grid stencils: (series, accum, meta)."""
    g = traj.grid
    hd = g.cell_volume
    K = len(traj)
    bc_c = grid.dirichlet(traj.params.c_B)
    series = {name: np.zeros(K) for name in monitors.SERIES_COLUMNS}
    series["t"] = traj.times.copy()
    series["dt"] = traj.snap_dts.copy()
    for k in range(K):
        n, p, c = traj.n[k], traj.p[k], traj.c[k]
        state = traj.state(k)
        series["mass"][k] = float(np.sum(n)) * hd
        series["linf_n"][k] = float(np.max(n))
        series["l1_n"][k] = float(np.sum(np.abs(n))) * hd
        series["linf_p"][k] = float(np.max(p))
        series["l1_p"][k] = float(np.sum(np.abs(p))) * hd
        series["l1_c_dev"][k] = float(np.sum(np.abs(c - traj.params.c_B))) * hd
        gc = grid.gradient_array(c, g.h, bc_c)
        series["l2_grad_c"][k] = math.sqrt(float(np.sum(sum(x * x for x in gc))) * hd)
        gp = grid.gradient_array(p, g.h, DIRICHLET_ZERO)
        series["l2_grad_p"][k] = math.sqrt(float(np.sum(sum(x * x for x in gp))) * hd)
        series["energy"][k] = energy(state, spec)
        series["graph_residual"][k] = graph_residual(state)
        supp = n > 1e-12
        series["support_radius"][k] = float(np.max(g.radius[supp])) if np.any(supp) else 0.0
        series["w_min"][k] = float(np.min(ab_field(state, spec)))

    names = ["grad_c_l4", "lap_c_l2_sq", "dt_c_l2_sq", "dt_n_l1", "dt_p_l1", "dt_c_l1",
             "ab_neg_l3", "lap_l1", "grad_p_l4", "diss_w", "diss_h",
             "weighted_ab_neg_l3", "compl_lhs", "compl_rhs", "p_l1", "gp_l2"]
    acc = dict.fromkeys(names, 0.0)
    dts = np.diff(traj.times)
    for k in range(k0, min(K if k1 is None else k1, K - 1)):
        dt = float(dts[k])
        n, p, c = traj.n[k], traj.p[k], traj.c[k]
        state = traj.state(k)

        def add(name, integrand):
            acc[name] += float(np.sum(integrand)) * hd * dt

        gc = grid.gradient_array(c, g.h, bc_c)
        gcsq = sum(x * x for x in gc)
        add("grad_c_l4", gcsq * gcsq)
        lap_c = grid.laplacian_array(c, g.h, bc_c)
        add("lap_c_l2_sq", lap_c * lap_c)
        dn = (traj.n[k + 1] - n) / dt
        dp = (traj.p[k + 1] - p) / dt
        dc = (traj.c[k + 1] - c) / dt
        add("dt_n_l1", np.abs(dn))
        add("dt_p_l1", np.abs(dp))
        add("dt_c_l1", np.abs(dc))
        add("dt_c_l2_sq", dc * dc)
        w = ab_field(state, spec)
        add("ab_neg_l3", np.maximum(-w, 0.0) ** 3)
        add("lap_l1", np.abs(laplacian_array(p, g.h, DIRICHLET_ZERO)))
        grads = grid.gradient_array(p, g.h, DIRICHLET_ZERO)
        gsq = sum(x * x for x in grads)
        add("grad_p_l4", gsq * gsq)
        add("diss_w", p * w * w)
        hess = 0.0
        for i in range(g.dim):
            for j in range(g.dim):
                d2 = grid.second_diff_array(p, i, j, g.h, DIRICHLET_ZERO)
                hess += d2 * d2
        add("diss_h", p * hess)
        if weight is not None:
            add("weighted_ab_neg_l3", np.maximum(-w, 0.0) ** 3 * weight.values)
        if zeta is not None:
            t = float(traj.times[k])
            zv, zdt, zgrad = zeta.value(g, t), zeta.dt(g, t), zeta.grad(g, t)
            add("compl_lhs", p * zdt + gsq * zv)
            pdotz = sum(gx * zg for gx, zg in zip(grads, zgrad))
            add("compl_rhs", -gsq * zv - p * pdotz + p * spec.G(p, c) * zv)
            add("p_l1", np.abs(p))
            add("gp_l2", gsq)

    gamma = traj.params.gamma
    accum = {name: acc[name] for name in names[:9]}
    accum["diss_pressure_weighted"] = (gamma - 1.0) * acc["diss_w"]
    accum["diss_hessian"] = acc["diss_h"]
    meta = {"gamma": gamma}
    if weight is not None:
        accum["weighted_ab_neg_l3"] = acc["weighted_ab_neg_l3"]
        meta["C_phi"] = weight.C_phi
    if zeta is not None:
        lhs = -acc["compl_lhs"] / gamma
        rhs = acc["compl_rhs"]
        # sup norms by brute force over every cell and every left endpoint
        zmax = max(float(np.max(zeta.value(g, t))) for t in traj.times[:-1])
        dtmax = max(float(np.max(np.abs(zeta.dt(g, t)))) for t in traj.times[:-1])
        accum["compl_lhs"] = lhs
        accum["compl_rhs"] = rhs
        accum["compl_defect"] = abs(lhs - rhs)
        accum["compl_lhs_bound"] = (acc["p_l1"] * dtmax + acc["gp_l2"] * zmax) / gamma
        meta["zeta_sup"] = zmax
        meta["zeta_dt_sup"] = dtmax
    accum["graph_residual_max"] = float(np.max(series["graph_residual"]))
    accum["energy_max"] = float(np.max(series["energy"]))
    meta["clipped_mass"] = traj.clipped_mass
    meta["steps"] = int(traj.meta.get("steps", 0))
    return series, accum, meta


def assert_same_bits(got: dict, want: dict):
    """Same keys in the same order and the same bits (signed zeros included)."""
    assert list(got) == list(want)
    for key in want:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), (key, got[key], want[key])


def blocked_run(dim, cells, T, snapshot_dt, gamma):
    params = model.ModelParams(gamma=gamma)
    spec = model.default_reactions(params)
    g = Grid.symmetric(dim, 1.5, cells)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    setup = solver.RunSetup(grid=g, params=params, spec=spec, n0=n0,
                            c0=solver.nutrient_uniform(g, params), T=T,
                            snapshot_dt=snapshot_dt)
    zeta = TestFunction(center=(0.0,) * dim, radius=0.8, t_center=0.5 * T,
                        t_halfwidth=0.4 * T)
    return solver.run(setup), spec, zeta, build_weight(g)


@pytest.fixture(scope="module")
def run_1d_blocks():
    # 96 cells: 42 snapshots per block, so 51 snapshots make a full block and
    # a remainder of 9
    return blocked_run(1, 96, T=0.1, snapshot_dt=0.002, gamma=15.0)


def block_size(traj):
    return max(1, monitors._BLOCK_CELLS // traj.n[0].size)


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_blocked_report_equals_per_snapshot_loop(case, run_1d_blocks):
    if case == "1d":
        traj, spec, zeta, weight = run_1d_blocks
    else:
        # 24^2 cells: 7 snapshots per block, 11 snapshots
        traj, spec, zeta, weight = blocked_run(2, 24, T=0.05, snapshot_dt=0.005,
                                               gamma=6.0)
    size = block_size(traj)
    assert len(traj) > size and len(traj) % size != 0
    rep = monitors.compute_report(traj, spec, zeta=zeta, weight=weight)
    series, accum, meta = reference_report(traj, spec, zeta=zeta, weight=weight)
    assert_same_bits(rep.series, series)
    assert_same_bits(rep.accum, accum)
    assert_same_bits(rep.meta, meta)
    plain = monitors.compute_report(traj, spec)
    series, accum, meta = reference_report(traj, spec)
    assert_same_bits(plain.series, series)
    assert_same_bits(plain.accum, accum)
    assert_same_bits(plain.meta, meta)


def test_range_accumulators_split_inside_a_block(run_1d_blocks):
    # the report of a time slice that starts inside a block has the bits of
    # the per-snapshot loop over that range of the whole run
    traj, spec, zeta, weight = run_1d_blocks
    K = len(traj)
    size = block_size(traj)
    mid = size + 3
    assert mid % size != 0 and mid < K - 1
    names = ("ab_neg_l3", "lap_l1", "grad_p_l4", "weighted_ab_neg_l3",
             "diss_pressure_weighted", "diss_hessian")
    parts = {}
    for a, b in ((0, mid), (mid, K), (3, mid)):
        got = compute_report(time_slice(traj, a, b), spec, weight=weight).accum
        _, want, _ = reference_report(traj, spec, weight=weight, k0=a, k1=b)
        assert_same_bits({n: got[n] for n in names}, {n: want[n] for n in names})
        parts[a, b] = got
    # zeta's time window must lie inside (0, T) of the slice; the (0, mid)
    # slice ends on the window's upper edge, so these slices end later
    for a, b in ((mid, K), (3, K - 2)):
        got = compute_report(time_slice(traj, a, b), spec, zeta=zeta).accum
        _, want, _ = reference_report(traj, spec, zeta=zeta, k0=a, k1=b)
        for n in ("compl_lhs", "compl_rhs"):
            assert_same_bits({n: got[n]}, {n: want[n]})
    total = compute_report(traj, spec, weight=weight).accum
    for name in names:
        split = parts[0, mid][name] + parts[mid, K][name]
        assert total[name] == pytest.approx(split, rel=1e-13), name
