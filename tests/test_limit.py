"""Elliptic reference solve, positivity sets, decay fits, and sweeps."""

import math

import numpy as np
import pytest

from tumorhs import config, limit, model, solver
from tumorhs.grid import Grid
from tumorhs.limit import (PositivitySet, SweepReport, fit_decay, gamma_sweep,
                           heleshaw_reference, limit_compare)


@pytest.fixture
def params():
    return model.ModelParams(gamma=40.0)


@pytest.fixture
def spec(params):
    return model.default_reactions(params)


# ---------------------------------------------------------------------------
# positivity set
# ---------------------------------------------------------------------------

def test_positivity_set_mask_and_boundary():
    g = Grid.symmetric(1, 1.0, 64)
    p = np.maximum(0.25 - g.coords[0] ** 2, 0.0)
    pos = PositivitySet.from_pressure(g, p, 1e-6)
    assert np.sum(pos.mask) * g.h == pytest.approx(1.0, abs=3 * g.h)
    layer = pos.boundary_layer
    assert np.all(pos.mask[layer])
    assert np.count_nonzero(layer) == 2          # one cell on each side in 1D
    inner = pos.interior
    assert np.count_nonzero(inner) == np.count_nonzero(pos.mask) - 2


# ---------------------------------------------------------------------------
# Hele-Shaw reference
# ---------------------------------------------------------------------------

def test_empty_positivity_set_gives_zero_field(spec):
    g = Grid.symmetric(1, 1.0, 64)
    res = heleshaw_reference(np.zeros(g.shape), np.ones(g.shape), spec, 1e-3, g)
    assert np.all(res.pressure == 0.0)
    assert res.iterations == 0


def test_poisson_stub_matches_exact_parabola(params):
    # G = 1 on O = (-1, 1): p = (1 - x^2)/2; the ghost-cell discretization has
    # the exact discrete solution p_i = (1 + h^2/4)/2 - x_i^2/2, so the max
    # error against the continuum parabola is exactly h^2/8
    stub = model.ReactionSpec(
        G=lambda p, c: np.ones_like(np.asarray(p, dtype=float)),
        H=lambda c: np.zeros_like(np.asarray(c, dtype=float)),
        K=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        c_star=1.0, params=params)
    g = Grid.symmetric(1, 2.0, 400)   # h = 0.01, faces align with +-1
    seed = np.where(np.abs(g.coords[0]) < 1.0, 1.0, 0.0)
    res = heleshaw_reference(seed, np.ones(g.shape), spec=stub, eps_O=0.5, g=g)
    exact = np.where(np.abs(g.coords[0]) < 1.0,
                     0.5 * (1.0 - g.coords[0] ** 2), 0.0)
    err = np.max(np.abs(res.pressure - exact))
    assert err <= g.h ** 2 / 8.0 + 1e-7
    assert err == pytest.approx(g.h ** 2 / 8.0, rel=0.05)


def test_fixed_point_contracts_and_residual_bound(standard_sweep):
    traj, rep, setup = standard_sweep[40.0]
    k = len(traj) // 2
    res = heleshaw_reference(traj.p[k], traj.c[k], setup.spec, 1e-3, traj.grid)
    assert res.iterations <= 500
    assert res.contraction < 1.0
    upd = res.update_history
    assert np.all(np.diff(upd[1:]) <= 1e-14)     # nonincreasing after the first
    beta = setup.params.beta
    assert res.residual_inf <= 10.0 * 1e-8 * beta + 1e-12


def test_non_contraction_detected():
    params = model.ModelParams(gamma=10.0)
    runaway = model.ReactionSpec(
        G=lambda p, c: 5.0 * np.asarray(p, dtype=float),  # dG/dp = +5 > -beta
        H=lambda c: np.zeros_like(np.asarray(c, dtype=float)),
        K=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        c_star=1.0, params=params)
    g = Grid.symmetric(1, 2.0, 200)
    seed = np.where(np.abs(g.coords[0]) < 1.4, 1.0, 0.0)
    with pytest.raises(RuntimeError, match="beta"):
        heleshaw_reference(seed, np.ones(g.shape), runaway, 0.5, g)


def test_reference_improves_with_stiffness(standard_sweep):
    dists = {}
    for gamma in (40.0, 80.0):
        traj, rep, setup = standard_sweep[gamma]
        k = len(traj) // 2
        res = heleshaw_reference(traj.p[k], traj.c[k], setup.spec, 1e-3, traj.grid)
        diff = (traj.p[k] - res.pressure)[res.mask.mask]
        dists[gamma] = math.sqrt(float(np.sum(diff ** 2)) * traj.grid.cell_volume)
    assert dists[80.0] <= dists[40.0]


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_decay_recovers_power_law():
    gammas = [10.0, 20.0, 40.0, 80.0]
    vals = [5.0 * g ** -1.3 for g in gammas]
    q, se = fit_decay(gammas, vals)
    assert q == pytest.approx(1.3, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)


def test_fit_decay_needs_three_points():
    with pytest.raises(ValueError):
        fit_decay([10.0, 20.0], [1.0, 0.5])


# ---------------------------------------------------------------------------
# limit_compare
# ---------------------------------------------------------------------------

def test_limit_compare_identical_is_zero(standard_sweep):
    traj, _, _ = standard_sweep[10.0]
    d = limit_compare(traj, traj)
    assert d == {"l1_p": 0.0, "l1_c": 0.0, "l2_grad_p": 0.0}


def test_limit_compare_grid_mismatch():
    params = model.ModelParams(gamma=10.0)
    times = np.array([0.0, 1.0])

    def mk(n):
        g = Grid.symmetric(1, 1.0, n)
        z = np.zeros((2,) + g.shape)
        return solver.Trajectory(grid=g, params=params, times=times, n=z, p=z,
                                 c=z, snap_dts=np.zeros(2), dts=np.zeros(0),
                                 clipped_mass=0.0)
    with pytest.raises(ValueError, match="grid"):
        limit_compare(mk(32), mk(64))


def test_cauchy_in_gamma_distances_decrease(standard_sweep):
    pairs = [(10.0, 20.0), (20.0, 40.0), (40.0, 80.0)]
    dists = [limit_compare(standard_sweep[a][0], standard_sweep[b][0])
             for a, b in pairs]
    for key in ("l1_p", "l2_grad_p"):
        vals = [d[key] for d in dists]
        assert vals[1] < vals[0] and vals[2] < vals[1], (key, vals)
        assert all(math.isfinite(v) for v in vals)


# ---------------------------------------------------------------------------
# gamma_sweep plumbing
# ---------------------------------------------------------------------------

TINY_SWEEP_CFG = """
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
[sweep]
gammas = 8, 16, 32
"""


def sweep(gammas, out_root, workers=1):
    cfg = config.parse_config_text(TINY_SWEEP_CFG)
    return SweepReport.from_outcomes(gamma_sweep(cfg, gammas, out_root, workers=workers))


def test_degenerate_sweep_single_gamma_has_no_fits(tmp_path):
    report = sweep([12.0], tmp_path)
    assert report.fit_graph_residual is None
    assert len(report.rows) == 1


def test_sweep_results_independent_of_worker_count(tmp_path):
    rep1 = sweep([8.0, 16.0, 32.0], tmp_path / "w1", workers=1)
    rep2 = sweep([8.0, 16.0, 32.0], tmp_path / "w2", workers=2)
    assert rep1.gammas == rep2.gammas
    assert rep1.rows == rep2.rows
    assert "runtime_s" not in rep1.rows[0]
    assert rep1.fit_graph_residual == rep2.fit_graph_residual


def test_failing_gamma_isolated_with_any_worker_count(tmp_path):
    # gamma = 0 and 1 are outside the model (gamma > 1 required) and must not
    # take the other gammas down, with or without a pool
    reports = [sweep([0.0, 1.0, 8.0, 16.0], tmp_path / f"w{w}", workers=w) for w in (1, 2)]
    for rep in reports:
        assert rep.gammas == [8.0, 16.0]
        assert [g for g, _ in rep.failed] == [0.0, 1.0]
    assert reports[0].failed == reports[1].failed
    assert reports[0].rows == reports[1].rows
