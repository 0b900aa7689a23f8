"""Constitutive law and reaction-family checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tumorhs import model


@pytest.fixture
def params():
    return model.ModelParams(gamma=10.0)


@pytest.fixture
def spec(params):
    return model.default_reactions(params)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_default_family_passes_with_beta_point_one(params, spec):
    report = model.validate(params, spec)
    assert report.passed
    # dG/dp = -g0*(c + c1): the admissible margin is g0*c1 = 0.1
    assert report.beta_measured == pytest.approx(0.1, abs=1e-10)


def test_K_vanishes_at_vessel_pressure(spec):
    assert spec.K(2.0) == 0.0
    assert spec.K(3.5) == 0.0


def test_necrosis_fails_without_death_rate():
    params = model.ModelParams(gamma=10.0, c2=1e-15)
    bad = model.default_reactions(params, c_star=0.4)
    report = model.validate(params, bad)
    assert not report.passed
    assert any("c_star" in name or "G < 0" in name for name, _, _ in report.failures)
    # G(0, 0) = g0*p_H*c1 = 0.1 > 0 for the broken family
    assert float(bad.G(0.0, 0.0)) == pytest.approx(0.1, abs=1e-12)


def test_validate_reports_worst_point_not_raises():
    params = model.ModelParams(gamma=5.0)
    broken = model.ReactionSpec(
        G=lambda p, c: np.zeros_like(np.asarray(p, dtype=float)),  # dG/dp = 0 > -beta
        H=lambda c: np.asarray(c, dtype=float),
        K=lambda p: np.full_like(np.asarray(p, dtype=float), 0.5),  # K(p_B) != 0
        c_star=0.4, params=params)
    report = model.validate(params, broken)
    assert not report.passed
    names = [name for name, _, _ in report.failures]
    assert any("beta" in n for n in names)
    assert any("K(p) = 0" in n for n in names)


# ---------------------------------------------------------------------------
# pressure law
# ---------------------------------------------------------------------------

def test_pressure_law_values():
    assert model.pressure_from_density(0.0, 7.0) == 0.0
    assert model.pressure_from_density(1.0, 13.0) == pytest.approx(1.0, rel=1e-15)
    assert model.pressure_from_density(0.9, 10.0) == pytest.approx(0.3486784401, rel=1e-12)


def test_density_from_pressure_values(params):
    assert model.density_from_pressure(0.0, 10.0) == 0.0
    # n_H = p_H^(1/gamma)
    assert model.density_from_pressure(params.p_H, params.gamma) == pytest.approx(
        params.n_H, rel=1e-14)
    assert model.density_from_pressure(0.3486784401, 10.0) == pytest.approx(0.9, rel=1e-12)


def test_negative_density_names_cell():
    vals = np.array([0.1, 0.2, -1e-3, 0.4])
    with pytest.raises(model.DomainError, match=r"cell \(2,\)"):
        model.pressure_from_density(vals, 5.0)
    with pytest.raises(model.DomainError):
        model.density_from_pressure(np.array([-0.5]), 5.0)


@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1.5, max_value=120.0))
def test_round_trip_identity(p, gamma):
    n = model.density_from_pressure(p, gamma)
    assert model.pressure_from_density(n, gamma) == pytest.approx(p, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.5, max_value=60.0))
def test_pressure_monotone_in_density(a, b, gamma):
    lo, hi = sorted((a, b))
    assert model.pressure_from_density(lo, gamma) <= \
        model.pressure_from_density(hi, gamma) + 1e-15


# ---------------------------------------------------------------------------
# reaction evaluation
# ---------------------------------------------------------------------------

def test_reaction_values(spec):
    # G(0, c_B) = g0*p_H*(c_B + c1) - c2 = 1.1 - 0.5
    assert spec.G(0.0, 1.0) == pytest.approx(0.6, rel=1e-14)
    assert spec.K(1.0) == pytest.approx(0.5, rel=1e-15)
    assert spec.H(0.0) == 0.0


def test_reactions_elementwise(spec):
    p = np.linspace(0.0, 1.0, 7)
    c = np.linspace(0.0, 1.0, 7)
    G = spec.G(p, c)
    assert G.shape == p.shape
    assert G[0] == pytest.approx(float(spec.G(0.0, 0.0)), rel=1e-14)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-4, max_value=0.5))
def test_monotonicity_with_margin(p, c, delta):
    params = model.ModelParams(gamma=10.0)
    spec = model.default_reactions(params)
    lhs = float(spec.G(p + delta, c) - spec.G(p, c))
    assert lhs <= -params.beta * delta + 1e-12


def test_gbar_closed_form_matches_quadrature(spec, params):
    # default family: Gbar = (c+c1)*g0*(p_H p - p^2/2) - c2 p
    p, c = 0.7, 0.8
    closed = model.eval_Gbar(p, c, spec)
    numeric_spec = model.ReactionSpec(G=spec.G, H=spec.H, K=spec.K,
                                      c_star=spec.c_star, params=params)
    numeric = model.eval_Gbar(np.array([p]), np.array([c]), numeric_spec)
    assert closed == pytest.approx(float(numeric[0]), rel=1e-10)
    assert model.eval_Gbar(1.0, 1.0, spec) == pytest.approx(1.1 * 0.5 - 0.5, rel=1e-12)


def test_density_cap_maximum():
    # max over n in [0,1] of n^gamma (1-n) is gamma^gamma/(gamma+1)^(gamma+1)
    gamma = 10.0
    n = np.linspace(0.0, 1.0, 200001)
    scanned = float(np.max(n ** gamma * (1.0 - n)))
    closed = gamma ** gamma / (gamma + 1.0) ** (gamma + 1.0)
    assert closed == pytest.approx(0.0350494, abs=5e-8)
    assert scanned == pytest.approx(closed, rel=1e-8)
