"""Discrete operators, quadrature, and the space-time test bump."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tumorhs import grid
from tumorhs.grid import DIRICHLET_ZERO, NEUMANN_ZERO, Grid, TestFunction, dirichlet


@pytest.fixture
def g1():
    return Grid.symmetric(1, 1.0, 200)


@pytest.fixture
def g2():
    return Grid.symmetric(2, 1.0, 32)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid.symmetric(1, 1.0, 4)          # fewer than 8 cells
    with pytest.raises(ValueError):
        Grid.symmetric(3, 1.0, 16)         # no 3D
    g = Grid(dim=2, lo=0.0, hi=1.0, n=10)  # general box, e.g. [0,1]^2
    assert g.h == pytest.approx(0.1)
    sym = Grid.symmetric(1, 2.0, 16)
    assert sym.contains_ball(1.5)
    assert not sym.contains_ball(1.95)


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------

def test_laplacian_of_constant_is_zero(g1):
    lap = grid.laplacian_array(np.full(g1.shape, 3.7), g1.h, NEUMANN_ZERO)
    assert np.allclose(lap, 0.0, atol=1e-12)


def test_laplacian_exact_on_quadratics_interior(g1):
    x = g1.coords[0]
    lap = grid.laplacian_array(x ** 2, g1.h, DIRICHLET_ZERO)
    assert np.allclose(lap[2:-2], 2.0, atol=1e-9)


def test_laplacian_sine_error_within_taylor_bound(g1):
    x = g1.coords[0]
    lap = grid.laplacian_array(np.sin(np.pi * x), g1.h, DIRICHLET_ZERO)
    err = np.max(np.abs(lap[5:-5] + np.pi ** 2 * np.sin(np.pi * x[5:-5])))
    assert err <= np.pi ** 4 * g1.h ** 2 / 12.0 + 1e-10


def test_laplacian_2d_five_point(g2):
    x, y = g2.coords
    lap = grid.laplacian_array(x ** 2 + y ** 2, g2.h, DIRICHLET_ZERO)
    assert np.allclose(lap[2:-2, 2:-2], 4.0, atol=1e-9)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_constant_zero_and_affine_exact(g1):
    x = g1.coords[0]
    gz = grid.gradient_array(np.full(g1.shape, 2.0), g1.h, NEUMANN_ZERO)
    assert np.allclose(gz[0], 0.0, atol=1e-14)
    ga = grid.gradient_array(x, g1.h, NEUMANN_ZERO)
    assert np.allclose(ga[0][1:-1], 1.0, atol=1e-12)


def test_centered_difference_exact_on_quadratic_at_half(g1):
    # centered difference of x^2 equals 2x exactly, any h
    x = g1.coords[0]
    gq = grid.gradient_array(x ** 2, g1.h, NEUMANN_ZERO)
    k = int(np.argmin(np.abs(x - 0.5)))
    assert gq[0][k] == pytest.approx(2.0 * x[k], rel=1e-12)


def test_grad_norm_sq_sums_components(g2):
    x, y = g2.coords
    grads = grid.gradient_array(2.0 * x + 3.0 * y, g2.h, NEUMANN_ZERO)
    gsq = sum(gc * gc for gc in grads)
    assert np.allclose(gsq[1:-1, 1:-1], 13.0, atol=1e-10)


# ---------------------------------------------------------------------------
# integration by parts (symmetry and exact energy identity)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_laplacian_symmetry_to_roundoff(dim, n):
    g = Grid.symmetric(dim, 1.0, n)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    lhs = grid.integral_array(f * grid.laplacian_array(h, g.h, DIRICHLET_ZERO), g.h)
    rhs = grid.integral_array(h * grid.laplacian_array(f, g.h, DIRICHLET_ZERO), g.h)
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_energy_identity_exact(dim, n):
    g = Grid.symmetric(dim, 1.0, n)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(g.shape)
    quad = grid.integral_array(f * grid.laplacian_array(f, g.h, DIRICHLET_ZERO), g.h)
    assert quad == pytest.approx(-grid.dirichlet_energy_array(f, g.h), rel=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_operators_linear(a, b):
    g = Grid.symmetric(1, 1.0, 64)
    rng = np.random.default_rng(3)
    f, h = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    lap = lambda v: grid.laplacian_array(v, g.h, DIRICHLET_ZERO)
    assert np.allclose(lap(a * f + b * h), a * lap(f) + b * lap(h),
                       atol=1e-8, rtol=1e-10)


def test_refinement_order_at_least_1_9():
    errs = []
    for n in (100, 200, 400):
        g = Grid.symmetric(1, 1.0, n)
        x = g.coords[0]
        lap = grid.laplacian_array(np.sin(np.pi * x), g.h, DIRICHLET_ZERO)
        errs.append(np.max(np.abs(lap[5:-5] + np.pi ** 2 * np.sin(np.pi * x[5:-5]))))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    assert min(orders) >= 1.9


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integral_constant_unit_box():
    g = Grid(dim=2, lo=0.0, hi=1.0, n=16)
    assert grid.integral_array(np.ones(g.shape), g.h) == pytest.approx(1.0, rel=1e-14)


def test_midpoint_rule_linear_function():
    g = Grid(dim=1, lo=0.0, hi=1.0, n=64)
    val = grid.integral_array(g.coords[0], g.h)
    assert val == pytest.approx(0.5, abs=g.h ** 2)


# ---------------------------------------------------------------------------
# test function
# ---------------------------------------------------------------------------

def test_bump_supported_and_nonnegative(g1):
    zeta = TestFunction(center=(0.2,), radius=0.3, t_center=0.5, t_halfwidth=0.2)
    zeta.check_support(g1, 1.0)
    v = zeta.value(g1, 0.5)
    assert np.all(v >= 0.0)
    x = g1.coords[0]
    assert np.all(v[np.abs(x - 0.2) >= 0.3] == 0.0)
    assert np.all(zeta.value(g1, 0.71) == 0.0)
    assert np.all(zeta.dt(g1, 0.71) == 0.0)
    assert np.all(zeta.dt(g1, 0.29) == 0.0)


def test_bump_support_violation_raises(g1):
    wide = TestFunction(center=(0.8,), radius=0.4, t_center=0.5, t_halfwidth=0.2)
    with pytest.raises(ValueError):
        wide.check_support(g1, 1.0)
    late = TestFunction(center=(0.0,), radius=0.3, t_center=0.9, t_halfwidth=0.2)
    with pytest.raises(ValueError):
        late.check_support(g1, 1.0)


def test_bump_time_derivative_matches_finite_difference(g1):
    zeta = TestFunction(center=(0.0,), radius=0.5, t_center=0.5, t_halfwidth=0.25)
    eps = 1e-6
    fd = (zeta.value(g1, 0.45 + eps) - zeta.value(g1, 0.45 - eps)) / (2 * eps)
    assert np.allclose(zeta.dt(g1, 0.45), fd, atol=1e-7)


def test_bump_gradient_matches_finite_difference():
    # shifting the center by -eps equals shifting x by +eps
    g = Grid.symmetric(2, 1.0, 48)
    eps = 1e-6
    zeta = TestFunction(center=(0.1, -0.2), radius=0.5, t_center=0.5, t_halfwidth=0.25)
    plus = TestFunction(center=(0.1 - eps, -0.2), radius=0.5, t_center=0.5,
                        t_halfwidth=0.25)
    minus = TestFunction(center=(0.1 + eps, -0.2), radius=0.5, t_center=0.5,
                         t_halfwidth=0.25)
    fd_x = (plus.value(g, 0.5) - minus.value(g, 0.5)) / (2 * eps)
    gx, _ = zeta.grad(g, 0.5)
    assert np.max(np.abs(gx - fd_x)) <= 1e-6 * max(np.max(np.abs(gx)), 1.0)

