"""Time stepper: CFL control, conservative density update, IMEX nutrient
update, full runs, and the self-similar verification study."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse
from scipy.linalg.lapack import dgtsv
from scipy.ndimage import binary_dilation
from scipy.sparse.linalg import spsolve

from tumorhs import config, limit, model, runio, solver
from tumorhs.grid import Grid
from tumorhs.solver import (RunSetup, SolverError, State, cfl_dt, run,
                            step_density, step_nutrient)


def make_state(g, params, n, c=None):
    p = model.pressure_from_density(n, params.gamma)
    c = np.full(g.shape, params.c_B) if c is None else c
    return State(g, 0.0, n, p, c)


def constant_G(value, params):
    def g1(x):
        return np.zeros_like(np.asarray(x, dtype=float))
    return model.ReactionSpec(
        G=lambda p, c: np.full_like(np.asarray(p, dtype=float), value),
        H=g1, K=g1, c_star=1.0, family="stub", params=params)


# ---------------------------------------------------------------------------
# cfl_dt
# ---------------------------------------------------------------------------

def test_cfl_formula_value():
    # the 2D front rule FRONT_COURANT h^2 / max |dp| over the faces of both
    # axes: a gradient along x alone gives the step its transpose gives
    params = model.ModelParams(gamma=50.0)
    spec = solver.reactions_off(params)
    g = Grid.symmetric(2, 0.5, 100)      # h = 0.01
    x = g.coords[0]
    n = np.clip(0.9 - 0.5 * x, 0.0, params.n_H)
    assert np.all(n == n[:, :1]) and np.ptp(n) > 0.0
    st_ = make_state(g, params, n)
    dp_max = float(np.max(np.abs(np.diff(st_.p, axis=0))))
    dt = cfl_dt(st_, params, spec, safety=0.4)
    assert dt == pytest.approx(solver.FRONT_COURANT * 1e-4 / dp_max, rel=1e-12)
    assert cfl_dt(make_state(g, params, n.T.copy()), params, spec, safety=0.4) == dt


def test_cfl_front_step_is_the_same_for_every_gamma():
    # at a sharp front n jumps from 1 to 0, so max |dp| = 1 at any gamma and
    # the front rule gives FRONT_COURANT h^2 whatever gamma is
    g = Grid.symmetric(2, 1.0, 64)
    n = np.where(g.coords[0] ** 2 + g.coords[1] ** 2 < 0.25, 1.0, 0.0)
    dts = []
    for gamma in (25.0, 50.0, 100.0):
        params = model.ModelParams(gamma=gamma)
        spec = solver.reactions_off(params)
        dts.append(cfl_dt(make_state(g, params, n), params, spec))
    expected = solver.FRONT_COURANT * g.h * g.h
    assert dts == [pytest.approx(expected, rel=1e-12)] * 3


def test_cfl_zero_density_reaction_cap_alone():
    params = model.ModelParams(gamma=20.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 1.0, 64)
    st_ = make_state(g, params, np.zeros(g.shape))
    # G(0, c_B) = 0.6 is the largest rate on this state
    assert cfl_dt(st_, params, spec, safety=0.4) == pytest.approx(0.4 / 0.6, rel=1e-12)


def test_cfl_nan_state_is_fatal():
    params = model.ModelParams(gamma=10.0)
    spec = solver.reactions_off(params)
    g = Grid.symmetric(1, 1.0, 64)
    st_ = make_state(g, params, np.ones(g.shape))
    st_.p[3] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        cfl_dt(st_, params, spec)


# ---------------------------------------------------------------------------
# density step
# ---------------------------------------------------------------------------

def test_zero_density_is_a_fixed_point():
    params = model.ModelParams(gamma=10.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 1.0, 64)
    st_ = make_state(g, params, np.zeros(g.shape))
    n_new, p_new, clipped = step_density(st_, 1e-3, params, spec)
    assert np.all(n_new == 0.0) and np.all(p_new == 0.0) and clipped == 0.0


def test_interior_plateau_grows_exponentially():
    # uniform interior with constant G: the center follows n0*exp(g t) up to
    # O(dt) until the edge rarefaction arrives (finite propagation speed)
    rate = 0.3
    params = model.ModelParams(gamma=10.0)
    spec = constant_G(rate, params)
    g = Grid.symmetric(1, 2.0, 128)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.8, edge=0.2,
                                   height="density")
    setup = RunSetup(grid=g, params=params, spec=spec, n0=n0,
                     c0=solver.nutrient_uniform(g, params), T=0.2,
                     snapshot_dt=0.01)
    traj = run(setup)
    center = g.n // 2
    exact = 0.5 * params.n_H * math.exp(rate * 0.2)
    max_dt = float(np.max(traj.dts))
    assert traj.n[-1][center] == pytest.approx(exact, rel=5.0 * max(max_dt, 1e-3))


def test_clipping_is_accounted():
    params = model.ModelParams(gamma=4.0)
    spec = constant_G(10.0, params)
    g = Grid.symmetric(1, 1.0, 64)
    n = np.full(g.shape, 0.999 * params.n_H)
    st_ = make_state(g, params, n)
    dt = 0.01
    n_new, _, clipped = step_density(st_, dt, params, spec)
    assert np.all(n_new <= params.n_H)
    over = n * (1.0 + 10.0 * dt) - params.n_H   # uniform state: no flux
    expected = float(np.sum(over)) * g.cell_volume
    assert clipped == pytest.approx(expected, rel=1e-10)


def test_negative_update_aborts_with_cell():
    # the implicit step keeps n >= 0, so only a non-finite update reaches the
    # abort: here a NaN cell of the old state
    params = model.ModelParams(gamma=2.0)
    spec = solver.reactions_off(params)
    g = Grid.symmetric(2, 1.0, 64)
    n = np.full(g.shape, 1e-6)
    n[g.n // 2, g.n // 2] = 0.8
    st_ = make_state(g, params, n)
    st_.n[10, 20] = np.nan
    with pytest.raises(SolverError, match=r"out of range at cell \(10, 20\): n=nan"):
        step_density(st_, 1e-3, params, spec)


def test_implicit_step_keeps_density_nonnegative_at_any_dt():
    # the state above, with reactions: the M-matrix sweeps keep n >= 0, in 1D
    # at dt = 1 and in 2D at up to 100 front steps
    params = model.ModelParams(gamma=2.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 1.0, 64)
    n = np.full(g.shape, 1e-6)
    n[g.n // 2] = 0.8
    n_new, p_new, clipped = step_density(make_state(g, params, n), 1.0, params, spec)
    assert np.all(n_new >= 0.0) and np.all(np.isfinite(n_new))
    assert np.all(n_new <= params.n_H) and clipped == 0.0
    g = Grid.symmetric(2, 1.0, 64)
    n = np.full(g.shape, 1e-6)
    n[g.n // 2, g.n // 2] = 0.8
    st_ = make_state(g, params, n)
    front = cfl_dt(st_, params, solver.reactions_off(params))
    for dt in (front, 10.0 * front, 100.0 * front):
        n_new, p_new, clipped = step_density(st_, dt, params, spec)
        assert np.all(n_new >= 0.0) and np.all(np.isfinite(n_new))
        assert np.all(n_new <= params.n_H) and clipped == 0.0


def test_implicit_step_mass_changes_by_the_source_alone():
    params = model.ModelParams(gamma=20.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 2.0, 96)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    st_ = make_state(g, params, n0)
    G = spec.G(st_.p, st_.c)
    for dt in (1e-4, 1e-3, 1e-2):   # up to 300x the explicit CFL bound
        n_new, _, clipped = step_density(st_, dt, params, spec)
        assert clipped == 0.0
        expected = float(np.sum(n0 * (1.0 + dt * G))) * g.h
        assert float(np.sum(n_new)) * g.h == pytest.approx(expected, rel=1e-13)
    # 2D, at up to 100 front steps
    g = Grid.symmetric(2, 2.0, 48)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    st_ = make_state(g, params, n0)
    G = spec.G(st_.p, st_.c)
    front = cfl_dt(st_, params, solver.reactions_off(params))
    for dt in (front, 10.0 * front, 100.0 * front):
        n_new, _, clipped = step_density(st_, dt, params, spec)
        assert clipped == 0.0
        expected = float(np.sum(n0 * (1.0 + dt * G))) * g.cell_volume
        assert float(np.sum(n_new)) * g.cell_volume == pytest.approx(expected, rel=1e-13)


def test_implicit_flux_at_the_old_state_is_the_explicit_flux():
    # plateau, slopes and empty cells: secant, tangent and zero faces; in 2D
    # the faces of both axes, the x faces from the transposed lines
    params = model.ModelParams(gamma=30.0)
    for dim in (1, 2):
        g = Grid.symmetric(dim, 2.0, 48)
        n, p = solver.initial_plateau(g, params, theta=0.6, radius=0.8, edge=0.3)
        dens = solver._ImplicitDensity(g)
        N = g.n
        for ax in range(dim):
            # the lines of this axis, one per row
            lines_n = np.moveaxis(n, ax, -1).reshape(-1, N)
            lines_p = np.moveaxis(p, ax, -1).reshape(-1, N)
            assert np.any((np.diff(lines_n) == 0.0) & (lines_n[:, 1:] > 0.0))
            out = np.full(n.size + 1, np.nan)
            D = dens.face_mobility(lines_n.ravel(), lines_p.ravel(), params.gamma, N, out)
            assert D.shape == (n.size + 1,) and np.all(D[::N] == 0.0)
            D = D[:-1].reshape(-1, N)[:, 1:]
            assert np.all(D >= 0.0)
            # the explicit flux -mean(n) dp/h of the faces
            implicit = -D * np.diff(lines_n) / g.h
            explicit = -(0.5 * (lines_n[:, 1:] + lines_n[:, :-1])) * np.diff(lines_p) / g.h
            scale = float(np.abs(explicit).max())
            assert scale > 0.0
            assert np.max(np.abs(implicit - explicit)) <= 1e-12 * scale


def line_mobility(n, p, gamma):
    """D_f = mean(n) max(s_f, 0) on the faces along the last axis of n, p: s_f
    is the secant dp/dn, or the tangent gamma p/n where the cells agree."""
    lo, hi = n[:, :-1], n[:, 1:]
    dn = hi - lo
    flat = dn == 0.0
    dp = np.where(flat, gamma * p[:, :-1], p[:, 1:] - p[:, :-1])
    dn = np.where(flat, lo, dn)
    dn = np.where(dn == 0.0, 1.0, dn)
    return np.maximum(dp / dn, 0.0) * ((hi + lo) * 0.5)


def line_sweep(D, b, dt, h):
    """x of (I - dt div D grad) x = b along the last axis of b, every line of
    the grid in one tridiagonal system, averaged with the solve of the
    reversed system, reversed back."""
    L, m = b.shape
    r = np.zeros(L * m + 1)
    r[:-1].reshape(L, m)[:, 1:] = D * (dt / (h * h))

    def solve(r, b):
        *_, x, info = dgtsv(-r[1:-1], r[:-1] + r[1:] + 1.0, -r[1:-1], b)
        assert info == 0
        return x

    b = b.ravel()
    return ((solve(r, b) + solve(r[::-1], b[::-1])[::-1]) * 0.5).reshape(L, m)


def whole_grid_density_step(state, dt, params, spec):
    """Reference for the 2D density step: the split step on every line of
    the grid, the mean of the xy and yx orders, then the clip with its
    accounting and the pressure law."""
    n, p, h, gamma = state.n, state.p, state.grid.h, params.gamma
    G = spec.G(p, state.c)
    Dx, Dy = line_mobility(n.T, p.T, gamma), line_mobility(n, p, gamma)
    b = n * G * dt + n
    xy = line_sweep(Dy, line_sweep(Dx, b.T, dt, h).T, dt, h)
    yx = line_sweep(Dx, line_sweep(Dy, b, dt, h).T, dt, h).T
    n_new = (xy + yx) * 0.5
    clipped = float(np.sum(np.maximum(-n_new, 0.0))
                    + np.sum(np.maximum(n_new - params.n_H, 0.0))) * state.grid.cell_volume
    n_new = np.clip(n_new, 0.0, params.n_H)
    return n_new, model.pressure_from_density(n_new, params.gamma), clipped


def assert_same_step(result, reference):
    assert result[0].tobytes() == reference[0].tobytes()
    assert result[1].tobytes() == reference[1].tobytes()
    assert result[2] == reference[2]


def blobs(g, height, *discs):
    """Sum of bumps height (1 - |x - centre|^2 / r^2)^2, each zero outside
    its disc (centre_x, centre_y, r)."""
    x, y = g.coords
    n = np.zeros(g.shape)
    for cx, cy, r in discs:
        n += height * np.maximum(1.0 - ((x - cx) ** 2 + (y - cy) ** 2) / r ** 2, 0.0) ** 2
    return n


@pytest.mark.parametrize("case", ["centred", "corner", "two blobs", "one cell", "empty",
                                  "clipped"])
def test_box_density_step_is_the_whole_grid_step(case):
    params = model.ModelParams(gamma=6.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(2, 1.5, 32)
    if case == "centred":
        n = blobs(g, 0.8, (0.05, -0.1, 0.6))
    elif case == "corner":      # the support touches two walls: the box is clamped
        n = blobs(g, 0.8, (-1.45, 1.45, 0.5))
    elif case == "two blobs":
        n = blobs(g, 0.8, (-0.7, -0.6, 0.35), (0.8, 0.5, 0.3))
    elif case == "one cell":
        n = np.zeros(g.shape)
        n[9, 20] = 0.6
    elif case == "empty":
        n = np.zeros(g.shape)
    else:                       # growth pushes the plateau above n_H
        n, _ = solver.initial_plateau(g, params, theta=0.999, radius=0.8, edge=0.3,
                                      height="density")
        spec = constant_G(100.0, params)
    state = make_state(g, params, n, c=solver.nutrient_deficit(g, params, 0.5, 1.0))
    rows, cols = solver._support_box(n)
    box = n[rows, cols]
    if case == "empty":
        assert box.size == 0
    else:
        assert 0 < box.size < n.size and np.count_nonzero(box) == np.count_nonzero(n)
    if case == "one cell":
        assert (rows, cols) == (slice(8, 11), slice(19, 22))
    if case == "corner":
        assert rows.start == 0 and cols.stop == g.n
    for dt in (cfl_dt(state, params, spec), 1e-5):
        result = step_density(state, dt, params, spec)
        assert_same_step(result, whole_grid_density_step(state, dt, params, spec))
        assert (result[2] > 0.0) == (case == "clipped" and dt > 1e-5)


def test_box_density_step_along_a_2d_run(monkeypatch):
    params = model.ModelParams(gamma=6.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(2, 1.5, 32)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    setup = RunSetup(grid=g, params=params, spec=spec, n0=n0,
                     c0=solver.nutrient_deficit(g, params, 0.5, 1.0), T=1.0,
                     snapshot_dt=0.01)
    step = solver.step_density
    boxes = []

    def checked(state, dt, params, spec, **kwargs):
        result = step(state, dt, params, spec, **kwargs)
        assert_same_step(result, whole_grid_density_step(state, dt, params, spec))
        rows, cols = solver._support_box(state.n)
        boxes.append((rows.stop - rows.start) * (cols.stop - cols.start))
        return result

    monkeypatch.setattr(solver, "step_density", checked)
    for state in solver.iterate_states(setup, max_steps=200):
        # outside the box p is set to 0, which the pressure law gives every empty cell
        assert np.all(state.p[state.n == 0.0] == 0.0)
    assert len(boxes) == 200
    assert boxes[0] < boxes[-1] < g.n * g.n      # the support grew, and so did the box


def test_two_dimensional_step_is_equivariant_bit_for_bit():
    # the mean of the xy and yx orders commutes with the transpose, and the
    # mirror-averaged sweeps with both reflections, also on asymmetric data
    params = model.ModelParams(gamma=6.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(2, 1.5, 32)
    n = blobs(g, 0.8, (-0.4, 0.3, 0.6), (0.5, -0.2, 0.45))
    c = solver.nutrient_deficit(g, params, 0.5, 1.0)
    dt = cfl_dt(make_state(g, params, n, c=c), params, spec)
    ref = step_density(make_state(g, params, n, c=c), dt, params, spec)
    for op in (np.transpose, lambda a: a[::-1, :], lambda a: a[:, ::-1]):
        state = make_state(g, params, op(n).copy(), c=op(c).copy())
        result = step_density(state, dt, params, spec)
        assert result[0].tobytes() == op(ref[0]).copy().tobytes()
        assert result[1].tobytes() == op(ref[1]).copy().tobytes()


def test_density_buffers_serve_boxes_of_every_shape():
    # the scratch arrays of a run are shared by boxes of every shape: a step
    # on a box clamped to two walls, after steps on boxes of other shapes,
    # has the bits of a fresh solver and of the whole-grid step (no stale
    # mobility reaches a wall face)
    params = model.ModelParams(gamma=6.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(2, 1.5, 32)
    c = solver.nutrient_deficit(g, params, 0.5, 1.0)
    earlier = [make_state(g, params, blobs(g, 0.8, *discs), c=c) for discs in (
        [(-0.3, 0.2, 0.5)], [(0.7, -0.5, 0.4), (-0.6, 0.1, 0.3)], [(0.0, 0.1, 1.3)])]
    target = make_state(g, params, blobs(g, 0.8, (-1.45, 1.45, 0.5)), c=c)
    shapes = {tuple(sl.stop - sl.start for sl in solver._support_box(st_.n))
              for st_ in earlier + [target]}
    assert len(shapes) == 4
    dt = cfl_dt(target, params, spec)
    fresh = step_density(target, dt, params, spec)
    assert_same_step(fresh, whole_grid_density_step(target, dt, params, spec))
    buffers = solver._ImplicitDensity(g)
    for st_ in earlier:
        step_density(st_, cfl_dt(st_, params, spec), params, spec, _buffers=buffers)
    assert_same_step(step_density(target, dt, params, spec, _buffers=buffers), fresh)


def test_run_reports_the_box_and_the_nutrient_residual():
    traj = run(small_setup(T=0.01))
    assert traj.meta["density_window_mean"] is None
    assert 0.0 < traj.meta["nutrient_residual_max"] <= 1e-10
    params = model.ModelParams(gamma=6.0)
    g = Grid.symmetric(2, 1.5, 24)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    traj = run(RunSetup(grid=g, params=params, spec=model.default_reactions(params),
                        n0=n0, c0=solver.nutrient_uniform(g, params), T=0.02,
                        snapshot_dt=0.005))
    box0 = solver._support_box(n0)
    first = (box0[0].stop - box0[0].start) * (box0[1].stop - box0[1].start) / n0.size
    assert first <= traj.meta["density_window_mean"] < 1.0
    assert 0.0 < traj.meta["nutrient_residual_max"] <= 1e-10


# ---------------------------------------------------------------------------
# nutrient step
# ---------------------------------------------------------------------------

def test_nutrient_fixed_point_exact():
    params = model.ModelParams(gamma=10.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 1.0, 64)
    st_ = make_state(g, params, np.zeros(g.shape))
    c_new = step_nutrient(st_, 0.05, params, spec)
    assert np.array_equal(c_new, np.full(g.shape, params.c_B))


def test_nutrient_heat_equation_exact_discrete_and_continuum():
    # n = 0 and K = 0: pure backward-Euler heat equation; sine modes are exact
    # eigenvectors of the ghost-cell Laplacian
    params = model.ModelParams(gamma=10.0)
    spec = model.ReactionSpec(
        G=lambda p, c: np.zeros_like(np.asarray(p, dtype=float)),
        H=lambda c: np.asarray(c, dtype=float),
        K=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        c_star=1.0, params=params)
    L, N = 1.0, 128
    g = Grid.symmetric(1, L, N)
    x = g.coords[0]
    A, k = 0.3, 1
    mode = np.sin(k * math.pi * (x + L) / (2 * L))
    c = params.c_B - A * mode
    dt, steps = 2e-4, 100
    state = State(g, 0.0, np.zeros(g.shape), np.zeros(g.shape), c)
    nut = solver._NutrientSolver(g)
    for _ in range(steps):
        c = step_nutrient(state, dt, params, spec, _solver=nut)
        state = State(g, state.t + dt, state.n, state.p, c)
    lam_h = (4.0 / g.h ** 2) * math.sin(k * math.pi * g.h / (4 * L)) ** 2
    exact_discrete = params.c_B - A * mode / (1.0 + dt * lam_h) ** steps
    assert np.max(np.abs(c - exact_discrete)) <= 1e-12
    lam = (k * math.pi / (2 * L)) ** 2
    exact_continuum = params.c_B - A * mode * math.exp(-lam * dt * steps)
    assert np.max(np.abs(c - exact_continuum)) <= 10.0 * (dt + g.h ** 2)
    # 2D: a product of sine modes decays by 1/(1 + dt*(lam_1 + lam_2)) per step
    g = Grid.symmetric(2, L, 32)
    x, y = g.coords
    mode = (np.sin(math.pi * (x + L) / (2 * L))
            * np.sin(2 * math.pi * (y + L) / (2 * L)))
    c = params.c_B - A * mode
    state = State(g, 0.0, np.zeros(g.shape), np.zeros(g.shape), c)
    nut = solver._NutrientSolver(g)
    lam_h = sum((4.0 / g.h ** 2) * math.sin(k * math.pi * g.h / (4 * L)) ** 2
                for k in (1, 2))
    for step in range(1, 51):
        c = step_nutrient(state, dt, params, spec, _solver=nut)
        state = State(g, state.t + dt, state.n, state.p, c)
        exact_discrete = params.c_B - A * mode / (1.0 + dt * lam_h) ** step
        assert np.max(np.abs(c - exact_discrete)) <= 1e-12


def test_nutrient_2d_heat_smoke():
    params = model.ModelParams(gamma=10.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(2, 1.0, 24)
    x, y = g.coords
    c0 = params.c_B * (1.0 - 0.4 * np.exp(-8.0 * (x ** 2 + y ** 2)))
    state = State(g, 0.0, np.zeros(g.shape), np.zeros(g.shape), c0)
    c1 = step_nutrient(state, 1e-3, params, spec)
    assert c1.shape == g.shape
    assert float(np.min(c1)) >= float(np.min(c0)) - 1e-12   # relaxes upward
    assert float(np.max(c1)) <= params.c_B + 1e-12


@pytest.mark.parametrize("cells", [24, 45])
def test_nutrient_2d_dst_matches_sparse_direct_solve(cells):
    g = Grid.symmetric(2, 1.3, cells)
    main = np.full(cells, -2.0)
    main[0] = main[-1] = -3.0       # the odd ghost folded into the wall cells
    L1 = sparse.diags([np.ones(cells - 1), main, np.ones(cells - 1)],
                      [-1, 0, 1]) / g.h ** 2
    eye = sparse.identity(cells)
    lap = sparse.kron(L1, eye) + sparse.kron(eye, L1)
    rhs = np.random.default_rng(cells).uniform(-1.0, 1.0, g.shape)
    nut = solver._NutrientSolver(g)
    for dt in (1e-5, 1e-3, 0.1):
        A = (sparse.identity(cells ** 2) - dt * lap).tocsc()
        exact = spsolve(A, rhs.ravel())
        u = nut.solve(rhs, dt)
        assert np.max(np.abs(u.ravel() - exact)) <= 1e-12 * np.max(np.abs(exact))
        # the stencil residual check applies the same matrix
        v = rhs * 0.5
        stencil = nut._residual(v, rhs, dt / g.h ** 2)
        assert stencil == pytest.approx(np.max(np.abs(A @ v.ravel() - rhs.ravel())),
                                        rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_nutrient_residual_check_catches_a_wrong_solution(dim):
    g = Grid.symmetric(dim, 1.0, 24)
    rhs = np.random.default_rng(dim).uniform(-1.0, 1.0, g.shape)
    nut = solver._NutrientSolver(g)
    nut.solve(rhs, 1e-3)            # the exact solve passes the check

    def corrupt(u):
        u = np.array(u)
        u.flat[7] += 1e-6
        return u

    if dim == 1:
        gtsv = nut._gtsv

        def wrong_gtsv(*args):
            *head, out, info = gtsv(*args)
            return (*head, corrupt(out), info)

        nut._gtsv = wrong_gtsv
    else:
        idstn = nut._idstn
        nut._idstn = lambda *a, **k: corrupt(idstn(*a, **k))
    with pytest.raises(SolverError, match="residual"):
        nut.solve(rhs, 1e-3)


def strided_residual(u, rhs, r):
    """|(I - dt*Lap) u - rhs| per cell, r = dt/h^2: the residual check's
    stencil with each axis's neighbour terms on that axis's slices."""
    d = u.ndim
    Au = u * (1.0 + 2.0 * d * r)
    ru = u * r
    for ax in range(d):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        first, last = (slice(None),) * ax + (0,), (slice(None),) * ax + (-1,)
        Au[first] += ru[first]
        Au[last] += ru[last]
        Au[hi] -= ru[lo]
        Au[lo] -= ru[hi]
    Au -= rhs
    return np.abs(Au)


@pytest.mark.parametrize("dim", [1, 2])
def test_residual_check_walks_the_last_axis_with_the_same_bits(dim):
    # the last axis runs along the flattened array, its row-crossing terms
    # masked to +0: every cell must see the per-axis stencil's bits
    g = Grid.symmetric(dim, 1.0, 24)
    rng = np.random.default_rng(10 + dim)
    nut = solver._NutrientSolver(g)
    for r in (1e-3, 0.37, 25.0):
        u = rng.uniform(-1.0, 1.0, g.shape)
        rhs = rng.uniform(-1.0, 1.0, g.shape)
        want = strided_residual(u, rhs, r)
        got = nut._residual(u, rhs, r)
        assert got == float(want.max())
        assert np.array_equal(nut._Au, want)     # the check leaves |Au - rhs| there


@pytest.mark.parametrize("dim", [1, 2])
def test_nutrient_residual_check_catches_nan(dim):
    g = Grid.symmetric(dim, 1.0, 24)
    rhs = np.random.default_rng(dim).uniform(-1.0, 1.0, g.shape)
    rhs.flat[5] = np.nan
    nut = solver._NutrientSolver(g)
    with pytest.raises(SolverError, match="residual nan"):
        nut.solve(rhs, 1e-3)
    assert nut.residual_max == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_nutrient_step_is_the_plain_expression_bit_for_bit(dim):
    params = model.ModelParams(gamma=8.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(dim, 1.0, 24)
    rng = np.random.default_rng(10 + dim)
    n = rng.uniform(0.0, 1.0, g.shape) * (rng.uniform(size=g.shape) < 0.6)
    assert np.any(n == 0.0)
    state = make_state(g, params, n, c=rng.uniform(0.2, 1.0, g.shape) * params.c_B)
    c, c_B = state.c, params.c_B
    for dt in (1e-4, 1e-2):
        reaction = dt * (-state.n * spec.H(c) + (c_B - c) * spec.K(state.p))
        expected = c_B + solver._NutrientSolver(g).solve(c - c_B + reaction, dt)
        assert step_nutrient(state, dt, params, spec).tobytes() == expected.tobytes()


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=1e-4, max_value=0.3))
def test_nutrient_maximum_principle(seed, dt):
    params = model.ModelParams(gamma=10.0)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 1.0, 32)
    rng = np.random.default_rng(seed)
    n = rng.uniform(0.0, 1.0, g.shape)
    c = rng.uniform(0.2, 1.0, g.shape) * params.c_B
    state = make_state(g, params, n, c=c)
    c_new = step_nutrient(state, dt, params, spec)
    assert float(np.max(c_new)) <= params.c_B + 1e-12
    assert float(np.min(c_new)) >= -1e-12
    # without consumption the minimum cannot drop
    no_H = model.ReactionSpec(G=spec.G, H=lambda c: np.zeros_like(np.asarray(c, dtype=float)),
                              K=spec.K, c_star=spec.c_star, params=params)
    c_relax = step_nutrient(state, dt, params, no_H)
    assert float(np.min(c_relax)) >= float(np.min(c)) - 1e-12


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def small_setup(gamma=12.0, T=0.05, snapshot_dt=0.005):
    params = model.ModelParams(gamma=gamma)
    spec = model.default_reactions(params)
    g = Grid.symmetric(1, 2.0, 96)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    return RunSetup(grid=g, params=params, spec=spec, n0=n0,
                    c0=solver.nutrient_uniform(g, params), T=T,
                    snapshot_dt=snapshot_dt)


def test_zero_horizon_gives_initial_snapshot_only():
    setup = small_setup(T=0.0)
    traj = run(setup)
    assert len(traj) == 1 and traj.times[0] == 0.0
    assert np.array_equal(traj.n[0], setup.n0)


def test_mass_conserved_without_reactions():
    params = model.ModelParams(gamma=8.0, p_H=2.0)
    spec = solver.reactions_off(params)
    g = Grid.symmetric(1, 2.0, 128)
    n0, _ = solver.initial_plateau(g, params, theta=0.4, radius=0.6, edge=0.25)
    setup = RunSetup(grid=g, params=params, spec=spec, n0=n0,
                     c0=solver.nutrient_uniform(g, params), T=0.2, snapshot_dt=0.02)
    traj = run(setup)
    masses = np.sum(traj.n, axis=tuple(range(1, traj.n.ndim))) * g.cell_volume
    assert np.max(np.abs(masses - masses[0])) <= 1e-8 * masses[0]
    assert traj.clipped_mass <= 1e-8 * masses[0]


def test_snapshot_times_are_exact_multiples():
    setup = small_setup()
    traj = run(setup)
    assert np.array_equal(traj.times, np.arange(11) * 0.005)
    assert len(traj.dts) == traj.meta["steps"]


def test_run_is_bitwise_deterministic():
    a = run(small_setup())
    b = run(small_setup())
    assert np.array_equal(a.n, b.n)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.dts, b.dts)


def test_pressure_density_consistency_along_run():
    traj = run(small_setup())
    for k in (0, len(traj) // 2, len(traj) - 1):
        p = model.pressure_from_density(traj.n[k], traj.params.gamma)
        assert np.allclose(traj.p[k], p, rtol=1e-12, atol=1e-300)


def test_state_bounds_enforced_along_run():
    traj = run(small_setup())
    params = traj.params
    assert float(np.min(traj.n)) >= 0.0
    assert float(np.max(traj.n)) <= params.n_H + 1e-8
    assert float(np.min(traj.c)) >= -1e-8
    assert float(np.max(traj.c)) <= params.c_B + 1e-8


def test_non_finite_initial_data_rejected(tmp_path):
    # NaN fails every bound comparison, so finiteness is checked on its own
    setup = small_setup()
    n0 = setup.n0.copy()
    n0[40] = np.nan
    with pytest.raises(ValueError, match=r"n0 is not finite at cell \(40,\)"):
        run(dataclasses.replace(setup, n0=n0))
    c0 = setup.c0.copy()
    c0[7] = np.nan
    with pytest.raises(ValueError, match=r"c0 is not finite at cell \(7,\)"):
        run(dataclasses.replace(setup, c0=c0))
    g, path = setup.grid, tmp_path / "n0.csv"
    np.savetxt(path, np.column_stack([g.coords[0], n0]), delimiter=",",
               header="x0,value", comments="", fmt="%.17g")
    with pytest.raises(ValueError, match=r"n0 .*n0\.csv\) is not finite at cell \(40,\)"):
        solver.initial_from_csv(g, setup.params, path)


def test_initial_data_validation():
    setup = small_setup()
    bad = RunSetup(grid=setup.grid, params=setup.params, spec=setup.spec,
                   n0=setup.n0 + 2.0, c0=setup.c0, T=0.01, snapshot_dt=0.01)
    with pytest.raises(ValueError, match="n0"):
        run(bad)
    bad_c = RunSetup(grid=setup.grid, params=setup.params, spec=setup.spec,
                     n0=setup.n0, c0=setup.c0 + 1.0, T=0.01, snapshot_dt=0.01)
    with pytest.raises(ValueError, match="c0"):
        run(bad_c)


def test_partial_flush_on_failure(tmp_path):
    params = model.ModelParams(gamma=6.0)
    # negative consumption pumps the nutrient above c_B: the per-step state
    # check trips, and the streamed file holds the snapshots reached
    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))
    spec = model.ReactionSpec(G=lambda p, c: zero(p),
                              H=lambda c: np.full_like(np.asarray(c, dtype=float), -5.0),
                              K=zero, c_star=1.0, params=params)
    g = Grid.symmetric(1, 1.0, 64)
    n0 = np.full(g.shape, 0.5)
    setup = RunSetup(grid=g, params=params, spec=spec, n0=n0,
                     c0=solver.nutrient_uniform(g, params), T=0.1,
                     snapshot_dt=0.01)
    times = solver.snapshot_times(setup.T, setup.snapshot_dt)
    with runio.FieldWriter(tmp_path / "aborted", times) as fields:
        with pytest.raises(SolverError):
            run(setup, sink=fields)
        fields.abort()
    # the first step fails, so only the initial snapshot was reached
    partial = json.loads((tmp_path / "aborted" / "partial.json").read_text())
    assert partial["snapshots"] == 1 and partial["times"] == [0.0]
    blocks = np.fromfile(tmp_path / "aborted" / "fields.partial.bin", dtype="<f8")
    assert np.array_equal(blocks.reshape(1, 3, *g.shape)[0, 0], n0)


PARTIAL_CFG = """
[model]
gamma = 12
[grid]
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
horizon = 0.02
snapshot_dt = 2e-3
[monitors]
selection = direct
"""


def test_partial_flush_holds_the_snapshots_reached(tmp_path, monkeypatch):
    cfg = config.parse_config_text(PARTIAL_CFG, env={})
    full = limit.run_once(cfg)[0]
    check = solver._check_state

    def fail_late(state, params):
        check(state, params)
        if state.t > 0.007:
            raise SolverError(f"injected failure at t={state.t}")

    monkeypatch.setattr(solver, "_check_state", fail_late)
    with pytest.raises(SolverError, match="injected") as err:
        limit.run_once(cfg, out_root=tmp_path)
    # snapshots 0, 2e-3, 4e-3 and 6e-3 were reached
    assert err.value.partial_dir is not None
    run_dir, = tmp_path.iterdir()
    assert err.value.partial_dir == run_dir
    assert sorted(p.name for p in run_dir.iterdir()) == ["fields.partial.bin",
                                                          "partial.json"]
    partial = json.loads((run_dir / "partial.json").read_text())
    assert partial["snapshots"] == 4
    assert partial["times"] == full.times[:4].tolist()
    blocks = np.fromfile(run_dir / "fields.partial.bin", dtype="<f8")
    blocks = blocks.reshape(4, 3, *full.grid.shape)
    for i, name in enumerate(runio.FIELD_NAMES):
        assert np.array_equal(blocks[:, i], getattr(full, name)[:4]), name


def test_finite_propagation_one_cell_layer_per_step():
    setup = small_setup(gamma=10.0)
    prev = None
    for k, state in enumerate(solver.iterate_states(setup, max_steps=200)):
        mask = state.n > 1e-12
        if prev is not None:
            allowed = binary_dilation(prev)
            assert np.all(allowed[mask]), f"support jumped more than one cell at step {k}"
        prev = mask


def test_iterate_states_takes_no_infinite_step():
    # a uniform state with reactions off gives the step rule no finite bound;
    # the empty state is the uniform one that stays inside the box
    params = model.ModelParams(gamma=10.0)
    spec = solver.reactions_off(params)
    g = Grid.symmetric(1, 1.0, 32)
    for value in (0.5, 0.0):
        assert cfl_dt(make_state(g, params, np.full(g.shape, value)), params, spec) == math.inf
    setup = RunSetup(grid=g, params=params, spec=spec, n0=np.zeros(g.shape),
                     c0=solver.nutrient_uniform(g, params), T=0.01, snapshot_dt=0.002)
    times = [s.t for s in solver.iterate_states(setup, max_steps=5)]
    assert times == pytest.approx([0.0, 0.002, 0.004, 0.006, 0.008, 0.01], abs=1e-15)


def test_run_calls_each_stage_once_per_step_through_the_module(monkeypatch):
    # wrappers on the module attributes see every step (benchmark tracers rely
    # on this), and no stage writes into the arrays of its input state or
    # hands out an array that a later step overwrites
    calls = {"cfl_dt": 0, "step_density": 0, "step_nutrient": 0}
    outputs = []

    def counting(name):
        inner = getattr(solver, name)

        def wrapper(*args, **kwargs):
            state = args[0]
            before = [a.copy() for a in (state.n, state.p, state.c)]
            result = inner(*args, **kwargs)
            calls[name] += 1
            for a, b in zip((state.n, state.p, state.c), before):
                assert np.array_equal(a, b), f"{name} mutated its input state"
            if name == "step_density":
                assert isinstance(result[2], float)
                outputs.extend((result[0], result[0].copy(), result[1], result[1].copy()))
            elif name == "step_nutrient":
                outputs.extend((result, result.copy()))
            return result
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    traj = run(small_setup())
    steps = traj.meta["steps"]
    assert steps > 0 and calls == dict.fromkeys(calls, steps)
    for out, copy in zip(outputs[::2], outputs[1::2]):
        assert np.array_equal(out, copy)


def test_step_counts_pinned():
    # the step sequence is part of the bitwise-reproducible output
    assert run(small_setup()).meta["steps"] == 349
    params = model.ModelParams(gamma=6.0)
    g = Grid.symmetric(2, 1.5, 24)
    n0, _ = solver.initial_plateau(g, params, theta=0.5, radius=0.6, edge=0.25)
    setup = RunSetup(grid=g, params=params, spec=model.default_reactions(params),
                     n0=n0, c0=solver.nutrient_uniform(g, params), T=0.02,
                     snapshot_dt=0.005)
    assert run(setup).meta["steps"] == 63


def test_standard_step_counts_pinned_and_flat_in_gamma(standard_sweep):
    # the 1D step rule follows the Darcy front, not gamma / h^2
    steps = {g: standard_sweep[g][0].meta["steps"] for g in (10.0, 80.0)}
    assert steps == {10.0: 4905, 80.0: 4487}
    assert abs(steps[10.0] - steps[80.0]) < 0.15 * min(steps.values())


def test_nutrient_zero_rhs_skips_the_solve():
    params = model.ModelParams(gamma=5.0)
    spec = solver.reactions_off(params)
    g = Grid.symmetric(1, 1.0, 32)
    state = make_state(g, params, np.full(g.shape, 0.5))
    nut = solver._NutrientSolver(g)

    def no_lapack(*args):
        raise AssertionError("a zero right-hand side needs no solve")

    nut._gtsv = no_lapack
    c_new = step_nutrient(state, 1e-3, params, spec, _solver=nut)
    assert np.array_equal(c_new, np.full(g.shape, params.c_B))
    assert c_new is not state.c
    g = Grid.symmetric(2, 1.0, 16)
    state = make_state(g, params, np.full(g.shape, 0.5))
    nut = solver._NutrientSolver(g)
    nut._dstn = no_lapack
    c_new = step_nutrient(state, 1e-3, params, spec, _solver=nut)
    assert np.array_equal(c_new, np.full(g.shape, params.c_B))


# ---------------------------------------------------------------------------
# initial data builders
# ---------------------------------------------------------------------------

def test_plateau_height_modes():
    params = model.ModelParams(gamma=40.0)
    g = Grid.symmetric(1, 2.0, 128)
    n_p, p_p = solver.initial_plateau(g, params, 0.5, 0.7, 0.3, height="pressure")
    assert float(np.max(p_p)) == pytest.approx(0.5 * params.p_H, rel=1e-12)
    n_d, p_d = solver.initial_plateau(g, params, 0.5, 0.7, 0.3, height="density")
    assert float(np.max(n_d)) == pytest.approx(0.5 * params.n_H, rel=1e-12)
    assert float(np.max(p_d)) == pytest.approx((0.5 * params.n_H) ** params.gamma,
                                               rel=1e-10)
    for n0 in (n_p, n_d):
        assert np.all(n0 >= 0.0) and np.all(n0 <= params.n_H + 1e-15)


def test_prerelaxed_profile_is_gamma_uniform():
    g = Grid.symmetric(1, 2.0, 96)
    spec10 = model.default_reactions(model.ModelParams(gamma=10.0))
    spec40 = model.default_reactions(model.ModelParams(gamma=40.0))
    _, p_a = solver.initial_prerelaxed(g, model.ModelParams(gamma=10.0), spec10,
                                       theta=0.5, radius=0.7, edge=0.3, t_relax=0.01)
    _, p_b = solver.initial_prerelaxed(g, model.ModelParams(gamma=40.0), spec40,
                                       theta=0.5, radius=0.7, edge=0.3, t_relax=0.01)
    assert np.array_equal(p_a, p_b)
    # warmup smooths: the relaxed profile has smaller extreme gradients
    _, p_raw = solver.initial_plateau(g, model.ModelParams(gamma=10.0), 0.5, 0.7, 0.3)
    assert float(np.max(np.abs(np.diff(p_a)))) < float(np.max(np.abs(np.diff(p_raw))))


def test_prerelaxed_warmup_runs_once_per_inputs(monkeypatch):
    g = Grid.symmetric(1, 2.0, 96)
    runs = []
    real_run = solver.run

    def counting_run(setup):
        runs.append(setup.params.gamma)
        return real_run(setup)

    monkeypatch.setattr(solver, "run", counting_run)
    solver._warmup_pressure.cache_clear()
    out = {}
    for gamma in (10.0, 40.0):
        params = model.ModelParams(gamma=gamma)
        out[gamma] = solver.initial_prerelaxed(
            g, params, model.default_reactions(params), theta=0.5, radius=0.7,
            edge=0.3, t_relax=0.0075)
    assert runs == [80.0]                     # one warmup, at gamma_prep
    assert np.array_equal(out[10.0][1], out[40.0][1])
    out[10.0][1][:] = 0.0                     # callers get their own copy
    assert np.any(out[40.0][1] > 0.0)


def test_initial_from_csv_roundtrip(tmp_path):
    params = model.ModelParams(gamma=10.0)
    g = Grid.symmetric(1, 1.0, 32)
    n0 = np.clip(0.5 + 0.3 * np.sin(g.coords[0] * 3.0), 0.0, params.n_H)
    np.savetxt(tmp_path / "n0.csv", np.column_stack([g.coords[0], n0]), delimiter=",",
               header="x0,value", comments="", fmt="%.17g")
    n_read, p_read = solver.initial_from_csv(g, params, tmp_path / "n0.csv")
    assert np.allclose(n_read, n0, rtol=0, atol=1e-15)


def test_nutrient_deficit_bounds():
    params = model.ModelParams(gamma=10.0)
    g = Grid.symmetric(1, 1.0, 64)
    c0 = solver.nutrient_deficit(g, params, depth=0.7, radius=0.5)
    # cell centers sit at +-h/2, so the sampled minimum is marginally above
    # the analytic trough c_B*(1 - depth)
    assert 0.3 * params.c_B <= float(np.min(c0)) <= 0.3 * params.c_B + 1e-3
    assert float(np.max(c0)) == pytest.approx(params.c_B, rel=1e-12)


def test_two_dimensional_run_against_radial_oracle():
    gamma = 4.0
    params = model.ModelParams(gamma=gamma, p_H=4.0)
    spec = solver.reactions_off(params)
    from tumorhs.analytic import BarenblattParams, barenblatt_density
    prm = BarenblattParams(m=gamma + 1.0, d=2, mass=1.0,
                           kappa=gamma / (gamma + 1.0), t0=0.2)
    errs = {}
    for N in (48, 96):
        g = Grid.symmetric(2, 1.5, N)
        setup = RunSetup(grid=g, params=params, spec=spec,
                         n0=barenblatt_density(g.radius, 0.0, prm),
                         c0=solver.nutrient_uniform(g, params),
                         T=0.3, snapshot_dt=0.1)
        traj = run(setup)
        exact = barenblatt_density(g.radius, 0.3, prm)
        errs[N] = float(np.sum(np.abs(traj.n[-1] - exact))) * g.cell_volume
        masses = np.sum(traj.n, axis=(1, 2)) * g.cell_volume
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]
        # the scheme preserves the exact discrete symmetries of radial data
        assert np.array_equal(traj.n[-1], traj.n[-1].T)
        assert np.array_equal(traj.n[-1], traj.n[-1][::-1, :])
    assert errs[96] < 0.7 * errs[48]


@pytest.mark.parametrize("N", [100, 200, 400])
def test_barenblatt_cell_averages_carry_the_mass(N):
    # each cell is clipped to the support before the quadrature; across the
    # front the unclipped rule lost 5.7e-4 of the mass at N = 100
    from tumorhs.analytic import BarenblattParams
    gamma = 5.0
    prm = BarenblattParams(m=gamma + 1.0, d=1, mass=1.0,
                           kappa=gamma / (gamma + 1.0), t0=0.1)
    g = Grid.symmetric(1, 2.0, N)
    for t in (0.0, 1.0):
        mass = float(np.sum(solver.barenblatt_cell_averages(g, t, prm))) * g.h
        assert mass == pytest.approx(1.0, abs=1e-5), (N, t)


# ---------------------------------------------------------------------------
# verification study (uses the session cache)
# ---------------------------------------------------------------------------

def test_barenblatt_convergence_every_gamma(barenblatt_study):
    for gamma, (rows, orders) in barenblatt_study.items():
        errs = [r[2] for r in rows]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1)), \
            f"gamma={gamma}: errors not decreasing: {errs}"
        endpoint = math.log(errs[0] / errs[-1]) / math.log(rows[-1][0] / rows[0][0])
        assert endpoint >= 0.8, f"gamma={gamma}: measured order {endpoint:.2f}"
