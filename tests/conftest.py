"""Shared fixtures: the standard 1D gamma sweep and the Barenblatt refinement
study are expensive, so they run once per session and everything that checks
sweep-level behavior (bands, decay fits, limit comparisons, acceptance
criteria) reads from the cached results."""

import pathlib

import pytest
from hypothesis import settings

from tumorhs import config as config_mod
from tumorhs import limit, solver

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=25)
settings.load_profile("ci")

REPO = pathlib.Path(__file__).resolve().parent.parent
STANDARD_CFG = REPO / "configs" / "standard1d.cfg"
SWEEP_GAMMAS = (10.0, 20.0, 40.0, 80.0)


@pytest.fixture(scope="session")
def standard_cfg():
    return config_mod.parse_config(STANDARD_CFG)


@pytest.fixture(scope="session")
def standard_sweep(standard_cfg):
    """gamma -> (trajectory, monitor report, setup) for the standard experiment."""
    return {gamma: limit.run_once(standard_cfg, gamma)[:3] for gamma in SWEEP_GAMMAS}


@pytest.fixture(scope="session")
def barenblatt_study():
    """gamma -> (rows, orders) for the refinement ladder of criterion 1."""
    out = {}
    for gamma in (3.0, 5.0, 9.0):
        out[gamma] = solver.barenblatt_convergence(gamma, (200, 400, 800), T=1.0)
    return out


@pytest.fixture(scope="session")
def focusing_trace():
    from tumorhs import analytic
    return analytic.evolve_hole(0.01, 1.0)
