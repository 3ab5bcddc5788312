"""Shared fixtures.

The expensive pipeline artifacts (the eps = 0.1 closure run and the
five-point epsilon sweep) are session-scoped so the whole suite pays for
them once.  Every epsilon in SWEEP_EPS has been checked non-resonant for
the a = 0.9 sine-Gordon orbit with the production gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from kgperiodic.assembly import assemble_u, epsilon_sweep
from kgperiodic.closure import solve_delta1
from kgperiodic.nonlinearity import Nonlinearity
from kgperiodic.planar import find_orbit

# Canonical non-resonant fixture point: amplitude 0.9, eps 0.1.  (At a = 1.0
# the value eps = 0.1 falls inside the (k=3, j=27) resonance window, so the
# canonical amplitude is 0.9 throughout the suite.)
FIXTURE_AMP = 0.9
FIXTURE_EPS = 0.1

# Gate-verified non-resonant sweep grid (production truncation K = 64).
SWEEP_EPS = (0.096, 0.1015, 0.1175, 0.148, 0.193)


@pytest.fixture(scope="session")
def sine_gordon() -> Nonlinearity:
    return Nonlinearity.sine_gordon()


@pytest.fixture(scope="session")
def phi4() -> Nonlinearity:
    return Nonlinearity.phi4()


@pytest.fixture(scope="session")
def orbit09(sine_gordon):
    return find_orbit(sine_gordon.f3, FIXTURE_AMP)


@pytest.fixture(scope="session")
def orbit10(sine_gordon):
    return find_orbit(sine_gordon.f3, 1.0)


@pytest.fixture(scope="session")
def closure01(sine_gordon, orbit09):
    """Full coupled solve at the canonical fixture point (about a minute)."""
    return solve_delta1(orbit09, FIXTURE_EPS, sine_gordon)


@pytest.fixture(scope="session")
def solution01(closure01):
    return assemble_u(closure01)


@pytest.fixture(scope="session")
def sweep_report(sine_gordon):
    """Five-point sweep for the fit laws (several minutes, run once)."""
    return epsilon_sweep(sine_gordon, FIXTURE_AMP, SWEEP_EPS)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
