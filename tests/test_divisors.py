"""Hill spectrum, divisor roots, resonance windows, measure tests."""

import math
import time
import warnings

import numpy as np
import pytest

from kgperiodic.divisors import (
    CoverageError,
    DivisorTable,
    HillSpectrum,
    ResonanceParams,
    averaged_potential,
    divisor_min,
    epsilon_kj,
    hill_eigs,
    is_resonant,
    measure_exponent_fit,
    window_measure,
)
from kgperiodic.nonlinearity import Nonlinearity
from kgperiodic.planar import find_orbit

from oracles import (divisor_root_exact, divisor_root_float, oracle_hill_eigs,
                     oracle_is_resonant)

# Resonance value eps_{2,100} for the flat potential at period 2*pi, from
# the exact-rational bisection oracle on -4 + 1/(1+e^2) + 1e4 e^2 = 0.
EPS_2_100_ORACLE = 0.017321373906255252


@pytest.fixture(scope="module")
def flat_2pi():
    return HillSpectrum.flat(2.0 * np.pi, 400)


class TestAveragedPotential:
    def test_zero_base_point_phi4(self):
        traj = find_orbit(6.0, 1e-9).trajectory(64)
        q = averaged_potential(traj, 0.1, Nonlinearity.phi4())
        assert np.max(np.abs(q)) < 1e-15

    def test_phi4_proportional_v_squared(self):
        # multiplier -(3/omega^2)(v sin x)^2 has x-mean -(3/2) v^2 / omega^2
        eps = 0.1
        traj = find_orbit(6.0, 1.0).trajectory(64)
        q = averaged_potential(traj, eps, Nonlinearity.phi4(), M_tau=64)
        v = traj.resample(64)
        expected = -(1.5 / (1.0 + eps**2)) * v**2
        assert np.max(np.abs(q - expected)) < 1e-13

    def test_even_and_periodic(self):
        traj = find_orbit(1.0, 0.9).trajectory(128)
        q = averaged_potential(traj, 0.1, Nonlinearity.sine_gordon(),
                               M_tau=128)
        # evenness in tau: q[m] = q[M-m]
        assert np.max(np.abs(q[1:] - q[::-1][:-1])) < 1e-12


class TestHillEigs:
    def test_flat_potential(self, flat_2pi):
        js = np.arange(0, 40)
        assert np.max(np.abs(flat_2pi.lambda_at(js) - js.astype(float) ** 2)) < 1e-11
        assert flat_2pi.radius == 0.0

    def test_constant_shift(self):
        period = 5.0
        spec = hill_eigs(np.full(64, 2.5), period, 60)
        js = np.arange(0, 30)
        expected = (2 * np.pi * js / period) ** 2 + 2.5
        assert np.max(np.abs(spec.lambda_at(js) - expected)) < 1e-10

    def test_growth_rate_generic(self):
        period = 6.0
        taus = period * np.arange(128) / 128
        q = 0.3 * np.cos(2 * np.pi * taus / period) - 0.1
        spec = hill_eigs(q, period, 120)
        js = np.arange(20, 60)
        ratio = spec.lambda_at(js) / js.astype(float) ** 2
        assert np.max(np.abs(ratio - (2 * np.pi / period) ** 2)) < 0.01

    def test_eigenvalue_simplicity(self):
        period = 6.058
        taus = period * np.arange(128) / 128
        q = -0.4 * np.cos(2 * np.pi * taus / period) ** 2
        spec = hill_eigs(q, period, 80)
        lam = spec.lambda_at(np.arange(0, 81))
        assert np.min(np.diff(lam)) > 0.0


class TestBandedHillEigs:
    """The banded eigenvalue-only solve against the dense Galerkin oracle."""

    @pytest.mark.parametrize("spec, amplitude, eps", [
        ("sine-gordon", 0.9, 0.05),
        ("sine-gordon", 0.9, 0.1),
        ("sine-gordon", 0.9, 0.2),
        ("phi4", 0.8, 0.1),
    ])
    def test_production_potentials_within_radius(self, spec, amplitude, eps):
        # the resonance gate's potential: 256 tau samples, J = 400
        model = Nonlinearity.from_spec({"model": spec})
        traj = find_orbit(model.f3, amplitude).trajectory(256)
        q = averaged_potential(traj, eps, model)
        spec_banded = hill_eigs(q, traj.period, 400)
        dense = oracle_hill_eigs(q, traj.period, 400)
        scale = np.max(np.abs(dense))
        gap = np.max(np.abs(spec_banded.eigenvalues - dense))
        assert gap <= spec_banded.radius + 1e-13 * scale
        assert spec_banded.radius <= np.finfo(float).eps * scale

    def test_generic_potential_unsplit(self):
        # a p-periodic potential has odd harmonics: the whole matrix is solved
        period = 6.0
        taus = period * np.arange(128) / 128
        q = 0.3 * np.cos(2 * np.pi * taus / period) - 0.1
        spec = hill_eigs(q, period, 120)
        dense = oracle_hill_eigs(q, period, 120)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(spec.eigenvalues - dense)) <= spec.radius + 1e-13 * scale

    @pytest.mark.parametrize("J", [1, 2, 3, 4, 17, 40])
    def test_half_period_potential_split(self, J):
        # only even harmonics: the even-j and odd-j classes are solved apart
        # and interleaved, at every parity of the truncation
        period = 5.0
        taus = period * np.arange(64) / 64
        q = 0.8 * np.cos(4 * np.pi * taus / period) - 0.3 * np.cos(8 * np.pi * taus / period)
        spec = hill_eigs(q, period, J)
        dense = oracle_hill_eigs(q, period, J)
        assert spec.eigenvalues.shape == (J + 1,)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(spec.eigenvalues - dense)) <= spec.radius + 1e-13 * scale
        assert spec.radius <= np.finfo(float).eps * scale

    def test_constant_potential_large_truncation(self):
        # J = 20000 is a 3.2 GB dense matrix; the constant's band is diagonal
        period, q = 200.0, 2.5
        start = time.perf_counter()
        spec = hill_eigs(np.full(64, q), period, 20000)
        elapsed = time.perf_counter() - start
        js = np.arange(20001)
        expected = (2 * np.pi * js / period) ** 2 + q
        assert np.max(np.abs(spec.eigenvalues - expected)) < 1e-8
        assert elapsed < 1.0


class TestEpsilonKJ:
    def test_spot_value_2_100(self, flat_2pi):
        value = epsilon_kj(2, 100, flat_2pi)
        assert value == pytest.approx(EPS_2_100_ORACLE, abs=1e-10)
        assert value == pytest.approx(divisor_root_exact(2, 100 * 100), abs=1e-14)

    def test_defining_equation_residual(self, flat_2pi):
        for k, j in ((2, 10), (3, 55), (5, 400), (2, 100)):
            e = epsilon_kj(k, j, flat_2pi)
            lam = float(flat_2pi.lambda_at(j)[0])
            assert abs(-k * k + 1.0 / (1.0 + e * e) + e * e * lam) < 1e-12

    def test_defining_equation_to_1e13(self):
        # the docstring's claim, over k <= 8 and computed and asymptotic j
        spec = hill_eigs(np.full(64, 0.7), 6.3, 400)
        for k in range(2, 9):
            for j in (*range(1, 401, 7), 400, 10**3, 10**4, 10**5):
                e = epsilon_kj(k, j, spec)
                lam = float(spec.lambda_at(j)[0])
                assert abs(-k * k + 1.0 / (1.0 + e * e) + e * e * lam) < 1e-13

    def test_float_oracle_agreement(self, flat_2pi):
        for k, j in ((2, 37), (4, 211)):
            lam = float(flat_2pi.lambda_at(j)[0])
            assert epsilon_kj(k, j, flat_2pi) == pytest.approx(
                divisor_root_float(k, lam), abs=1e-13)

    def test_lambda_equal_k_squared_closed_form(self, flat_2pi):
        # at lambda_j = k^2 the root reduces to eps = (1 - 1/k^2)^(1/4);
        # this b = 0 corner of the quadratic must not fall through
        for k in (2, 3, 5):
            expected = (1.0 - 1.0 / k**2) ** 0.25
            assert epsilon_kj(k, k, flat_2pi) == pytest.approx(expected,
                                                               abs=1e-13)
        table = DivisorTable.build(flat_2pi, K_max=5, J_max=10)
        for k in (2, 3, 5):
            assert table.lookup(k, k) == pytest.approx(
                (1.0 - 1.0 / k**2) ** 0.25, abs=1e-13)

    def test_monotone_decreasing_in_j(self, flat_2pi):
        values = [epsilon_kj(2, j, flat_2pi) for j in range(10, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_no_root_for_nonpositive_lambda(self, flat_2pi):
        # j = 0 has lambda = 0: no positive eps solves the equation
        assert epsilon_kj(2, 0, flat_2pi) is None

    def test_tiny_lambda_root_without_overflow_warning(self):
        # lambda_0 = 1e-300: the root y = eps^2 ~ (k^2 - 1/(1+y))/lambda is
        # 4e300, so the Newton polish squares 1 + y past the float range;
        # 1/(1 + y)^2 = 0 is the right limit and must not warn
        spec = hill_eigs(np.full(2, 1e-300), 2.0 * np.pi, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = epsilon_kj(2, 0, spec)
        assert eps == pytest.approx(2e150, rel=1e-14)

    def test_asymptotic_law(self, flat_2pi):
        # j * eps_{k,j} -> (p/2pi) sqrt(k^2 - 1); j beyond the computed
        # truncation exercises the asymptotic tail of lambda_at
        spec = flat_2pi
        for k in (2, 3, 5):
            target = np.sqrt(k * k - 1.0)
            for j in (100, 1000, 10**4):
                scaled = j * epsilon_kj(k, j, spec)
                assert abs(scaled - target) / target < 0.01


class TestResonanceWindows:
    def test_center_is_resonant(self, flat_2pi):
        table = DivisorTable.build(flat_2pi, K_max=4, J_max=400)
        params = ResonanceParams()
        center = table.lookup(2, 100)
        rep = is_resonant(center, params, table)
        assert rep.resonant and rep.nearest_k == 2 and rep.nearest_j == 100

    def test_gap_midpoint_not_resonant(self, flat_2pi):
        table = DivisorTable.build(flat_2pi, K_max=2, J_max=400)
        params = ResonanceParams()
        mid = 0.5 * (table.lookup(2, 100) + table.lookup(2, 101))
        rep = is_resonant(mid, params, table, k_range=2)
        assert not rep.resonant
        assert rep.distance > 0.0

    def test_coverage_error_not_silent_false(self, flat_2pi):
        # query far below the tabulated centers must raise, never answer
        table = DivisorTable.build(flat_2pi, K_max=3, J_max=50)
        with pytest.raises(CoverageError):
            is_resonant(1e-4, ResonanceParams(), table)

    def test_query_does_not_tabulate(self, flat_2pi):
        table = DivisorTable.build(flat_2pi, K_max=64, J_max=4000)
        is_resonant(0.1, ResonanceParams(), table)
        assert "eps" not in vars(table)
        assert table.eps.shape == (63, 4000)

    def test_params_invariants(self):
        params = ResonanceParams()
        assert 2.0 <= 2.0 + params.alpha < params.l < 3.0
        assert params.gamma == pytest.approx(params.l - params.alpha - 2.0)
        with pytest.raises(ValueError):
            ResonanceParams(alpha=1.5, l=2.5)   # violates 2 + alpha < l


class TestWindowSearch:
    """The per-k window search against the full-table oracle."""

    @pytest.mark.parametrize("spec, amplitude", [("sine-gordon", 0.9),
                                                 ("phi4", 0.8)])
    @pytest.mark.parametrize("K", [6, 8, 64])
    def test_matches_table_oracle(self, spec, amplitude, K):
        # the gate's spectra and table extents on seeded eps draws
        model = Nonlinearity.from_spec({"model": spec})
        traj = find_orbit(model.f3, amplitude).trajectory(256)
        params = ResonanceParams()
        draws = np.random.default_rng(K).uniform(0.05, 0.2, 24)
        verdicts = set()
        for eps in (*draws, 0.05, 0.2, 0.1, 0.1396532019663832):
            eps = float(eps)
            j_table = math.ceil(2.5 * K * max(1.0, traj.period / (2 * np.pi)) / eps)
            q = averaged_potential(traj, eps, model)
            spectrum = hill_eigs(q, traj.period, min(400, j_table + 16))
            table = DivisorTable.build(spectrum, K_max=K, J_max=j_table)
            report = is_resonant(eps, params, table)
            assert report == oracle_is_resonant(eps, params, table)
            verdicts.add(report.resonant)
        assert verdicts == {True, False}

    def test_flat_spectrum_dense_scan(self, flat_2pi):
        # many queries on one table, across window edges and centers
        table = DivisorTable.build(flat_2pi, K_max=5, J_max=600)
        params = ResonanceParams()
        centers = [table.lookup(k, j) for k, j in ((2, 40), (3, 77), (5, 200))]
        probes = [c + s * d for c in centers for s in (-1, 1)
                  for d in (0.0, 1e-9, 1e-6, 1e-4)]
        for eps in (*np.linspace(0.02, 0.5, 97), *probes):
            assert is_resonant(float(eps), params, table) == oracle_is_resonant(
                float(eps), params, table)

    def test_k_range_matches_oracle(self, flat_2pi):
        table = DivisorTable.build(flat_2pi, K_max=4, J_max=400)
        params = ResonanceParams()
        for k_range in (2, 3, 4):
            for eps in np.linspace(0.03, 0.3, 41):
                assert (is_resonant(float(eps), params, table, k_range=k_range)
                        == oracle_is_resonant(float(eps), params, table,
                                              k_range=k_range))

    def test_coverage_errors_match_oracle(self, flat_2pi):
        table = DivisorTable.build(flat_2pi, K_max=3, J_max=50)
        params = ResonanceParams()
        for query, kwargs in ((1e-4, {}), (0.05, {}), (0.1, {"k_range": 4})):
            with pytest.raises(CoverageError) as ours:
                is_resonant(query, params, table, **kwargs)
            with pytest.raises(CoverageError) as theirs:
                oracle_is_resonant(query, params, table, **kwargs)
            assert str(ours.value) == str(theirs.value)


class TestMeasure:
    def test_direct_summation_bound(self, flat_2pi):
        # window-union measure inside (0, eps0) is O(eps0^(l-1))
        table = DivisorTable.build(flat_2pi, K_max=6, J_max=4000)
        params = ResonanceParams()
        m_10 = window_measure(table, params, 0.10)
        m_05 = window_measure(table, params, 0.05)
        assert 0.0 < m_05 < m_10
        # l - 1 = 1.5: halving eps0 should cut the measure by ~2^1.5
        assert m_10 / m_05 > 2.0

    def test_exponent_fit_in_band(self, flat_2pi):
        table = DivisorTable.build(flat_2pi, K_max=6, J_max=4000)
        slope, r2 = measure_exponent_fit(
            table, ResonanceParams(), [0.05, 0.075, 0.1, 0.15, 0.2])
        assert 1.3 <= slope <= 1.7
        assert r2 > 0.95


class TestDivisorMin:
    def test_zero_at_center(self, flat_2pi):
        center = epsilon_kj(2, 115, flat_2pi)
        m, j = divisor_min(center, 2, flat_2pi)
        assert m < 1e-12 and j == 115

    def test_positive_between_windows(self, flat_2pi):
        # eps = 0.015 sits between the (2,115) and (2,116) windows
        m, j = divisor_min(0.015, 2, flat_2pi)
        assert m > 0.0
        assert j in (115, 116)

    def test_scan_law_floor(self, flat_2pi):
        # 100 seeded non-resonant draws: min of m_k k^gamma / eps^(l-1) > 0
        params = ResonanceParams()
        table = DivisorTable.build(flat_2pi, K_max=3, J_max=4000)
        gen = np.random.default_rng(314159)
        consts = []
        n = 0
        while n < 100:
            eps = float(gen.uniform(0.03, 0.2))
            rep = is_resonant(eps, params, table, k_range=3)
            if rep.resonant:
                continue
            n += 1
            for k in (2, 3):
                m, _ = divisor_min(eps, k, flat_2pi)
                consts.append(m * k**params.gamma / eps ** (params.l - 1.0))
        floor = min(consts)
        assert floor > 0.05
