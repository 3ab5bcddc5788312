"""Hill spectrum, divisor roots, resonance windows, measure tests."""

import math
import time
import warnings

import numpy as np
import pytest

from kgperiodic import divisors
from kgperiodic.divisors import (
    CoverageError,
    _linear_fit,
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

from oracles import (ZERO_MODEL, divisor_root_exact, divisor_root_float,
                     mpmath_low_hill_eigs, oracle_averaged_potential,
                     oracle_hill_eigs, oracle_is_resonant)

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
        q = averaged_potential(traj, eps, Nonlinearity.phi4())
        v = traj.resample(256)
        expected = -(1.5 / (1.0 + eps**2)) * v**2
        assert np.max(np.abs(q - expected)) < 1e-13

    @pytest.mark.parametrize("model", [
        Nonlinearity.sine_gordon(), Nonlinearity.phi4(),
        Nonlinearity("custom", (1.0, -0.5, 0.25), trust_radius=2.0)],
        ids=["sine-gordon", "phi4", "custom"])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_closed_form_moments_match_collocation(self, model, eps):
        # the x-moments C(2n, n)/4^n summed in closed form against the mean
        # over the 128-point x grid of the collocated multiplier: a few ulp
        traj = find_orbit(model.f3, 0.9).trajectory(256)
        q = averaged_potential(traj, eps, model)
        ref = oracle_averaged_potential(traj, eps, model)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(q - ref)) <= 4.0 * np.finfo(float).eps * scale

    def test_model_none_is_zero(self):
        traj = find_orbit(1.0, 0.9).trajectory(64)
        assert np.array_equal(averaged_potential(traj, 0.1, ZERO_MODEL), np.zeros(256))

    def test_even_and_periodic(self):
        traj = find_orbit(1.0, 0.9).trajectory(128)
        q = averaged_potential(traj, 0.1, Nonlinearity.sine_gordon())
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
        q = 0.3 * np.cos(4 * np.pi * taus / period) - 0.1
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


def _dense_calls(monkeypatch):
    """Record the matrix sizes handed to the dense fallback."""
    calls = []
    dense = divisors._dense_eigvals

    def spy(e, diagonal):
        calls.append(diagonal.shape[0])
        return dense(e, diagonal)

    monkeypatch.setattr(divisors, "_dense_eigvals", spy)
    return calls


class TestBandedHillEigs:
    """The Hill eigensolve against the dense Galerkin oracle.

    Every case runs with the dense fallback forbidden, so each is shown to
    take the certified path.
    """

    @pytest.fixture(autouse=True)
    def certified_only(self, monkeypatch):
        calls = _dense_calls(monkeypatch)
        yield
        assert calls == []

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

    def test_odd_harmonic_potential_refused(self):
        # a p-periodic potential has odd harmonics, whose couplings join the
        # even-j and odd-j classes: it is refused, naming their mass
        period = 6.0
        taus = period * np.arange(128) / 128
        q = 0.3 * np.cos(2 * np.pi * taus / period) - 0.1
        with pytest.raises(ValueError, match="odd harmonics have Weyl mass 4.500e-01"):
            hill_eigs(q, period, 120)

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


def _canonical_potential():
    model = Nonlinearity.sine_gordon()
    traj = find_orbit(model.f3, 0.9).trajectory(256)
    return averaged_potential(traj, 0.1, model), traj.period


class TestHillPaths:
    """Which solves take the certified path and which the dense fallback."""

    @pytest.mark.parametrize("smallest_class", [63, 64])
    def test_size_selection(self, monkeypatch, smallest_class):
        # the canonical potential splits into classes of (J + 2) // 2 and
        # (J + 1) // 2 cosines; small classes are certified as well
        q, period = _canonical_potential()
        J = 2 * smallest_class - 1
        calls = _dense_calls(monkeypatch)
        spec = hill_eigs(q, period, J)
        assert calls == []
        dense = oracle_hill_eigs(q, period, J)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(spec.eigenvalues - dense)) <= spec.radius + 1e-13 * scale
        assert spec.radius <= np.finfo(float).eps * scale

    def test_strong_potential_falls_back(self, monkeypatch):
        # couplings of 1.5 against a diagonal spacing of 0.4 at the bottom
        # of each class: the local eigenvectors do not exist, the intervals
        # overlap, and the whole matrix goes to the dense solve
        period, J = 20.0, 150
        taus = period * np.arange(256) / 256
        q = 3.0 * np.cos(4 * np.pi * taus / period)
        calls = _dense_calls(monkeypatch)
        spec = hill_eigs(q, period, J)
        assert calls == [J + 1]
        dense = oracle_hill_eigs(q, period, J)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(spec.eigenvalues - dense)) <= spec.radius + 1e-13 * scale
        assert spec.radius <= np.finfo(float).eps * scale

    def test_oversize_fallback_raises(self):
        # the strong potential past the dense fallback's size: the failed
        # certificate raises instead of starting a cubic solve
        period = 20.0
        J = divisors._DENSE_MAX_SIZE
        taus = period * np.arange(256) / 256
        q = 3.0 * np.cos(4 * np.pi * taus / period)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="dense fallback stops at"):
            hill_eigs(q, period, J)
        assert time.perf_counter() - start < 1.0

    def test_kato_temple_term_in_radius(self, monkeypatch):
        # a single harmonic: the band drops only round-off harmonics, and
        # the radius is almost all Kato-Temple term from the slowly
        # converging bottom of the spectrum
        period, J = 6.0, 120
        taus = period * np.arange(128) / 128
        q = 0.3 * np.cos(4 * np.pi * taus / period) - 0.1
        calls = _dense_calls(monkeypatch)
        spec = hill_eigs(q, period, J)
        assert calls == []
        # the dropped mass is at most three times the sum of |e[n]| at
        # n = 1 and past n = 2
        dropped = 1.5 * (abs(spec.q_coeffs[1]) + np.sum(np.abs(spec.q_coeffs[3:])))
        assert spec.radius > 10.0 * dropped
        dense = oracle_hill_eigs(q, period, J)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(spec.eigenvalues - dense)) <= spec.radius + 1e-13 * scale
        assert spec.radius <= np.finfo(float).eps * scale
        _assert_low_end_within_radius(spec, q, period)

    def test_canonical_low_end_within_radius(self):
        # the gate's J = 400 solve, certified; its Kato-Temple term comes
        # from j = 0 and is tight there to a factor of two
        q, period = _canonical_potential()
        _assert_low_end_within_radius(hill_eigs(q, period, 400), q, period)


def _assert_low_end_within_radius(spec, q, period, n_low=8):
    """The lowest eigenvalues against 40-digit ones, where a dense solve's
    round-off would hide a radius that is too small."""
    ref = mpmath_low_hill_eigs(q, period, n_low)
    roundoff = 16 * np.finfo(float).eps * np.max(np.abs(ref))
    assert np.max(np.abs(spec.eigenvalues[:n_low] - ref)) <= spec.radius + roundoff


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
        rep = is_resonant(mid, params, table)
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
        # the table's K_max is the range of k searched
        params = ResonanceParams()
        for k_max in (2, 3, 4):
            table = DivisorTable.build(flat_2pi, K_max=k_max, J_max=400)
            for eps in np.linspace(0.03, 0.3, 41):
                assert (is_resonant(float(eps), params, table)
                        == oracle_is_resonant(float(eps), params, table))

    def test_coverage_errors_match_oracle(self, flat_2pi):
        table = DivisorTable.build(flat_2pi, K_max=3, J_max=50)
        params = ResonanceParams()
        for query in (1e-4, 0.05):
            with pytest.raises(CoverageError) as ours:
                is_resonant(query, params, table)
            with pytest.raises(CoverageError) as theirs:
                oracle_is_resonant(query, params, table)
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


class TestLinearFit:
    @pytest.mark.parametrize("case", ["noisy", "exact line", "falling",
                                      "two points", "constant y"])
    def test_matches_linregress(self, case, rng):
        from scipy.stats import linregress

        x = np.sort(rng.uniform(2.0, 40.0, 7))
        y = {"noisy": -0.3 * x + rng.normal(0.0, 0.5, 7),
             "exact line": 1.5 * x - 2.0,
             "falling": np.log(np.exp(-0.2 * x) + 1e-3 * rng.random(7)),
             "two points": 0.7 * x,
             "constant y": np.full(7, -3.25)}[case]
        if case == "two points":
            x, y = x[:2], y[:2]
        slope, r2 = _linear_fit(x, y)
        ref = linregress(x, y)
        assert slope == pytest.approx(ref.slope, rel=1e-14, abs=0.0)
        if case == "constant y":
            assert math.isnan(r2) and math.isnan(ref.rvalue)
        else:
            assert r2 == pytest.approx(ref.rvalue**2, rel=1e-14, abs=0.0)

    def test_degenerate_x_gives_nan(self):
        for x in ([1.0], [2.0, 2.0, 2.0]):
            slope, r2 = _linear_fit(np.array(x), np.arange(len(x), dtype=float))
            assert math.isnan(slope) and math.isnan(r2)


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
            rep = is_resonant(eps, params, table)
            if rep.resonant:
                continue
            n += 1
            for k in (2, 3):
                m, _ = divisor_min(eps, k, flat_2pi)
                consts.append(m * k**params.gamma / eps ** (params.l - 1.0))
        floor = min(consts)
        assert floor > 0.05
