"""Model evaluation and rescaled-forcing tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgperiodic.fourier import (SpaceTimeField, cos_series, project_P,
                                project_Q, sin_synthesis_matrix, x_grid)
from kgperiodic.nonlinearity import (Nonlinearity, TrustRadiusError, _leading,
                                     collocate)
from kgperiodic.planar import find_orbit

from oracles import (horner_oracle, quadrature_P, richardson_slope,
                     truncation_oracle)


def forcing(model, eps, v, w_coeffs=None, M=32, N_q=8):
    """(f~, g): the P part and the Q part up to band ``N_q`` of the forcing
    collocated on M x points at xi = v sin x + sum_k w_coeffs[k] sin(k x)."""
    w_values = (None if w_coeffs is None
                else sin_synthesis_matrix(M, len(w_coeffs) - 1) @ w_coeffs)
    vals = collocate(model, eps, v, w_values, M)
    return project_P(vals), project_Q(vals, N_q)


class TestModels:
    def test_sine_gordon_value(self):
        # transcendental oracle: f(0.1) = 0.1 - sin(0.1)
        sg = Nonlinearity.sine_gordon()
        assert sg.eval(0.1) == pytest.approx(0.1 - np.sin(0.1), abs=1e-16)

    def test_oddness_and_zero(self, rng):
        for model in (Nonlinearity.sine_gordon(), Nonlinearity.phi4()):
            assert model.eval(0.0) == 0.0
            for u in rng.uniform(-0.5, 0.5, 10):
                assert model.eval(-u) == pytest.approx(-model.eval(u), abs=1e-18)

    def test_phi4_third_derivative(self):
        assert Nonlinearity.phi4().f3 == 6.0

    def test_sine_gordon_third_derivative(self):
        assert Nonlinearity.sine_gordon().f3 == pytest.approx(1.0, abs=1e-15)

    def test_trust_radius(self):
        sg = Nonlinearity.sine_gordon()
        with pytest.raises(TrustRadiusError):
            sg.eval(1e3)

    def test_from_spec_variants(self):
        assert Nonlinearity.from_spec({"model": "phi4"}).f3 == 6.0
        custom = Nonlinearity.from_spec(
            {"model": "custom", "odd_coeffs": [0.5, 0.25]})
        assert custom.f3 == 3.0
        with pytest.raises(ValueError):
            Nonlinearity.from_spec({"model": "quadratic"})

    def test_non_finite_sample_rejected(self):
        # max|u| > radius is False for NaN: the check must not let it pass
        for model in (Nonlinearity.sine_gordon(), Nonlinearity.phi4()):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(TrustRadiusError, match="non-finite"):
                    model.scaled_eval(np.array([0.1, bad]), 0.1)
                with pytest.raises(TrustRadiusError):
                    model.eval(bad)

    def test_truncation_table(self):
        # every term is kept at the trust radius, so the certified region
        # is unchanged; sine-Gordon at amplitude eps |xi| <= 0.2 keeps six
        sg = Nonlinearity.sine_gordon()
        z_top = sg.trust_radius**2
        for coeffs in (sg.odd_coeffs, sg._scaled_deriv_coeffs,
                       sg._antideriv_coeffs):
            assert _leading(coeffs, z_top) == coeffs
            assert _leading(coeffs, 0.0) == coeffs[:1]
        assert len(_leading(sg.odd_coeffs, 0.2**2)) == 6

    def test_truncation_matches_its_definition(self):
        # seeded coefficient lists of mixed magnitude, z from 2^-80 to 2^6
        gen = np.random.default_rng(20260)
        for _ in range(5000):
            n = int(gen.integers(1, 14))
            coeffs = tuple(float(c) for c in gen.standard_normal(n)
                           * np.exp2(gen.uniform(-30.0, 30.0, n)))
            z = float(np.exp2(gen.uniform(-80.0, 6.0)))
            assert len(_leading(coeffs, z)) == truncation_oracle(coeffs, z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_series_keeps_every_term(self):
        # terms 10^(11 n) pass the largest double from n = 28 on, and three
        # terms of 1e308 sum past it: neither raises nor drops a term
        coeffs = tuple(10.0**n for n in range(41))
        assert _leading(coeffs, 1e10) == coeffs
        assert _leading((1e308,) * 3, 1.0) == (1e308,) * 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coeffs, radius, match", [
        ((1.0, np.nan), 1.0, "finite"),
        ((1.0, -np.inf), 1.0, "finite"),
        ((1.0,), np.inf, "finite"),
        ((1.0,), np.nan, "finite"),
        ((1.0, 1e308, 1e308), 1.0, "overflows"),
        ((1.0, 1.0), 1e200, "overflows"),
    ])
    def test_non_finite_or_overflowing_model_rejected(self, coeffs, radius,
                                                       match):
        with pytest.raises(ValueError, match=match):
            Nonlinearity("custom", coeffs, trust_radius=radius)

    def test_scaled_eval_exact_at_zero(self):
        # f(eps y)/eps^3 -> c3 y^3 with no cancellation at eps = 0
        phi4 = Nonlinearity.phi4()
        y = np.array([0.3, -1.2])
        assert np.allclose(phi4.scaled_eval(y, 0.0), y**3, atol=0.0)


class TestTildeForcing:
    def test_phi4_limit_value(self):
        # P(sin^3 x) = 3/4, so tilde_f -> -f'''(0) v^3 / 8 = -3/4 at v = 1
        f, _ = forcing(Nonlinearity.phi4(), 0.0, 1.0)
        assert f == pytest.approx(-0.75, abs=1e-14)

    def test_phi4_limit_field(self):
        _, g = forcing(Nonlinearity.phi4(), 0.0, 1.0, N_q=5)
        assert g[3] == pytest.approx(0.25, abs=1e-14)
        assert np.max(np.abs(np.delete(g, 3))) < 1e-14

    def test_zero_input(self):
        for model in (Nonlinearity.sine_gordon(), Nonlinearity.phi4()):
            f, g = forcing(model, 0.1, 0.0)
            assert f == 0.0
            assert np.all(g == 0.0)

    def test_q_output_orthogonal_to_sin_x(self, rng):
        sg = Nonlinearity.sine_gordon()
        for _ in range(5):
            coeffs = 0.1 * rng.standard_normal(6)
            coeffs[:2] = 0.0
            _, g = forcing(sg, 0.1, rng.uniform(-1, 1), coeffs, M=60)
            assert g[1] == 0.0

    def test_against_quadrature_oracle(self):
        # independent collocation of -(1/omega^2) P f(eps v sin x)/eps^3
        sg = Nonlinearity.sine_gordon()
        eps, v = 0.15, 0.8
        omega2 = 1.0 + eps**2

        def integrand(x):
            u = eps * v * np.sin(x)
            return (u - np.sin(u)) / eps**3

        expected = -quadrature_P(integrand) / omega2
        assert forcing(sg, eps, v)[0] == pytest.approx(expected, rel=1e-12)

    def test_limit_coefficient_richardson(self):
        # |tilde_f(v,0,eps) + f'''(0) v^3/8| = O(eps^2) for both models
        v = 1.0
        for model in (Nonlinearity.sine_gordon(), Nonlinearity.phi4()):
            target = -model.f3 * v**3 / 8.0
            eps_values = [1e-2, 5e-3, 2.5e-3]
            errors = [abs(forcing(model, e, v)[0] - target)
                      for e in eps_values]
            slope = richardson_slope(eps_values, errors)
            assert slope == pytest.approx(2.0, abs=0.1)

    def test_directional_derivative_consistency(self, rng):
        # FD of tilde_g in w against the analytic multiplier derivative
        sg = Nonlinearity.sine_gordon()
        eps, v = 0.2, 0.7
        w = 0.05 * rng.standard_normal(6)
        w[:2] = 0.0
        h = rng.standard_normal(6)
        h[:2] = 0.0

        t = 1e-6
        _, plus = forcing(sg, eps, v, w + h * t, M=64, N_q=12)
        _, minus = forcing(sg, eps, v, w - h * t, M=64, N_q=12)
        fd = (plus - minus) / (2.0 * t)

        x = x_grid(64)
        S = np.sin(np.outer(x, np.arange(6)))
        xi = v * np.sin(x) + S @ w
        mult = -sg.scaled_deriv(xi, eps) / (1.0 + eps**2)
        analytic = project_Q(mult * (S @ h), N_x=12)
        assert np.max(np.abs(fd - analytic)) <= 1e-8 * max(
            1.0, np.max(np.abs(analytic)))


class TestCollocate:
    def test_vector_path_matches_scalar_path(self, rng):
        # rows of the (tau, x) kernel used by assemble_F against the
        # one-slice path used by integrate_v, w read off by cos_series
        sg = Nonlinearity.sine_gordon()
        eps, M_tau, M_x, N_x = 0.15, 24, 48, 10
        traj = find_orbit(sg.f3, 0.9).trajectory(M_tau)
        coeffs = 0.05 * rng.standard_normal((7, N_x + 1))
        coeffs[:, :2] = 0.0
        w = SpaceTimeField(traj.period, coeffs)
        v = traj.resample(M_tau)
        vals = collocate(sg, eps, v, w.values_grid(M_tau, M_x), M_x)
        P, Q = project_P(vals), project_Q(vals, N_x)
        assert vals.shape == (M_tau, M_x) and P.shape == (M_tau,)
        for m in range(M_tau):
            tau = traj.period * m / M_tau
            f, g = forcing(sg, eps, v[m], cos_series(w.coeffs, w.period, tau),
                           M=M_x, N_q=N_x)
            assert abs(P[m] - f) <= 1e-14 * np.max(np.abs(P))
            assert np.max(np.abs(Q[m] - g)) <= 1e-14 * np.max(np.abs(Q))

    def test_multiplier_is_w_derivative(self, rng):
        sg = Nonlinearity.sine_gordon()
        eps, M_x, t = 0.2, 32, 1e-6
        v = rng.uniform(-1.0, 1.0, 5)
        w_values = 0.1 * rng.standard_normal((5, M_x))
        plus = collocate(sg, eps, v, w_values + t, M_x)
        minus = collocate(sg, eps, v, w_values - t, M_x)
        m = collocate(sg, eps, v, w_values, M_x, order=1)
        assert np.max(np.abs((plus - minus) / (2.0 * t) - m)) <= 1e-8 * np.max(np.abs(m))

    def test_scalar_slice_and_model_none(self):
        vals = collocate(Nonlinearity.phi4(), 0.0, 1.0, None, 16)
        assert vals.shape == (16,)
        assert np.allclose(vals, -np.sin(x_grid(16)) ** 3, atol=1e-15)
        assert np.all(collocate(None, 0.1, np.ones(3), None, 16, order=1) == 0.0)

    def test_order_2_rejected(self):
        with pytest.raises(ValueError):
            collocate(Nonlinearity.phi4(), 0.1, 1.0, None, 16, order=2)


def _dense(terms: dict[int, float]) -> list[float]:
    """Coefficients by power, zeros in the gaps."""
    out = [0.0] * (max(terms) + 1)
    for p, c in terms.items():
        out[p] = c
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12).filter(
           lambda c: c[0] != 0.0),
       st.floats(0.05, 3.0), st.just(0.0) | st.floats(0.01, 0.99),
       st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=16))
def test_truncated_series_match_full_horner(coeffs, radius, eps, fractions):
    # every series method against the full series by Horner's rule in the
    # sample itself: the terms a call drops are below 2^-64 of what it keeps
    model = Nonlinearity("custom", tuple(coeffs), trust_radius=radius)
    t = np.array(fractions)
    u = radius * t                                  # |u| inside the radius
    y = u / eps if eps > 0 else u
    n = range(len(coeffs))
    cases = [
        (model.eval(u), u, {2 * m + 3: coeffs[m] for m in n}),
        (model.scaled_eval(y, eps), y,
         {2 * m + 3: coeffs[m] * eps ** (2 * m) for m in n}),
        (model.scaled_deriv(y, eps), y,
         {2 * m + 2: (2 * m + 3) * coeffs[m] * eps ** (2 * m) for m in n}),
        (model.scaled_antideriv(y, eps), y,
         {2 * m + 4: coeffs[m] * eps ** (2 * m) / (2 * m + 4) for m in n}),
    ]
    for got, x, terms in cases:
        want, scale = horner_oracle(_dense(terms), x)
        # both Horner passes (degree <= 2 len(coeffs) + 2 in x), the powers
        # of eps in the oracle's coefficients and the dropped tail
        bound = 16 * (len(coeffs) + 2) * 2.0**-53 * scale + 1e-300
        assert np.all(np.abs(got - want) <= bound)


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(0.01, 0.3), st.integers(0, 2**32 - 1))
def test_joint_oddness_property(v, eps, seed):
    gen = np.random.default_rng(seed)
    coeffs = 0.1 * gen.standard_normal(6)
    coeffs[:2] = 0.0
    sg = Nonlinearity.sine_gordon()
    fp, gp = forcing(sg, eps, v, coeffs, M=60)
    fm, gm = forcing(sg, eps, -v, -coeffs, M=60)
    assert fp == pytest.approx(-fm, abs=1e-13)
    assert np.allclose(gp, -gm, atol=1e-13)
