"""Representation, norm, projection, and J-operator tests."""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgperiodic.fourier import (
    AliasingError,
    SpaceTimeField,
    cos_series,
    cos_synthesis_matrix,
    invert_J_eps,
    j_eps_symbol,
    multiply_to_even,
    project_P,
    project_Q,
    sin_synthesis_matrix,
    x_grid,
)

from oracles import quadrature_P


def field_from_modes(period, modes, N_tau=6, N_x=6):
    coeffs = np.zeros((N_tau + 1, N_x + 1))
    for (j, k), val in modes.items():
        coeffs[j, k] = val
    return SpaceTimeField(period=period, coeffs=coeffs)


def random_qfield(rng, period=6.0, N_tau=8, N_x=9, decay=1.5):
    j = np.arange(N_tau + 1.0)[:, None]
    k = np.arange(N_x + 1.0)[None, :]
    coeffs = rng.standard_normal((N_tau + 1, N_x + 1))
    coeffs *= (1.0 + j) ** (-decay) * np.maximum(k, 1.0) ** (-decay)
    coeffs[:, :2] = 0.0
    return SpaceTimeField(period=period, coeffs=coeffs)


class TestNorm:
    def test_single_mode_s1(self):
        # sin(2x) at j = 0 has norm sqrt(2) in s = 1
        w = field_from_modes(2 * np.pi, {(0, 2): 1.0})
        assert w.norm(1.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_single_mode_s0(self):
        # cos(2 pi tau / p) sin(2x) has norm 1 in s = 0
        w = field_from_modes(5.0, {(1, 2): 1.0})
        assert w.norm(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_field(self):
        w = SpaceTimeField.zeros(6.0, 4, 5)
        assert w.norm(0.0) == 0.0 and w.norm(3.0) == 0.0

    def test_norm_positive_definite(self, rng):
        w = random_qfield(rng)
        assert w.norm(1.0) > 0.0


class TestProjections:
    def test_band_split(self):
        w = field_from_modes(6.0, {(0, 2): 1.0, (0, 3): 1.0})
        cut = w.pi_N(2)
        assert cut.coeffs[0, 2] == 1.0
        assert np.all(cut.coeffs[:, 3:] == 0.0)

    def test_idempotence(self, rng):
        w = random_qfield(rng, N_x=5)
        assert np.array_equal(w.pi_N(7).coeffs[:, :6], w.coeffs)

    def test_complement_sums_back(self, rng):
        # h - Pi_N h keeps exactly the modes k > N
        w = random_qfield(rng)
        tail = w - w.pi_N(4)
        assert np.all(tail.coeffs[:, :5] == 0.0)
        assert np.array_equal(tail.coeffs[:, 5:], w.coeffs[:, 5:])
        assert np.array_equal((w.pi_N(4) + tail).coeffs, w.coeffs)


class TestPQ:
    def test_sin_x(self):
        x = x_grid(32)
        assert project_P(np.sin(x)) == pytest.approx(1.0, abs=1e-14)
        q = project_Q(np.sin(x), N_x=4)
        assert np.max(np.abs(q)) < 1e-14

    def test_sin_2x(self):
        x = x_grid(32)
        g = np.sin(2 * x)
        assert project_P(g) == pytest.approx(0.0, abs=1e-14)
        q = project_Q(g, N_x=4)
        assert q[2] == pytest.approx(1.0, abs=1e-14)

    def test_sin_cubed(self):
        # sin^3 x = (3 sin x - sin 3x) / 4
        x = x_grid(64)
        g = np.sin(x) ** 3
        assert project_P(g) == pytest.approx(0.75, abs=1e-14)
        q = project_Q(g, N_x=5)
        assert q[3] == pytest.approx(-0.25, abs=1e-14)
        assert abs(q[2]) < 1e-14 and abs(q[4]) < 1e-14

    def test_p_against_quadrature_oracle(self, rng):
        c = rng.standard_normal(3)
        func = lambda x: c[0] * np.sin(x) + c[1] * np.sin(2 * x) ** 3 + c[2] * np.sin(x) ** 5
        x = x_grid(128)
        assert project_P(func(x)) == pytest.approx(quadrature_P(func), abs=1e-12)

    def test_aliasing_guard(self):
        # requesting band 10 from 16 samples violates M >= 4 N_x
        with pytest.raises(AliasingError):
            project_Q(np.sin(x_grid(16)), N_x=10)


class TestJEps:
    # J_eps acts diagonally on sin(k x) by j_eps_symbol(k, eps)

    def test_eps_zero_action(self):
        # a spatial field is a one-row space-time field
        w = field_from_modes(2 * np.pi, {(0, 2): 1.0}, N_tau=0, N_x=3)
        out = j_eps_symbol(np.arange(4), 0.0) * w.coeffs
        assert out[0, 2] == pytest.approx(-3.0, abs=1e-15)
        back = invert_J_eps(w, 0.0)
        assert back.coeffs[0, 2] == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_symbol_bound_exact(self):
        k = np.arange(2, 1001, dtype=float)[:, None]
        eps = np.linspace(0.0, 0.5, 201)[None, :]
        sup = np.max(1.0 / np.abs(j_eps_symbol(k, eps)))
        assert sup <= 2.0

    def test_inverse_identity(self, rng):
        w = random_qfield(rng, N_tau=0, N_x=7)
        k = np.arange(w.band_x + 1)
        for eps in (0.0, 0.1, 0.5):
            back = j_eps_symbol(k, eps) * invert_J_eps(w, eps).coeffs
            assert np.allclose(back, w.coeffs, atol=1e-14)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            SpaceTimeField(2 * np.pi, [[0.0, 1.0, 0.5]])


class TestSerialization:
    def test_roundtrip_exact(self, rng):
        w = random_qfield(rng)
        back = SpaceTimeField.from_json_dict(
            json.loads(json.dumps(w.to_json_dict())))
        assert back.period == w.period
        assert np.array_equal(back.coeffs, w.coeffs)

    def test_document_shape(self, rng):
        doc = json.loads(json.dumps(random_qfield(rng).to_json_dict()))
        assert set(doc) == {"period", "bands", "coeffs"}
        assert all(len(entry) == 3 for entry in doc["coeffs"])


class TestTables:
    def test_tables_match_mpmath(self, rng):
        # built from the integer-reduced phase, both tables stay within a
        # few ulps at N = 2048, where sin(k x_m) and cos(2 pi j m / M) of
        # the unreduced argument were off by 2.3e-12
        N = 2048
        M = 2 * N + 2
        S = sin_synthesis_matrix.__wrapped__(M, N)   # kept out of the cache
        C = cos_synthesis_matrix.__wrapped__(M, N)
        err_s = err_c = 0.0
        with mpmath.workdps(30):
            for m, k in zip(rng.integers(0, M, 2000).tolist(),
                            rng.integers(0, N + 1, 2000).tolist()):
                x = 2 * mpmath.pi * m / M
                err_s = max(err_s, abs(S[m, k] - mpmath.sin(k * (x - mpmath.pi))))
                err_c = max(err_c, abs(C[m, k] - mpmath.cos(k * x)))
        assert max(err_s, err_c) <= 4 * np.finfo(float).eps


class TestCosSeries:
    def test_single_mode_derivatives(self):
        # a cos(om tau), om = 2 pi 3 / p, and its first two tau-derivatives
        p, a = 5.0, 0.7
        tau = np.array([0.0, 0.3, 1.9, 4.2])
        om = 2.0 * np.pi * 3.0 / p
        c = np.zeros(5)
        c[3] = a
        assert np.allclose(cos_series(c, p, tau), a * np.cos(om * tau),
                           atol=1e-15)
        assert np.allclose(cos_series(c, p, tau, 1), -a * om * np.sin(om * tau),
                           atol=1e-14)
        assert np.allclose(cos_series(c, p, tau, 2),
                           -a * om**2 * np.cos(om * tau), atol=1e-14)

    def test_field_slices_match_grid(self, rng):
        # the rows of a space-time field at the grid times synthesize its
        # grid samples; a scalar time gives one row
        w = random_qfield(rng)
        M_tau, M_x = 24, 40
        taus = w.period * np.arange(M_tau) / M_tau
        slices = cos_series(w.coeffs, w.period, taus)
        assert slices.shape == (M_tau, w.band_x + 1)
        assert np.allclose(slices @ sin_synthesis_matrix(M_x, w.band_x).T,
                           w.values_grid(M_tau, M_x), atol=1e-14)
        assert np.allclose(cos_series(w.coeffs, w.period, taus[5]), slices[5],
                           rtol=0.0, atol=1e-15)

    def test_order_3_rejected(self):
        with pytest.raises(ValueError):
            cos_series(np.ones(3), 1.0, 0.0, order=3)


class TestEvenProducts:
    def test_product_symmetry(self, rng):
        u1, u2 = random_qfield(rng), random_qfield(rng)
        p12 = multiply_to_even(u1, u2)
        p21 = multiply_to_even(u2, u1)
        assert np.allclose(p12.coeffs, p21.coeffs, atol=1e-14)

    def test_single_mode_product(self):
        # sin(2x)*sin(2x) = 1/2 - cos(4x)/2 at j = 0
        w = field_from_modes(6.0, {(0, 2): 1.0}, N_tau=2, N_x=4)
        prod = multiply_to_even(w, w)
        assert prod.coeffs[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert prod.coeffs[0, 4] == pytest.approx(-0.5, abs=1e-14)


# -- property tests ---------------------------------------------------------

@st.composite
def qfields(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    N_tau = draw(st.integers(1, 8))
    N_x = draw(st.integers(3, 10))
    gen = np.random.default_rng(seed)
    return random_qfield(gen, N_tau=N_tau, N_x=N_x)


@settings(max_examples=60, deadline=None)
@given(qfields(), st.integers(2, 8),
       st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_lp1_projection_inequality(h, N, m1, extra):
    m2 = m1 + extra
    assert h.pi_N(N).norm(m2) <= N ** (m2 - m1) * h.norm(m1) * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(qfields(), st.integers(2, 8),
       st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_lp2_projection_inequality(h, N, m1, extra):
    m2 = m1 + extra
    assert ((h - h.pi_N(N)).norm(m1)
            <= N ** (m1 - m2) * h.norm(m2) * (1.0 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(qfields(), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_norm_monotone_in_s(h, s1, extra):
    assert h.norm(s1) <= h.norm(s1 + extra) * (1.0 + 1e-12)
