"""Limit-oscillator tests: orbits, energy, periods, monodromy."""

import numpy as np
import pytest

from kgperiodic import planar
from kgperiodic.planar import (
    NoPeriodicOrbitError,
    PlanarState,
    find_orbit,
    h_star,
    monodromy,
)

from oracles import (duffing_period, duffing_period_slope, ellipj_orbit,
                     fd_monodromy, limit_rhs, mpmath_orbit, oracle_orbit,
                     v_at, v_tau_at)

# Period of the a = 1, f3 = 1 orbit by the energy quadrature oracle.
T_A1_ORACLE = 6.008794252858908


class TestRhsAndEnergy:
    def test_rhs_example(self):
        out = limit_rhs(PlanarState(1.0, 0.0), 1.0)
        assert (out.p, out.p_tau) == (0.0, -1.125)

    def test_equilibrium(self):
        out = limit_rhs(PlanarState(0.0, 0.0), 2.5)
        assert (out.p, out.p_tau) == (0.0, 0.0)

    def test_rhs_odd(self, rng):
        for _ in range(10):
            s = PlanarState(*rng.standard_normal(2))
            f = limit_rhs(s, 1.0)
            g = limit_rhs(PlanarState(-s.p, -s.p_tau), 1.0)
            assert (g.p, g.p_tau) == (-f.p, -f.p_tau)

    def test_h_star_values(self):
        assert h_star(PlanarState(1.0, 0.0), 1.0) == 0.53125
        assert h_star(PlanarState(0.0, 0.0), 1.0) == 0.0


def orbit_samples(orbit):
    """(tau, p, p_tau) of the orbit, as `to_json_dict` writes them."""
    return np.array(orbit.to_json_dict()["samples"]).T


class TestFindOrbit:
    def test_small_amplitude_period(self):
        orbit = find_orbit(1.0, 1e-4)
        assert orbit.period == pytest.approx(2 * np.pi, abs=1e-7)

    def test_period_matches_quadrature_oracle(self):
        orbit = find_orbit(1.0, 1.0)
        assert orbit.period == pytest.approx(T_A1_ORACLE, abs=1e-10)
        assert orbit.period == pytest.approx(duffing_period(1.0, 1.0), abs=1e-10)

    def test_period_decreasing_in_amplitude(self):
        periods = [duffing_period(a, 1.0) for a in (0.5, 1.0, 2.0)]
        found = [find_orbit(1.0, a).period for a in (0.5, 1.0, 2.0)]
        assert periods[0] > periods[1] > periods[2]
        assert np.allclose(found, periods, atol=1e-9)

    def test_energy_constant_on_samples(self):
        orbit = find_orbit(1.0, 0.9)
        _, ps, qs = orbit_samples(orbit)
        energies = [h_star(PlanarState(p, q), 1.0) for p, q in zip(ps, qs)]
        assert np.max(np.abs(np.array(energies) - orbit.energy)) < 1e-10

    def test_time_reversal_symmetry(self):
        orbit = find_orbit(1.0, 0.9)
        traj = orbit.trajectory(128)
        taus = np.linspace(0.1, orbit.period / 2, 7)
        for t in taus:
            assert v_at(traj, t) == pytest.approx(v_at(traj, -t), abs=1e-10)

    def test_tangent_conormal_orthogonal(self):
        orbit = find_orbit(1.0, 1.0)
        v, vp = orbit.tangent, orbit.conormal
        assert abs(v.p * vp.p + v.p_tau * vp.p_tau) <= 1e-12

    @pytest.mark.parametrize("f3, amplitude", [(6.0, 1e-9), (-1.0, 2.828)])
    def test_period_at_extreme_amplitudes(self, f3, amplitude):
        # a tiny phi4 orbit (an absolute integrator tolerance would be a
        # large share of the state) and a softening orbit 4e-4 inside the
        # separatrix at sqrt(8)
        orbit = find_orbit(f3, amplitude)
        assert orbit.period == pytest.approx(duffing_period(amplitude, f3),
                                             abs=1e-10)

    def test_soft_potential_well_boundary(self):
        # f3 < 0: bounded orbits only below the saddle amplitude sqrt(-8/f3)
        assert find_orbit(-1.0, 0.5).period > 2 * np.pi
        with pytest.raises(NoPeriodicOrbitError):
            find_orbit(-1.0, 3.0)

    def test_tolerance_checked_as_given(self):
        # the sampled energy drift at (-1, 2.5) is about 3e-15: the default
        # 1e-10 accepts it, 1e-17 is checked as given and rejects it
        assert find_orbit(-1.0, 2.5).amplitude == 2.5
        with pytest.raises(NoPeriodicOrbitError, match="1.00e-17"):
            find_orbit(-1.0, 2.5, tol=1e-17)

    @pytest.mark.parametrize("d", [1e-7, 1e-9, 1e-11])
    def test_next_to_the_separatrix(self, d):
        # a = sqrt(8) - d at f3 = -1: k'^2 ~ d, and the series still sums
        # to round-off against 50-digit elliptic functions
        amplitude = np.sqrt(8.0) - d
        orbit = find_orbit(-1.0, amplitude)
        tau, ps, qs = orbit_samples(orbit)
        H = h_star(PlanarState(ps, qs), -1.0)
        assert np.max(np.abs(H - orbit.energy)) <= 1e-13
        period, slope, p = mpmath_orbit(-1.0, amplitude, tau[::37])
        assert orbit.period == pytest.approx(period, rel=1e-12, abs=0.0)
        assert orbit.period_slope == pytest.approx(slope, rel=1e-12, abs=0.0)
        assert np.max(np.abs(ps[::37] - p)) <= 1e-12

    @pytest.mark.parametrize("f3", [1.0, -1.0, 6.0])
    def test_small_amplitude_limit(self, f3):
        # k -> 0: q^(1/2) / k -> 1/4 and K -> pi/2, so the first harmonic's
        # coefficient a 2 pi/(k K) q^(1/2)/(1 + q) tends to a itself
        amplitude = 1e-9
        orbit = find_orbit(f3, amplitude)
        assert orbit.cos_coeffs[1] == pytest.approx(amplitude, rel=1e-12)
        assert np.all(np.abs(orbit.cos_coeffs[2:]) <= 1e-17 * amplitude)
        tau, ps, _ = orbit_samples(orbit)
        period, slope, p = mpmath_orbit(f3, amplitude, tau[::37])
        assert orbit.period == pytest.approx(period, rel=1e-14, abs=0.0)
        assert orbit.period_slope == pytest.approx(slope, rel=1e-12)
        assert np.max(np.abs(ps[::37] - p)) <= 1e-14 * amplitude


# hardening (f3 = 1, 6) and softening (f3 = -1, -6) orbits, the softening ones
# up to 0.88 of the separatrix amplitude sqrt(-8/f3)
ORACLE_GRID = [(f3, a) for f3 in (1.0, 6.0) for a in (0.3, 0.9, 2.0)] \
    + [(-1.0, 1.0), (-1.0, 2.5), (-6.0, 0.9)]


@pytest.mark.parametrize("f3, amplitude", ORACLE_GRID)
def test_closed_form_against_integrated_orbit(f3, amplitude):
    orbit = find_orbit(f3, amplitude, n_samples=128)
    tau, ps, qs = orbit_samples(orbit)
    period, p, p_tau = oracle_orbit(f3, amplitude, 128)
    assert abs(orbit.period - period) <= 1e-11
    assert np.max(np.abs(ps - p)) <= 1e-10
    assert np.max(np.abs(qs - p_tau)) <= 1e-10
    fd = fd_monodromy(amplitude, f3, orbit.period)
    assert np.max(np.abs(monodromy(orbit).matrix - fd)) <= 1e-5
    # the nome series against Cephes' Jacobi elliptic functions
    period, slope, p, p_tau = ellipj_orbit(f3, amplitude, tau)
    assert abs(orbit.period - period) <= 1e-11
    assert orbit.period_slope == pytest.approx(slope, rel=1e-11, abs=0.0)
    assert np.max(np.abs(ps - p)) <= 1e-10
    assert np.max(np.abs(qs - p_tau)) <= 1e-10


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"),
                                       -float("inf"), 0.0, -1.0])
def test_bad_amplitude_rejected_before_integration(amplitude, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("orbit evaluated at an invalid amplitude")

    monkeypatch.setattr(planar, "_orbit_series", fail)
    with pytest.raises(ValueError,
                       match="amplitude must be a finite positive number"):
        find_orbit(1.0, amplitude)


class TestMonodromy:
    def test_isochronous_control(self):
        # f3 = 0 gives a linear center: M = I, degenerate by construction
        orbit = find_orbit(0.0, 1.0)
        rep = monodromy(orbit)
        assert np.allclose(rep.matrix, np.eye(2), atol=1e-9)
        assert rep.rank_deficiency_of_M_minus_I == 2
        assert not rep.nondegenerate

    def test_nondegenerate_at_a1(self):
        rep = monodromy(find_orbit(1.0, 1.0))
        for ev in rep.eigenvalues:
            assert abs(ev - 1.0) <= 1e-8
        assert rep.rank_deficiency_of_M_minus_I == 1
        assert rep.nondegenerate
        assert rep.det == pytest.approx(1.0, abs=1e-10)

    def test_matrix_against_flow_map_oracle(self):
        orbit = find_orbit(1.0, 1.0)
        rep = monodromy(orbit)
        fd = fd_monodromy(1.0, 1.0, orbit.period)
        assert np.max(np.abs(rep.matrix - fd)) < 1e-5

    @pytest.mark.parametrize("amplitude", [1e-4, 0.1266, 0.1267])
    def test_twist_against_quadrature(self, amplitude):
        # M[1, 0] = T'(a) (a + a^3/8) at f3 = 1: a twist of 6e-9 at a = 1e-4,
        # and the elliptic parameter just below and above the m = 1e-3
        # switch from the series of dK/dm to its closed form
        rep = monodromy(find_orbit(1.0, amplitude))
        exact = duffing_period_slope(amplitude, 1.0) * (amplitude
                                                        + amplitude**3 / 8.0)
        assert rep.matrix[1, 0] == pytest.approx(exact, rel=2e-12, abs=0.0)

    def test_det_preserved_generic(self, rng):
        for a in rng.uniform(0.3, 1.5, 3):
            rep = monodromy(find_orbit(1.0, float(a)))
            assert rep.det == pytest.approx(1.0, abs=1e-10)


class TestTrajectory:
    def test_resample_consistency(self):
        orbit = find_orbit(1.0, 0.9)
        traj = orbit.trajectory(64)
        fine = traj.resample(256)
        grid = orbit.period * np.arange(256) / 256
        direct = np.array([v_at(traj, t) for t in grid])
        assert np.max(np.abs(fine - direct)) < 1e-10

    def test_export_shape(self):
        doc = find_orbit(1.0, 1.0).to_json_dict()
        assert set(doc) == {"f3", "amplitude", "period", "energy", "samples"}
        assert all(len(s) == 3 for s in doc["samples"])

    def test_samples_and_coefficients_from_the_series(self):
        # an orbit's trajectory(M) holds its first M // 2 cosines, cut or
        # zero-padded, and samples(M) is that series and its derivative
        orbit = find_orbit(1.0, 0.9)
        n = orbit.cos_coeffs.size
        for M in (n, 4 * n):
            traj = orbit.trajectory(M)
            expected = np.zeros(M // 2)
            expected[:min(n, M // 2)] = orbit.cos_coeffs[:M // 2]
            assert np.array_equal(traj.cos_coeffs, expected)
            assert traj.start == (traj.cos_coeffs.sum(), 0.0)
            v, v_tau = traj.samples(M)
            grid = orbit.period * np.arange(M) / M
            assert np.max(np.abs(v - v_at(traj, grid))) <= 1e-15
            assert np.max(np.abs(v_tau - v_tau_at(traj, grid))) <= 1e-15
            assert np.array_equal(traj.samples()[0], traj.samples(M // 2 * 2)[0])
