"""Slow-component shooting, Hamiltonian bookkeeping, and closure checks."""

import dataclasses

import numpy as np
import pytest

from kgperiodic import closure, solver
from kgperiodic.assembly import epsilon_sweep
from kgperiodic.closure import (
    ClosureConsistencyError,
    DegenerateOrbitError,
    check_closure,
    galerkin_v,
    hamiltonian_H,
    integrate_v,
    solve_delta1,
)
from kgperiodic.divisors import DivisorTable, HillSpectrum, ResonanceParams
from kgperiodic.planar import PlanarState, find_orbit

# Frozen canonical shooting parameter at eps = 0.1, amplitude 0.9 (default
# solver settings); the run is fully deterministic.
DELTA1_01 = 0.06217070272995722


class TestIntegrateV:
    def test_linear_flow_is_cosine(self):
        # model=None leaves v_tautau = -v/omega^2: explicit solution
        eps, a, period = 0.1, 0.5, 3.7
        om = np.sqrt(1.0 + eps**2)
        [(traj, end)] = integrate_v([PlanarState(a, 0.0)], None, eps, None,
                                    period)
        grid = period * np.arange(256) / 256
        assert np.max(np.abs(traj.v_samples - a * np.cos(grid / om))) < 1e-10
        assert end.p == pytest.approx(a * np.cos(period / om), abs=1e-10)
        assert end.p_tau == pytest.approx(-a / om * np.sin(period / om),
                                          abs=1e-10)

    def test_eps_zero_reproduces_seed_orbit(self, orbit09, sine_gordon):
        # at eps = 0 the slow equation is exactly the planar limit equation
        [(traj, end)] = integrate_v([orbit09.base_point], None, 0.0,
                                    sine_gordon, orbit09.period)
        seed = orbit09.trajectory(256)
        assert np.max(np.abs(traj.v_samples - seed.v_samples)) < 1e-8
        assert abs(end.p - orbit09.base_point.p) < 1e-9
        assert abs(end.p_tau - orbit09.base_point.p_tau) < 1e-9

    def test_end_state_matches_trajectory(self, sine_gordon):
        V0 = PlanarState(0.7, 0.1)
        [(traj, end)] = integrate_v([V0], None, 0.08, sine_gordon, 5.0)
        assert traj.start == (V0.p, V0.p_tau)
        assert traj.end == (end.p, end.p_tau)
        assert traj.v_samples[0] == V0.p and traj.v_tau_samples[0] == V0.p_tau


class TestGalerkinV:
    def test_linear_equation_has_only_the_zero_solution(self):
        # model=None leaves v_tautau + v/omega^2 = 0, whose only even
        # solution at a period off the linear one is v = 0
        a0 = np.zeros(128)
        a0[1] = 0.5
        a, r = galerkin_v(a0, None, 0.1, None, 3.7)
        assert r == 0.0 and np.all(a == 0.0)

    def test_matches_dop853_at_converged_w(self, closure01, orbit09,
                                          sine_gordon):
        # oracle: at the converged w the Galerkin coefficients are those of
        # the DOP853 trajectory from the same start, and the secant on the
        # DOP853 tangential defect lands on the same delta1
        eps, w = closure01.eps, closure01.run.w_physical
        period = orbit09.period
        a, r = galerkin_v(orbit09.trajectory(256).cos_coeffs, w, eps,
                          sine_gordon, period)
        assert r < 1e-15
        delta = a.sum() - orbit09.amplitude
        assert abs(delta - closure01.delta1) <= 1e-9

        def defect(d):
            [(traj, end)] = integrate_v(
                [PlanarState(orbit09.amplitude + d, 0.0)], w, eps, sine_gordon,
                period)
            return end.p_tau, traj

        t_a, traj = defect(delta)
        assert np.max(np.abs(traj.cos_coeffs - a)) <= 1e-11
        t_b, _ = defect(delta + 1e-6)
        shot = delta - t_a * 1e-6 / (t_b - t_a)
        assert abs(shot - delta) <= 1e-11

    def test_singular_jacobian_is_degenerate(self):
        # at eps = 0 and the linear period 2 pi the j = 1 diagonal is 0
        a0 = np.zeros(8)
        a0[:2] = 1e-3
        with pytest.raises(DegenerateOrbitError, match="singular"):
            galerkin_v(a0, None, 0.0, None, 2.0 * np.pi)


class TestHamiltonian:
    def test_slow_flow_conserves_H(self, sine_gordon):
        eps, period = 0.08, 5.0
        V0 = PlanarState(0.7, 0.1)
        [(traj, end)] = integrate_v([V0], None, eps, sine_gordon, period)
        H0 = hamiltonian_H(V0, None, None, eps, sine_gordon)
        H1 = hamiltonian_H(end, None, None, eps, sine_gordon)
        assert abs(H1 - H0) < 1e-10

    def test_quadratic_fast_terms_parseval(self):
        eps = 0.2
        w2 = 1.0 + eps**2
        state = PlanarState(0.4, -0.3)
        b = np.array([0.0, 0.0, 0.3, -0.2])
        bt = np.array([0.1, 0.0, 0.05, 0.0])
        H = hamiltonian_H(state, b, bt, eps, None)
        expected = (0.5 * 0.09 + 0.16 / (2.0 * w2)
                    + 0.5 * (0.01 + 0.0025)
                    + (0.5 / eps**2) * ((4.0 - 1.0 / w2) * 0.09
                                        + (9.0 - 1.0 / w2) * 0.04))
        assert H == pytest.approx(expected, rel=1e-14)


class TestSolveDelta1:
    def test_degenerate_orbit_rejected(self, sine_gordon):
        orbit = find_orbit(0.0, 0.5)
        with pytest.raises(DegenerateOrbitError):
            solve_delta1(orbit, 0.1, sine_gordon)

    def test_canonical_closure(self, closure01):
        assert closure01.closed
        assert closure01.delta1 == pytest.approx(DELTA1_01, abs=1e-9)
        assert abs(closure01.defect_t) < 1e-9
        assert abs(closure01.d) < 1e-10
        assert closure01.H_mismatch < 1e-10
        assert closure01.H_drift < 1e-9
        assert 2 <= closure01.outer_iters <= 6
        assert abs(closure01.derivative) > 1e-3
        assert len(closure01.history) == closure01.outer_iters

    def test_json_dict_round(self, closure01):
        doc = closure01.to_json_dict()
        for key in ("eps", "delta1", "d", "H_mismatch", "closed", "solver"):
            assert key in doc
        assert isinstance(doc["closed"], bool)
        assert doc["solver"]["converged"] is True
        assert doc["resonance_final"] == doc["solver"]["resonance"]

    def test_gate_verdicts_of_first_and_reported_round(self, closure01):
        first, final = closure01.resonance_first, closure01.resonance_final
        assert final is closure01.run.resonance
        for report in (first, final):
            assert not report.resonant
            assert (report.nearest_k, report.nearest_j) == (64, 617)
            assert report.distance == pytest.approx(1.397005e-6, rel=1e-6)

    def test_canonical_verdict_certified_by_min_max(self, closure01,
                                                     sine_gordon):
        # (64, 617) lies past the computed Hill eigenvalues.  By min-max each
        # eigenvalue of -d_tautau + q lies within ||q - mean q||_inf of the
        # constant potential's (2 pi j / p)^2 + mean q; no window whose center
        # sits anywhere in that enclosure contains eps
        params = ResonanceParams()
        report, spectrum, table = solver.resonance_gate(
            closure01.V_traj, closure01.eps, sine_gordon, K=64, params=params)
        assert report == closure01.resonance_final
        assert report.nearest_j > spectrum.J_max
        assert report.center == table.lookup(64, 617)
        sup = np.sum(np.abs(spectrum.q_coeffs[1:]))       # >= ||q - mean q||_inf
        assert 0.1 < sup < 0.12

        def enclosure_edge(shift):
            flat = HillSpectrum.flat(spectrum.period, 0)
            return DivisorTable.build(
                dataclasses.replace(flat, q_coeffs=np.array([spectrum.q_mean + shift])),
                K_max=64, J_max=table.J_max)

        # centers decrease in lambda: the upper eigenvalue gives the lower center
        low, high = enclosure_edge(sup), enclosure_edge(-sup)
        moved = max(report.center - low.lookup(64, 617),
                    high.lookup(64, 617) - report.center)
        assert 0.0 < moved < 1.5e-8
        assert moved < report.distance - report.halfwidth
        assert np.all(np.isfinite(low.eps)) and np.all(np.isfinite(high.eps))
        ks = low.k_values.astype(float)[:, None]
        js = np.arange(1, table.J_max + 1, dtype=float)[None, :]
        half = ks**params.alpha / js**params.l
        assert not np.any((low.eps - half < closure01.eps)
                          & (closure01.eps < high.eps + half))

    def test_conormal_taken_from_orbit(self, closure01, orbit09):
        n = np.array([orbit09.conormal.p, orbit09.conormal.p_tau])
        assert closure01.conormal == tuple(n / np.linalg.norm(n))

    def test_loop_skips_repeated_work(self, orbit09, sine_gordon,
                                      monkeypatch):
        # only round 1 and the reported round run the gate; only the
        # reported round builds a report (operators for zero-step stages
        # and the doubled-grid certificate); one stacked DOP853 pass serves
        # the certificate and the measured derivative
        calls = {"gate": 0, "integrate_v": 0, "operator": 0, "certificate": 0,
                 "nash_moser_solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        assemble_F = solver.assemble_F

        def counted_F(*args, **kwargs):
            calls["certificate"] += kwargs.get("M_tau") is not None
            return assemble_F(*args, **kwargs)

        monkeypatch.setattr(solver, "resonance_gate",
                            counted("gate", solver.resonance_gate))
        monkeypatch.setattr(solver, "LinearizedOperator",
                            counted("operator", solver.LinearizedOperator))
        monkeypatch.setattr(solver, "assemble_F", counted_F)
        monkeypatch.setattr(closure, "integrate_v",
                            counted("integrate_v", closure.integrate_v))
        monkeypatch.setattr(closure, "nash_moser_solve",
                            counted("nash_moser_solve", closure.nash_moser_solve))
        result = solve_delta1(orbit09, 0.1, sine_gordon)
        assert calls == {"gate": 2, "integrate_v": 1, "operator": 3,
                         "certificate": 1, "nash_moser_solve": 1}
        assert result.outer_iters == 4
        assert result.delta1 == pytest.approx(DELTA1_01, abs=1e-9)

    def test_reported_run_is_the_direct_solve(self, closure01, sine_gordon):
        # the reported round is a cold, gated nash_moser_solve on V_traj
        run = closure01.run
        direct = solver.nash_moser_solve(closure01.V_traj, closure01.eps,
                                         solver.SolverConfig(), sine_gordon)
        assert run.stages == direct.stages
        assert run.residual_certificate == direct.residual_certificate
        assert np.array_equal(run.w.coeffs, direct.w.coeffs)
        assert run.resonance == direct.resonance

    def test_stacked_pass_matches_separate_passes(self, closure01, orbit09,
                                                  sine_gordon):
        # oracle: the stacked certificate pass against one pass per start
        eps, w, period = closure01.eps, closure01.run.w_physical, orbit09.period
        n_hat = np.array(closure01.conormal)
        base = np.array([orbit09.base_point.p, orbit09.base_point.p_tau])
        starts = [PlanarState(*(base + d * n_hat))
                  for d in (closure01.delta1, closure01.delta1 + 1e-6)]
        (traj, end), _ = integrate_v(starts, w, eps, sine_gordon, period)
        [(traj_a, end_a)] = integrate_v(starts[:1], w, eps, sine_gordon, period)
        [(_, end_b)] = integrate_v(starts[1:], w, eps, sine_gordon, period)
        assert np.max(np.abs(traj.v_samples - traj_a.v_samples)) <= 1e-12
        assert np.max(np.abs(traj.v_tau_samples - traj_a.v_tau_samples)) <= 1e-12
        assert abs(end.p - end_a.p) <= 1e-12
        assert abs(end.p_tau - end_a.p_tau) <= 1e-12
        t_hat = np.array([orbit09.tangent.p, orbit09.tangent.p_tau])
        t_hat /= np.linalg.norm(t_hat)
        t_a = (np.array([end_a.p, end_a.p_tau]) - base) @ t_hat
        t_b = (np.array([end_b.p, end_b.p_tau]) - base) @ t_hat
        separate = (t_b - t_a) / 1e-6
        assert closure01.derivative == pytest.approx(separate, rel=1e-7)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"),
                                 0.0, 1.0, 1.5, -0.1])
def test_bad_eps_rejected_before_integration(eps, orbit09, sine_gordon,
                                             monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integrate_v called with an invalid eps")

    monkeypatch.setattr(closure, "integrate_v", fail)
    with pytest.raises(ValueError, match="eps must be"):
        solve_delta1(orbit09, eps, sine_gordon)
    # the sweep checks every entry before the (valid) first row runs
    with pytest.raises(ValueError, match="eps must be"):
        epsilon_sweep(sine_gordon, 0.9, [0.1, eps])


class TestCheckClosure:
    def test_accepts_canonical(self, closure01, sine_gordon):
        assert check_closure(closure01, closure01.eps, sine_gordon)

    def test_perturbed_endpoint_fails_consistently(self, closure01,
                                                   sine_gordon):
        # a conormal shift of the endpoint shows up in both d and H: the
        # verdict flips to False but the invariance cross-check still holds
        verdict = check_closure(closure01, closure01.eps, sine_gordon,
                                endpoint_perturbation=1e-3)
        assert verdict is False

    def test_tampered_invariance_raises(self, closure01, sine_gordon):
        # fabricate a result whose d is large while H looks conserved: the
        # check must flag the logic error instead of returning False
        w = closure01.run.w_physical
        p = closure01.V_traj.period
        end = closure01.end_state
        fake_end = PlanarState(end.p + 1e-3, end.p_tau)
        H_fake = hamiltonian_H(fake_end, w.slice_coeffs(p),
                               w.dtau_slice_coeffs(p), closure01.eps,
                               sine_gordon)
        bad = dataclasses.replace(closure01, end_state=fake_end,
                                  H_start=H_fake)
        with pytest.raises(ClosureConsistencyError):
            check_closure(bad, closure01.eps, sine_gordon)
