"""Slow-component shooting, Hamiltonian bookkeeping, and closure checks."""

import dataclasses

import numpy as np
import pytest

from kgperiodic import closure, normalform, solver
from kgperiodic.assembly import epsilon_sweep
from kgperiodic.closure import (
    ClosureConsistencyError,
    DegenerateOrbitError,
    IntegrationError,
    galerkin_v,
    hamiltonian_H,
    integrate_v,
    solve_delta1,
)
from kgperiodic.divisors import (DivisorTable, HillSpectrum, ResonanceError,
                                 ResonanceParams)
from kgperiodic.nonlinearity import TrustRadiusError
from kgperiodic.planar import PlanarState, VTrajectory, find_orbit

from oracles import dop853_slow_flow, v_at, v_tau_at

# Frozen canonical shooting parameter at eps = 0.1, amplitude 0.9 (default
# solver settings); the run is fully deterministic.
DELTA1_01 = 0.06217070272995722


@pytest.fixture(scope="module")
def closure0193(orbit09, sine_gordon):
    """The closure of the eps = 0.193 sweep row."""
    return solve_delta1(orbit09, 0.193, sine_gordon)


def certificate_starts(result, orbit):
    """The certificate's two starts: delta1 and delta1 + 1e-6 along n_hat."""
    n_hat = np.array(result.conormal)
    base = np.array([orbit.base_point.p, orbit.base_point.p_tau])
    return [PlanarState(*(base + d * n_hat))
            for d in (result.delta1, result.delta1 + 1e-6)]


def count_forcing(monkeypatch) -> list:
    """Record each `collocate` call of the closure module."""
    calls = []
    collocate = closure.collocate

    def counted(*args, **kwargs):
        calls.append(1)
        return collocate(*args, **kwargs)

    monkeypatch.setattr(closure, "collocate", counted)
    return calls


class TestIntegrateV:
    def test_linear_flow_is_cosine(self):
        # model=None leaves v_tautau = -v/omega^2: explicit solution
        eps, a, period = 0.1, 0.5, 3.7
        om = np.sqrt(1.0 + eps**2)
        tau, [y] = integrate_v([PlanarState(a, 0.0)], None, eps, None, period)
        assert np.max(np.abs(y[0] - a * np.cos(tau / om))) < 1e-10
        end = PlanarState(*y[:, -1])
        assert end.p == pytest.approx(a * np.cos(period / om), abs=1e-10)
        assert end.p_tau == pytest.approx(-a / om * np.sin(period / om),
                                          abs=1e-10)

    def test_eps_zero_reproduces_seed_orbit(self, orbit09, sine_gordon):
        # at eps = 0 the slow equation is exactly the planar limit equation
        tau, [y] = integrate_v([orbit09.base_point], None, 0.0, sine_gordon,
                               orbit09.period)
        seed = orbit09.trajectory(256)
        assert np.max(np.abs(y[0] - v_at(seed, tau))) < 1e-8
        assert abs(y[0, -1] - orbit09.base_point.p) < 1e-9
        assert abs(y[1, -1] - orbit09.base_point.p_tau) < 1e-9

    def test_end_state_matches_trajectory(self, sine_gordon):
        # the states sit at the segments' nodes, from the start to tau = p
        V0 = PlanarState(0.7, 0.1)
        tau, states = integrate_v([V0], None, 0.08, sine_gordon, 5.0)
        assert states.shape == (1, 2, tau.shape[0])
        assert tau[0] == 0.0 and tau[-1] == 5.0 and np.all(np.diff(tau) > 0)
        assert tuple(states[0][:, 0]) == (V0.p, V0.p_tau)

    @pytest.mark.parametrize("case", ["one_start", "canonical", "eps_0193",
                                      "long_period"])
    def test_end_states_match_dop853(self, case, request, orbit09,
                                     sine_gordon):
        # oracle: SciPy's DOP853 at rtol 1e-13 from the same starts; its own
        # error is about 4e-14 over one period and 3e-13 over period 40
        if case in ("one_start", "long_period"):
            args = ([PlanarState(0.7, 0.1)], None, 0.08, sine_gordon,
                    5.0 if case == "one_start" else 40.0)
        else:
            result = request.getfixturevalue(
                "closure01" if case == "canonical" else "closure0193")
            args = (certificate_starts(result, orbit09), result.run.w,
                    result.eps, sine_gordon, orbit09.period)
        tau, states = integrate_v(*args)
        ends = dop853_slow_flow(*args)
        assert np.max(np.abs(states[:, :, -1] - ends)) <= 1e-12
        if case == "long_period":
            # 4 segments of length 10 do not converge, so they were halved
            assert len(tau) > 4 * (closure._NODES - 1) + 1

    def test_unresolved_segments_are_halved(self, sine_gordon, monkeypatch):
        # 9 nodes do not resolve a quarter period to round-off: the
        # Chebyshev tail test halves the segments, and the end state holds
        monkeypatch.setattr(closure, "_NODES", 9)
        args = ([PlanarState(0.7, 0.1)], None, 0.08, sine_gordon, 5.0)
        tau, states = integrate_v(*args)
        assert len(tau) > 4 * 8 + 1
        ends = dop853_slow_flow(*args)
        assert np.max(np.abs(states[:, :, -1] - ends)) <= 1e-12

    def test_canonical_certificate_cost(self, closure01, orbit09,
                                        sine_gordon, monkeypatch):
        # one vectorized forcing evaluation per Picard iteration, over every
        # node of a segment and both starts (one DOP853 pass took 686)
        calls = count_forcing(monkeypatch)
        integrate_v(certificate_starts(closure01, orbit09), closure01.run.w,
                    closure01.eps, sine_gordon, orbit09.period)
        assert 0 < len(calls) <= 120

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("with_model", [False, True])
    def test_non_finite_start_fails_fast(self, bad, with_model, sine_gordon,
                                         monkeypatch):
        # the iterate is checked before each forcing evaluation, also where
        # model=None would carry a NaN through without any domain check
        calls = count_forcing(monkeypatch)
        model = sine_gordon if with_model else None
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_v([PlanarState(0.7, bad)], None, 0.08, model, 5.0)
        assert calls == []

    def test_start_past_trust_radius_reraised_at_the_floor(self, sine_gordon,
                                                          monkeypatch):
        # each halving from p/4 down to the 1e-6 p floor costs one
        # evaluation, which leaves the trust radius again
        calls = count_forcing(monkeypatch)
        with pytest.raises(TrustRadiusError, match="trust radius"):
            integrate_v([PlanarState(100.0, 0.0)], None, 0.08, sine_gordon,
                        5.0)
        assert 0 < len(calls) <= 20


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
        # the integrated trajectory from the same start, and the secant on
        # its tangential defect lands on the same delta1
        eps, w = closure01.eps, closure01.run.w
        period = orbit09.period
        a, r = galerkin_v(orbit09.trajectory(256).cos_coeffs, w, eps,
                          sine_gordon, period)
        assert r < 1e-15
        delta = a.sum() - orbit09.amplitude
        assert abs(delta - closure01.delta1) <= 1e-9

        def defect(d):
            return integrate_v([PlanarState(orbit09.amplitude + d, 0.0)], w,
                               eps, sine_gordon, period)

        tau, [y] = defect(delta)
        galerkin = VTrajectory(period, a)
        assert np.max(np.abs(y[0] - v_at(galerkin, tau))) <= 1e-11
        assert np.max(np.abs(y[1] - v_tau_at(galerkin, tau))) <= 1e-11
        t_a = y[1, -1]
        t_b = defect(delta + 1e-6)[1][0][1, -1]
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
        _, [y] = integrate_v([V0], None, eps, sine_gordon, period)
        H0 = hamiltonian_H(V0, None, None, eps, sine_gordon)
        H1 = hamiltonian_H(PlanarState(*y[:, -1]), None, None, eps,
                           sine_gordon)
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

    def test_drift_at_the_accepted_steps(self, closure01):
        # H read at the integrator's own nodes holds to round-off;
        # interpolating a grid of samples would add its own error (3.3e-11
        # from 256)
        assert closure01.H_drift <= 1e-12

    def test_json_dict_round(self, closure01):
        doc = closure01.to_json_dict()
        for key in ("eps", "delta1", "d", "H_mismatch", "closed", "solver"):
            assert key in doc
        assert isinstance(doc["closed"], bool)
        assert doc["solver"]["converged"] is True
        # the verdict is written once, by the closure that owns the gate
        assert doc["resonance_final"] == closure01.resonance_final.to_json_dict()
        assert not {"resonance", "resonance_checked"} & set(doc["solver"])

    def test_gate_verdicts_of_first_and_reported_round(self, closure01):
        first, final = closure01.resonance_first, closure01.resonance_final
        for report in (first, final):
            assert not report.resonant
            assert (report.nearest_k, report.nearest_j) == (64, 617)
            assert report.distance == pytest.approx(1.397005e-6, rel=1e-6)

    def test_resonant_eps_stops_before_any_solve(self, orbit09, sine_gordon,
                                                  monkeypatch):
        # the closure owns the gate: inside the (k=2, j=12) window round 1
        # raises before its fast solve
        calls = []
        monkeypatch.setattr(closure, "nash_moser_solve",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ResonanceError, match=r"\(k=2, j=12\)") as info:
            solve_delta1(orbit09, 0.1396532019663832, sine_gordon)
        report = info.value.report
        assert report.resonant
        assert (report.nearest_k, report.nearest_j) == (2, 12)
        assert calls == []

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
        # every round is one nash_moser_solve; only round 1 and the reported
        # round run the gate; each Newton step builds one operator and
        # assembles one residual; each averaging step evaluates one drive;
        # one stacked integration serves the certificate and the measured
        # derivative.  The report (operators for zero-step stages, the
        # doubled-grid certificate) is built only when read
        calls = {"gate": 0, "integrate_v": 0, "operator": 0, "certificate": 0,
                 "assemble_F": 0, "drive": 0, "nash_moser_solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        assemble_F = solver.assemble_F

        def counted_F(*args, **kwargs):
            calls["assemble_F"] += 1
            calls["certificate"] += kwargs.get("M_tau") is not None
            return assemble_F(*args, **kwargs)

        monkeypatch.setattr(closure, "resonance_gate",
                            counted("gate", closure.resonance_gate))
        monkeypatch.setattr(solver, "LinearizedOperator",
                            counted("operator", solver.LinearizedOperator))
        monkeypatch.setattr(solver, "assemble_F", counted_F)
        monkeypatch.setattr(normalform, "assemble_F",
                            counted("drive", normalform.assemble_F))
        monkeypatch.setattr(closure, "integrate_v",
                            counted("integrate_v", closure.integrate_v))
        monkeypatch.setattr(closure, "nash_moser_solve",
                            counted("nash_moser_solve", closure.nash_moser_solve))
        result = solve_delta1(orbit09, 0.1, sine_gordon)
        assert calls == {"gate": 2, "integrate_v": 1, "operator": 2,
                         "certificate": 0, "assemble_F": 6, "drive": 8,
                         "nash_moser_solve": 4}
        assert result.outer_iters == 4
        assert result.delta1 == pytest.approx(DELTA1_01, abs=1e-9)
        result.to_json_dict()
        assert calls == {"gate": 2, "integrate_v": 1, "operator": 3,
                         "certificate": 1, "assemble_F": 7, "drive": 8,
                         "nash_moser_solve": 4}

    def test_reported_run_is_the_direct_solve(self, closure01, sine_gordon):
        # the reported round is a cold nash_moser_solve on V_traj; the
        # report, built on read, is compared too
        run = closure01.run
        direct = solver.nash_moser_solve(closure01.V_traj, closure01.eps,
                                         solver.SolverConfig(), sine_gordon)
        assert run.to_json_dict() == direct.to_json_dict()
        assert np.array_equal(run.w.coeffs, direct.w.coeffs)

    def test_stacked_pass_matches_separate_passes(self, closure01, orbit09,
                                                  sine_gordon):
        # oracle: the stacked certificate pass against one pass per start
        eps, w, period = closure01.eps, closure01.run.w, orbit09.period
        base = np.array([orbit09.base_point.p, orbit09.base_point.p_tau])
        starts = certificate_starts(closure01, orbit09)
        tau, (y, _) = integrate_v(starts, w, eps, sine_gordon, period)
        tau_a, [y_a] = integrate_v(starts[:1], w, eps, sine_gordon, period)
        _, [y_b] = integrate_v(starts[1:], w, eps, sine_gordon, period)
        # the passes may cut their own segments: compare their deviations
        # from the Galerkin trajectory, the separate one carried to the
        # stacked nodes
        V = closure01.V_traj
        dev = y - np.array([v_at(V, tau), v_tau_at(V, tau)])
        dev_a = y_a - np.array([v_at(V, tau_a), v_tau_at(V, tau_a)])
        for k in range(2):
            carried = np.interp(tau, tau_a, dev_a[k])
            assert np.max(np.abs(dev[k] - carried)) <= 1e-12
        end_a, end_b = y_a[:, -1], y_b[:, -1]
        assert np.max(np.abs(y[:, -1] - end_a)) <= 1e-12
        t_hat = np.array([orbit09.tangent.p, orbit09.tangent.p_tau])
        t_hat /= np.linalg.norm(t_hat)
        t_a = (end_a - base) @ t_hat
        t_b = (end_b - base) @ t_hat
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


def shift_certificate_end(monkeypatch, n_hat, shift=1e-3):
    """Make the certificate pass end ``shift`` further along n_hat."""
    integrate = closure.integrate_v

    def shifted(starts, *args):
        taus, states = integrate(starts, *args)
        states = states.copy()
        states[0][:, -1] += shift * n_hat
        return taus, states

    monkeypatch.setattr(closure, "integrate_v", shifted)


class TestCheckClosure:
    """The closure verdict and its invariance cross-check in `solve_delta1`."""

    def test_accepts_canonical(self, closure01):
        assert closure01.closed is True
        assert abs(closure01.d) <= 1e-8 and closure01.H_mismatch <= 1e-8

    def test_perturbed_endpoint_fails_consistently(self, closure01, orbit09,
                                                   sine_gordon, monkeypatch):
        # a conormal shift of the end state shows up in both d and H: the
        # verdict flips to False but the invariance cross-check still holds
        n_hat = np.array(closure01.conormal)
        shift_certificate_end(monkeypatch, n_hat)
        result = solve_delta1(orbit09, closure01.eps, sine_gordon)
        assert result.closed is False
        assert result.d == pytest.approx(closure01.d + 1e-3, abs=1e-12)
        assert result.H_mismatch > 1e-6
        assert result.delta1 == closure01.delta1

    def test_tampered_invariance_raises(self, closure01, orbit09,
                                        sine_gordon, monkeypatch):
        # the same shift, with H read at the unshifted end state: a large d
        # with a matched H is a logic error, not an unclosed orbit
        n_hat = np.array(closure01.conormal)
        shift_certificate_end(monkeypatch, n_hat)
        H_at = closure._H_at

        def unshifted_end(tau, state, *args):
            if np.ndim(tau) == 0 and tau > 0.0:
                state = PlanarState(state.p - 1e-3 * n_hat[0],
                                    state.p_tau - 1e-3 * n_hat[1])
            return H_at(tau, state, *args)

        monkeypatch.setattr(closure, "_H_at", unshifted_end)
        with pytest.raises(ClosureConsistencyError, match="invariance"):
            solve_delta1(orbit09, closure01.eps, sine_gordon)
        # the sweep documents the error as one that propagates
        with pytest.raises(ClosureConsistencyError):
            epsilon_sweep(sine_gordon, orbit09.amplitude, [closure01.eps])

    def test_gradient_read_only_for_a_large_defect(self, orbit09, sine_gordon,
                                                   monkeypatch):
        # a closing solve evaluates H at the certificate's steps only: the
        # two ends and one call for the interior steps
        calls = []
        H_at = closure._H_at

        def counted(tau, *args):
            calls.append(np.ndim(tau))
            return H_at(tau, *args)

        monkeypatch.setattr(closure, "_H_at", counted)
        assert solve_delta1(orbit09, 0.1, sine_gordon).closed
        assert calls == [0, 0, 1]
