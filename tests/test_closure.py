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
from kgperiodic.fourier import SpaceTimeField
from kgperiodic.nonlinearity import TrustRadiusError
from kgperiodic.planar import PlanarState, VTrajectory, find_orbit

from oracles import (ZERO_MODEL, decaying_field, dop853_slow_flow,
                     oracle_galerkin_v, v_at, v_tau_at)

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


def zero_w(period: float) -> SpaceTimeField:
    """The fast field w = 0."""
    return SpaceTimeField.zeros(period, 0, 2)


def scripted_loop(monkeypatch, result, orbit, model, deltas, dws):
    """`solve_delta1` on a script; returns the closure and each round's coldness.

    Round n's slow solve puts delta at ``deltas[n - 1]``, and its fast solve
    is ``result.run`` with w moved along a unit field so that the w-update
    of round n >= 2 has the norm ``dws[n - 2]``.  The gate passes.
    """
    n_hat, coeffs, run = np.array(result.conormal), result.V_traj.cos_coeffs, result.run
    unit = np.zeros_like(run.w.coeffs)
    unit[1, 3] = 1.0
    unit /= SpaceTimeField(run.w.period, unit).norm(1.0)
    offsets = np.concatenate([[0.0], np.cumsum(dws)])
    cold = []

    def galerkin(a0, w, eps, model, period):
        out = coeffs.copy()
        out[1] += (deltas[len(cold)] - result.delta1) / n_hat[0]
        return out, 0.0

    def fast_solve(traj, eps, config, model, w0=None):
        cold.append(w0 is None)
        w = run.w.coeffs + offsets[len(cold) - 1] * unit
        return dataclasses.replace(run, w=SpaceTimeField(run.w.period, w))

    monkeypatch.setattr(closure, "galerkin_v", galerkin)
    monkeypatch.setattr(closure, "nash_moser_solve", fast_solve)
    monkeypatch.setattr(closure, "resonance_gate",
                        lambda *args: (result.resonance_final, None, None))
    config = solver.SolverConfig(N_tau=run.N_tau)
    return solve_delta1(orbit, result.eps, model, solver=config), cold


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
        # f = 0 leaves v_tautau = -v/omega^2: explicit solution
        eps, a, period = 0.1, 0.5, 3.7
        om = np.sqrt(1.0 + eps**2)
        tau, [y] = integrate_v([PlanarState(a, 0.0)], zero_w(period), eps,
                               ZERO_MODEL, period)
        assert np.max(np.abs(y[0] - a * np.cos(tau / om))) < 1e-10
        end = PlanarState(*y[:, -1])
        assert end.p == pytest.approx(a * np.cos(period / om), abs=1e-10)
        assert end.p_tau == pytest.approx(-a / om * np.sin(period / om),
                                          abs=1e-10)

    def test_eps_zero_reproduces_seed_orbit(self, orbit09, sine_gordon):
        # at eps = 0 the slow equation is exactly the planar limit equation
        tau, [y] = integrate_v([orbit09.base_point], zero_w(orbit09.period),
                               0.0, sine_gordon, orbit09.period)
        seed = orbit09.trajectory(256)
        assert np.max(np.abs(y[0] - v_at(seed, tau))) < 1e-8
        assert abs(y[0, -1] - orbit09.base_point.p) < 1e-9
        assert abs(y[1, -1] - orbit09.base_point.p_tau) < 1e-9

    def test_end_state_matches_trajectory(self, sine_gordon):
        # the states sit at the segments' nodes, from the start to tau = p
        V0 = PlanarState(0.7, 0.1)
        tau, states = integrate_v([V0], zero_w(5.0), 0.08, sine_gordon, 5.0)
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
            period = 5.0 if case == "one_start" else 40.0
            args = ([PlanarState(0.7, 0.1)], zero_w(period), 0.08,
                    sine_gordon, period)
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

    def test_picard_matrices_built_once_read_only(self):
        # nodes, coefficient map and integration matrix, shared by every call
        first = closure._picard_matrices(closure._NODES)
        assert closure._picard_matrices(closure._NODES) is first
        assert [a.shape for a in first] == [(closure._NODES,)] + \
            [(closure._NODES, closure._NODES)] * 2
        assert not any(a.flags.writeable for a in first)

    def test_unresolved_segments_are_halved(self, sine_gordon, monkeypatch):
        # 9 nodes do not resolve a quarter period to round-off: the
        # Chebyshev tail test halves the segments, and the end state holds
        monkeypatch.setattr(closure, "_NODES", 9)
        args = ([PlanarState(0.7, 0.1)], zero_w(5.0), 0.08, sine_gordon, 5.0)
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
        # f = 0 would carry a NaN through without any domain check
        calls = count_forcing(monkeypatch)
        model = sine_gordon if with_model else ZERO_MODEL
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_v([PlanarState(0.7, bad)], zero_w(5.0), 0.08, model, 5.0)
        assert calls == []

    def test_start_past_trust_radius_reraised_at_the_floor(self, sine_gordon,
                                                          monkeypatch):
        # each halving from p/4 down to the 1e-6 p floor costs one
        # evaluation, which leaves the trust radius again
        calls = count_forcing(monkeypatch)
        with pytest.raises(TrustRadiusError, match="trust radius"):
            integrate_v([PlanarState(100.0, 0.0)], zero_w(5.0), 0.08,
                        sine_gordon, 5.0)
        assert 0 < len(calls) <= 20


class TestGalerkinV:
    def test_linear_equation_has_only_the_zero_solution(self):
        # f = 0 leaves v_tautau + v/omega^2 = 0, whose only even
        # solution at a period off the linear one is v = 0
        a0 = np.zeros(128)
        a0[1] = 0.5
        a, r = galerkin_v(a0, zero_w(3.7), 0.1, ZERO_MODEL, 3.7)
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

    @pytest.mark.parametrize("model_name", ["sine_gordon", "phi4"])
    @pytest.mark.parametrize("N, N_tau", [(3, 8), (5, 8), (64, 24)])
    def test_matches_full_grid_oracle(self, model_name, N, N_tau, request):
        # the odd cosines on quarter-wave nodes against every cosine on the
        # full grid, from the orbit's series at a class field w (decaying as
        # a solution's, so the 64-point x grid's aliasing is round-off)
        model = request.getfixturevalue(model_name)
        orbit = find_orbit(model.f3, 0.9)
        w = decaying_field(N, orbit.period, N_tau, N)
        a0 = orbit.trajectory(256).cos_coeffs
        a, r = galerkin_v(a0, w, 0.1, model, orbit.period)
        ref, _ = oracle_galerkin_v(a0, w, 0.1, model, orbit.period)
        assert np.all(a[::2] == 0.0) and r < 1e-15
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_even_cosine_is_rejected(self):
        a0 = np.zeros(8)
        a0[1], a0[4] = 0.5, 1e-3
        with pytest.raises(ValueError, match=r"\(4,\) = 1\.000e-03"):
            galerkin_v(a0, zero_w(3.7), 0.1, ZERO_MODEL, 3.7)

    def test_singular_jacobian_is_degenerate(self):
        # at eps = 0 and the linear period 2 pi the j = 1 diagonal is 0
        a0 = np.zeros(8)
        a0[1:4:2] = 1e-3
        with pytest.raises(DegenerateOrbitError, match="singular"):
            galerkin_v(a0, zero_w(2.0 * np.pi), 0.0, ZERO_MODEL, 2.0 * np.pi)


class TestHamiltonian:
    def test_slow_flow_conserves_H(self, sine_gordon):
        eps, period = 0.08, 5.0
        V0 = PlanarState(0.7, 0.1)
        _, [y] = integrate_v([V0], zero_w(period), eps, sine_gordon, period)
        H0 = hamiltonian_H(V0, np.zeros(3), np.zeros(3), eps, sine_gordon)
        H1 = hamiltonian_H(PlanarState(*y[:, -1]), np.zeros(3), np.zeros(3),
                           eps, sine_gordon)
        assert abs(H1 - H0) < 1e-10

    def test_quadratic_fast_terms_parseval(self):
        eps = 0.2
        w2 = 1.0 + eps**2
        state = PlanarState(0.4, -0.3)
        b = np.array([0.0, 0.0, 0.3, -0.2])
        bt = np.array([0.1, 0.0, 0.05, 0.0])
        H = hamiltonian_H(state, b, bt, eps, ZERO_MODEL)
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
        # residual certificate) is built only when read; the certificate
        # is the one F of a field padded past the truncation cap
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
            calls["certificate"] += args[1].band_x > solver.SolverConfig().N_cap
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
        # the loop reads the reported run's certificate, which it keeps
        assert calls == {"gate": 2, "integrate_v": 1, "operator": 2,
                         "certificate": 1, "assemble_F": 6, "drive": 6,
                         "nash_moser_solve": 3}
        assert result.outer_iters == 3
        assert result.delta1 == pytest.approx(DELTA1_01, abs=1e-9)
        result.to_json_dict()
        assert calls == {"gate": 2, "integrate_v": 1, "operator": 3,
                         "certificate": 1, "assemble_F": 6, "drive": 6,
                         "nash_moser_solve": 3}

    def test_loop_ends_on_the_contraction_estimate(self, closure01):
        # the w-updates contract by q = 6e-5: round 3 moves delta by 1.1e-9,
        # above the tolerance, and the estimated rest L dw / (1 - q) is far
        # below it, so round 3 is cold, gated and the last
        (_, _, dw1), (d2, _, dw2), (d3, _, dw3) = closure01.history
        q = dw2 / dw1
        assert q < 1e-4
        assert abs(d3 - d2) > closure._TOL_OUTER
        assert abs(d3 - d2) / dw2 * dw3 / (1.0 - q) <= 1e-2 * closure._TOL_OUTER

    def test_loop_without_history_ends_by_measurement(
            self, closure01, orbit09, sine_gordon, monkeypatch):
        # round 2 has one w-update behind it and no contraction estimate:
        # its delta change of 5e-10 keeps it warm whatever its w-update
        d = closure01.delta1
        result, cold = scripted_loop(monkeypatch, closure01, orbit09,
                                     sine_gordon, [d, d + 5e-10, d + 5e-10],
                                     [1e-12, 1e-12])
        assert cold == [True, False, True]
        assert result.outer_iters == 3

    def test_loop_without_contraction_ends_by_measurement(
            self, closure01, orbit09, sine_gordon, monkeypatch):
        # round 3 estimates its rest from q = 1e-11 / |w|: it solves cold
        # but its estimated rest, 50 dw_3 = 1e-9, keeps the loop going.
        # Round 4 sees the w-updates grow (q = 2): no estimate holds, its
        # measured delta change of 5e-10 keeps it warm, and round 5, whose
        # delta has settled, ends the loop
        d = closure01.delta1
        deltas = [d, d + 1e-9, d + 1.5e-9, d + 2e-9, d + 2e-9]
        result, cold = scripted_loop(monkeypatch, closure01, orbit09,
                                     sine_gordon, deltas,
                                     [1e-11, 2e-11, 1e-12, 1e-12])
        assert cold == [True, False, True, False, True]
        assert result.outer_iters == 5
        assert result.delta1 == pytest.approx(deltas[-1], abs=1e-16)

    def test_narrow_band_is_widened(self, orbit09, sine_gordon, monkeypatch):
        # a sizing rule forced to N_tau = 4 leaves the certificate 8.1e-6:
        # the closure doubles the band until its run converges, up to the cap
        rule = solver._default_N_tau
        monkeypatch.setattr(solver, "_default_N_tau",
                            lambda traj, cfg: 4 if cfg.N_tau is None else rule(traj, cfg))
        result = solve_delta1(orbit09, 0.1, sine_gordon)
        assert result.run.N_tau == 8
        assert result.run.converged and result.closed
        assert result.delta1 == pytest.approx(DELTA1_01, abs=1e-9)
        capped = solve_delta1(orbit09, 0.1, sine_gordon,
                              solver.SolverConfig(N_tau_cap=6))
        assert capped.run.N_tau == 6 and not capped.run.converged

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
            if np.ndim(tau) == 1:
                p, p_tau = state.p.copy(), state.p_tau.copy()
                p[-1] -= 1e-3 * n_hat[0]
                p_tau[-1] -= 1e-3 * n_hat[1]
                state = PlanarState(p, p_tau)
            return H_at(tau, state, *args)

        monkeypatch.setattr(closure, "_H_at", unshifted_end)
        with pytest.raises(ClosureConsistencyError, match="invariance"):
            solve_delta1(orbit09, closure01.eps, sine_gordon)
        # the sweep documents the error as one that propagates
        with pytest.raises(ClosureConsistencyError):
            epsilon_sweep(sine_gordon, orbit09.amplitude, [closure01.eps])

    def test_gradient_read_only_for_a_large_defect(self, orbit09, sine_gordon,
                                                   monkeypatch):
        # a closing solve evaluates H at the certificate's steps only, in
        # one call over all of them
        calls = []
        H_at = closure._H_at

        def counted(tau, *args):
            calls.append(np.ndim(tau))
            return H_at(tau, *args)

        monkeypatch.setattr(closure, "_H_at", counted)
        assert solve_delta1(orbit09, 0.1, sine_gordon).closed
        assert calls == [1]
