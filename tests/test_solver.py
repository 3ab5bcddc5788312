"""Residual/linearization assembly and the nested-truncation solver."""

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from scipy.linalg import svdvals

from kgperiodic import solver
from kgperiodic.divisors import (
    DivisorTable,
    HillSpectrum,
    ResonanceError,
    ResonanceParams,
    averaged_potential,
    epsilon_kj,
    hill_eigs,
)
from kgperiodic.fourier import SpaceTimeField, cos_analyze, project_Q
from kgperiodic.nonlinearity import collocate
from kgperiodic.normalform import _linear_symbol
from kgperiodic.planar import VTrajectory
from kgperiodic.solver import (
    FITTED_C,
    LinearizedOperator,
    NonConvergenceError,
    SolverConfig,
    _pack,
    _unpack,
    assemble_F,
    nash_moser_solve,
    resonance_gate,
    schedule_for,
    sigma_min_law_samples,
)

from oracles import (assemble_L, oracle_averaged_potential,
                     oracle_is_resonant, oracle_jacobian, oracle_newton_solve)

EPS = 0.1


@pytest.fixture(scope="module")
def traj(orbit09):
    return orbit09.trajectory(256)


def small_field(gen, period, N_tau=6, N_x=5, scale=1e-2):
    coeffs = scale * gen.standard_normal((N_tau + 1, N_x + 1))
    coeffs[:, :2] = 0.0
    return SpaceTimeField(period=period, coeffs=coeffs)


def operator_matrix(op):
    """Dense matrix of a LinearizedOperator, column by column through apply."""
    return np.column_stack([op.apply(e) for e in np.eye(op.size)])


class TestAssembleF:
    def test_model_none_is_diagonal_symbol(self, traj):
        p = traj.period
        coeffs = np.zeros((5, 6))
        coeffs[2, 3] = 1.0
        w = SpaceTimeField(period=p, coeffs=coeffs)
        F = assemble_F(traj, w, EPS, None)
        expected = 1.0 / (1.0 + EPS**2) - 9.0 + EPS**2 * (4.0 * np.pi / p) ** 2
        assert F.coeffs[2, 3] == pytest.approx(expected, rel=1e-14)
        mask = np.ones_like(F.coeffs, dtype=bool)
        mask[2, 3] = False
        assert np.max(np.abs(F.coeffs[mask])) == 0.0

    def test_zero_field_model_none_is_zero(self, traj):
        w = SpaceTimeField(period=traj.period, coeffs=np.zeros((4, 5)))
        F = assemble_F(traj, w, EPS, None)
        assert np.max(np.abs(F.coeffs)) == 0.0

    def test_zero_field_gives_scaled_drive(self, traj, sine_gordon):
        # F(0) = eps^2 * g(v, 0): the linear part vanishes at w = 0, and the
        # zero field's samples act as no w at all
        N_tau, N_x = 8, 6
        w = SpaceTimeField(period=traj.period,
                           coeffs=np.zeros((N_tau + 1, N_x + 1)))
        F = assemble_F(traj, w, EPS, sine_gordon, M_tau=128, M_x=64)
        vals = collocate(sine_gordon, EPS, traj.resample(128), None, 64)
        g = cos_analyze(project_Q(vals, N_x).T, N_tau).T
        assert np.max(np.abs(F.coeffs - EPS**2 * g)) < 1e-15


class TestAssembleL:
    """The matrix-free operator against the dense oracle `assemble_L`."""

    def test_symmetry(self, traj, sine_gordon, rng):
        w = small_field(rng, traj.period)
        M = operator_matrix(LinearizedOperator(traj, w, EPS, sine_gordon, N=5))
        assert np.max(np.abs(M - M.T)) < 1e-13 * np.max(np.abs(M))
        L = assemble_L(traj, w, EPS, sine_gordon, N=5, N_tau=6)
        assert np.max(np.abs(M - L)) < 1e-13 * np.max(np.abs(L))

    def test_model_none_exactly_diagonal(self, traj):
        w = SpaceTimeField(period=traj.period, coeffs=np.zeros((7, 6)))
        op = LinearizedOperator(traj, w, EPS, None, N=5)
        M = operator_matrix(op)
        sym = _linear_symbol(traj.period, EPS, 6, 5)[:, 2:]
        assert np.array_equal(np.diag(M), sym.ravel())
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) == 0.0
        assert op.sigma_radius == 0.0
        assert op.sigma_min == np.min(np.abs(sym))

    def test_fd_linearization_quartic_decay(self, traj, sine_gordon, rng):
        # F(w0 + t h) - F(w0) - t L h = O(t^2): halving t quarters the error
        p = traj.period
        w0 = small_field(rng, p)
        h = small_field(rng, p)
        F0 = assemble_F(traj, w0, EPS, sine_gordon)
        op = LinearizedOperator(traj, w0, EPS, sine_gordon, N=5)
        Lh = op.apply(_pack(h.coeffs, 5))

        def remainder(t):
            Ft = assemble_F(traj, w0 + t * h, EPS, sine_gordon)
            return np.linalg.norm(_pack(Ft.coeffs - F0.coeffs, 5) - t * Lh)

        ratio = remainder(1e-2) / remainder(5e-3)
        assert 3.5 < ratio < 4.5

    def test_matches_fd_jacobian(self, traj, sine_gordon, rng):
        p = traj.period
        N, J = 3, 4

        def F_vec(u):
            w = _unpack(u, p, N, J, N)
            F = assemble_F(traj, w, EPS, sine_gordon)
            return _pack(F.coeffs, N)

        u0 = 1e-2 * rng.standard_normal((J + 1) * (N - 1))
        J_fd = oracle_jacobian(F_vec, u0, h=1e-6)
        w0 = _unpack(u0, p, N, J, N)
        M = operator_matrix(LinearizedOperator(traj, w0, EPS, sine_gordon, N=N))
        assert np.max(np.abs(J_fd - M)) < 1e-8


class TestLinearizedOperator:
    @pytest.fixture(scope="class")
    def canonical(self, closure01):
        """Operator and dense oracle at the converged canonical point (N = 64)."""
        run = closure01.run
        N = run.effective_schedule[-1]
        args = (closure01.V_traj, run.w, run.eps, run.model, N)
        return (LinearizedOperator(*args), assemble_L(*args, N_tau=run.N_tau),
                run.stages[-1])

    def test_apply_matches_oracle_at_canonical_size(self, canonical, rng):
        op, L, _ = canonical
        assert op.size == L.shape[0] == 25 * 63
        for _ in range(3):
            u = rng.standard_normal(op.size)
            ref = L @ u
            assert np.linalg.norm(op.apply(u) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_solve_matches_dense_solve(self, canonical, rng):
        op, L, _ = canonical
        rhs = rng.standard_normal(op.size)
        x = op.solve(rhs)
        ref = np.linalg.solve(L, rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_solve_takes_few_steps(self, canonical, rng, monkeypatch):
        # sigma_radius / sigma_min bounds the contraction of each
        # preconditioned step; at the canonical point a handful suffice
        op, _, stage = canonical
        assert stage.sigma_radius / stage.sigma_min < 0.5
        steps = []
        block_solve = op._block_solve
        monkeypatch.setattr(op, "_block_solve",
                            lambda r: steps.append(1) or block_solve(r))
        op.solve(rng.standard_normal(op.size))
        assert len(steps) <= 6

    def test_stage_sigma_min_inside_enclosure(self, canonical):
        op, L, stage = canonical
        sigma = svdvals(L)[-1]
        assert stage.sigma_min == pytest.approx(sigma, rel=1e-5)
        assert abs(sigma - stage.sigma_min) <= stage.sigma_radius
        assert 0.0 < stage.sigma_radius < stage.sigma_min
        assert op.sigma_min == pytest.approx(stage.sigma_min, rel=1e-8)

    def test_solves_and_reports(self, traj, sine_gordon, rng):
        w = small_field(rng, traj.period)
        op = LinearizedOperator(traj, w, EPS, sine_gordon, N=5)
        rhs = rng.standard_normal(op.size)
        x = op.solve(rhs)
        L = assemble_L(traj, w, EPS, sine_gordon, N=5, N_tau=6)
        assert np.allclose(L @ x, rhs, atol=1e-12)
        params = ResonanceParams()
        rep = op.report(params)
        assert rep.N == 5 and rep.size == 7 * 4
        expected = rep.sigma_min * 5.0**params.gamma / EPS ** (params.l - 1.0)
        assert rep.law_constant == pytest.approx(expected, rel=1e-14)
        assert rep.ratio_vs_fit == pytest.approx(rep.law_constant / FITTED_C)
        assert abs(svdvals(L)[-1] - rep.sigma_min) <= rep.sigma_radius

    def test_near_singular_names_culprit(self):
        # flat spectrum, period 2 pi: the divisor D(2, 115) vanishes at its root
        period = 2.0 * np.pi
        spec = HillSpectrum.flat(period, 200)
        center = epsilon_kj(2, 115, spec)
        flat = VTrajectory(period, np.zeros(8))
        w = SpaceTimeField.zeros(period, 120, 2)
        op = LinearizedOperator(flat, w, center, None, N=2)
        with pytest.raises(ResonanceError) as info:
            op.check_collapse()
        assert info.value.culprit == (2, 115)
        assert "(k, j)" in str(info.value)

    def test_failed_solve_raises(self, traj, monkeypatch):
        # a non-finite residual stops the iteration at once, not at its cap
        w = SpaceTimeField.zeros(traj.period, 4, 3)
        op = LinearizedOperator(traj, w, EPS, None, N=3)
        applies = []
        apply = op.apply
        monkeypatch.setattr(op, "apply", lambda u: applies.append(1) or apply(u))
        with pytest.raises(NonConvergenceError):
            op.solve(np.full(op.size, np.nan))
        assert 1 <= len(applies) <= 2

    def test_step_cap_raises(self, canonical, rng, monkeypatch):
        op, _, _ = canonical
        monkeypatch.setattr(solver, "_SOLVE_STEPS", 1)
        with pytest.raises(NonConvergenceError, match=r"step cap 1\)"):
            op.solve(rng.standard_normal(op.size))


def block_eigvalsh(L, N):
    """Eigenvalues of the whole k = l blocks of a dense linearization, the
    packed index running over j * (N - 1) + (k - 2)."""
    return np.linalg.eigvalsh(np.stack([L[i::N - 1, i::N - 1]
                                        for i in range(N - 1)]))


class TestParitySplit:
    """Hill blocks solved per parity class against whole-block eigvalsh."""

    def law_operator(self, traj, model, eps, N=6):
        N_tau = int(np.ceil(1.2 * traj.period / (2 * np.pi) * N / eps))
        w0 = SpaceTimeField.zeros(traj.period, N_tau, N)
        return (LinearizedOperator(traj, w0, eps, model, N),
                assemble_L(traj, w0, eps, model, N))

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_law_operator_splits(self, traj, sine_gordon, eps):
        # the orbit's even harmonics are round-off, so the blocks split;
        # the culprit and sigma_min are those of the whole blocks, and the
        # enclosure, which adds the dropped mass, holds
        op, L = self.law_operator(traj, sine_gordon, eps)
        assert op.parity_radius is not None
        assert 0.0 <= op.parity_radius <= op.sigma_radius
        lam = block_eigvalsh(L, op.N)
        k_i, j_i = np.unravel_index(np.argmin(np.abs(lam)), lam.shape)
        assert op.culprit == (k_i + 2, j_i)
        assert op.sigma_min == pytest.approx(abs(lam[k_i, j_i]), rel=1e-12)
        assert abs(svdvals(L)[-1] - op.sigma_min) <= op.sigma_radius

    def test_single_block_radius_is_the_dropped_mass(self, traj, sine_gordon):
        # N = 2 has no off-block part, so the enclosure is exactly the Weyl
        # mass of the dropped round-off odd harmonics, and it is not zero
        w = SpaceTimeField.zeros(traj.period, 40, 2)
        op = LinearizedOperator(traj, w, EPS, sine_gordon, 2)
        assert op.parity_radius is not None and op.parity_radius > 0.0
        assert op.sigma_radius == op.parity_radius

    def test_split_preconditioner_solves(self, traj, sine_gordon, rng):
        op, L = self.law_operator(traj, sine_gordon, 0.2)
        rhs = rng.standard_normal(op.size)
        assert np.allclose(L @ op.solve(rhs), rhs, atol=1e-12)

    def test_even_harmonic_solves_whole_blocks(self, sine_gordon, rng):
        # a j = 2 harmonic in v puts odd harmonics in m, far above round-off
        traj = VTrajectory(6.0, np.array([0.0, 0.9, 0.05, 0.01]))
        w = SpaceTimeField.zeros(traj.period, 24, 4)
        op = LinearizedOperator(traj, w, EPS, sine_gordon, 4)
        L = assemble_L(traj, w, EPS, sine_gordon, 4)
        assert op.parity_radius is None
        lam = block_eigvalsh(L, 4)
        k_i, j_i = np.unravel_index(np.argmin(np.abs(lam)), lam.shape)
        assert op.culprit == (k_i + 2, j_i)
        assert op.sigma_min == pytest.approx(abs(lam[k_i, j_i]), rel=1e-12)
        assert abs(svdvals(L)[-1] - op.sigma_min) <= op.sigma_radius
        rhs = rng.standard_normal(op.size)
        assert np.allclose(L @ op.solve(rhs), rhs, atol=1e-12)

    def test_law_battery_keeps_its_draws(self, sine_gordon):
        # the seeded battery of the frozen FITTED_C; the eps draws and law
        # constants are pinned from whole-block eigensolves on the
        # collocated potential
        reports = sigma_min_law_samples(sine_gordon, n_samples=50, seed=2026)
        eps = [r.eps for r in reports]
        law = [r.law_constant for r in reports]
        assert (eps[0], eps[-1]) == (0.07684022205131544, 0.08236858641261785)
        assert math.fsum(eps) == pytest.approx(5.608553157295508, rel=1e-15)
        assert law[0] == pytest.approx(4.970758409864892, rel=1e-10)
        assert law[-1] == pytest.approx(3.945701442044645, rel=1e-10)
        assert eps[int(np.argmin(law))] == 0.051928683161739556
        assert min(law) == pytest.approx(2.4093972403749406, rel=1e-10)
        assert min(law) >= FITTED_C


class TestSchedule:
    def test_growth_and_cap(self):
        cfg = SolverConfig()
        req, eff = schedule_for(0.5, cfg)
        assert req == (3, 9, 81)
        assert eff == (3, 9, 64)
        req, eff = schedule_for(0.1, cfg)
        assert req[0] in (54, 55)            # floor((1/eps + 1/eps^2)/2)
        assert req[1] == req[0] ** 2
        assert eff[-1] == cfg.N_cap
        assert all(b > a for a, b in zip(eff, eff[1:]))
        assert all(n <= cfg.N_cap for n in eff)

    def test_explicit_passthrough(self):
        cfg = SolverConfig(schedule=(6, 12))
        assert schedule_for(0.07, cfg) == ((6, 12), (6, 12))

    def test_config_validation(self):
        # gamma = 0.8: sigma = 3 is not above gamma + l = 3.7
        with pytest.raises(ValueError, match="resonance exponents"):
            SolverConfig(resonance=ResonanceParams(alpha=0.1, l=2.9))
        with pytest.raises(ValueError):
            SolverConfig(schedule=(4, 4))
        with pytest.raises(ValueError):
            SolverConfig(schedule=(1, 8))

    def test_N_cap_below_2_rejected(self):
        # the Q-space starts at k = 2: no truncation below it
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="N_cap"):
                SolverConfig(N_cap=n)
        assert schedule_for(0.5, SolverConfig(N_cap=2)) == ((3,), (2,))

    def test_eps_domain(self, traj):
        cfg = SolverConfig(schedule=(3,), N_tau=2)
        with pytest.raises(ValueError):
            nash_moser_solve(traj, 1.5, cfg, None)


class TestSolveOracle:
    def test_miniature_truncation_matches_oracle(self, traj, sine_gordon):
        cfg = SolverConfig(schedule=(3,), N_tau=4, nf_steps=0,
                           residual_tol=1e-12)
        run = nash_moser_solve(traj, EPS, cfg, sine_gordon)
        ref = oracle_newton_solve(traj, EPS, N=3, J_max=4, model=sine_gordon,
                                  tol=1e-12)
        assert run.converged
        assert np.max(np.abs(run.w.coeffs - ref.coeffs)) < 1e-9

    def test_canonical_run_reports(self, closure01):
        run = closure01.run
        assert run.converged
        assert run.residual_certificate < 1e-9
        assert run.effective_schedule[-1] == 64
        # the Galerkin trajectory's cosines fall below 1e-13 of the largest
        # by j = 11, so N_tau takes its floor of 24
        assert run.N_tau == 24
        # stage records carry the inverse-norm law constants
        for stage in run.stages:
            assert stage.law_constant >= FITTED_C
            assert stage.sigma_radius < stage.sigma_min
            assert stage.residual_s <= 1e-10
        # increments contract between nested truncations
        incs = [s.increment_norm_s for s in run.stages]
        assert incs[-1] < incs[0]
        # the two averaging steps that made the Newton start
        assert run.start.drive_norm_history == pytest.approx(
            (0.09916584090578624, 0.0006596266992260916), rel=1e-12)

    def test_warm_start_at_the_solution_takes_no_step(self, traj,
                                                      sine_gordon):
        cfg = SolverConfig()
        run = nash_moser_solve(traj, EPS, cfg, sine_gordon)
        again = nash_moser_solve(traj, EPS, cfg, sine_gordon,
                                 w0=run.correction)
        assert [s.newton_iters for s in again.stages] == [0] * len(run.stages)
        assert np.max(np.abs(again.w.coeffs - run.w.coeffs)) < 1e-12

    def test_report_is_built_once(self, traj, sine_gordon, monkeypatch):
        # at the solution every stage takes no step: reading the run's
        # fields builds nothing, the first report read builds one operator
        # per stage and one certificate, and a second read builds nothing
        cfg = SolverConfig()
        run = nash_moser_solve(traj, EPS, cfg, sine_gordon)
        again = nash_moser_solve(traj, EPS, cfg, sine_gordon,
                                 w0=run.correction)
        calls = {"operator": 0, "assemble_F": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "LinearizedOperator",
                            counted("operator", solver.LinearizedOperator))
        monkeypatch.setattr(solver, "assemble_F",
                            counted("assemble_F", solver.assemble_F))
        assert [s.newton_iters for s in again.stages] == [0] * len(again.stages)
        assert again.requested_schedule and again.effective_schedule
        assert again.w.norm(1.0) > 0.0
        assert calls == {"operator": 0, "assemble_F": 0}
        first = again.to_json_dict()
        assert calls == {"operator": len(again.stages), "assemble_F": 1}
        assert again.to_json_dict() == first
        assert again.converged and again.stages[0].sigma_min > 0.0
        assert calls == {"operator": len(again.stages), "assemble_F": 1}

    def test_failure_carries_serializable_stages(self, traj, sine_gordon):
        # a warm start at the (3, 6) solution passes those stages without a
        # Newton step; with no step allowed, stage 12 fails and the error
        # carries the two completed stages, which report their conditioning
        base = dict(N_tau=8, nf_steps=0, residual_tol=1e-14)
        small = nash_moser_solve(traj, EPS, SolverConfig(schedule=(3, 6), **base),
                                 sine_gordon)
        cfg = SolverConfig(schedule=(3, 6, 12), max_stage_iters=0, **base)
        with pytest.raises(NonConvergenceError, match="stage N = 12") as info:
            nash_moser_solve(traj, EPS, cfg, sine_gordon, w0=small.correction)
        # the records also survive pickling with their conditioning unread
        stages = pickle.loads(pickle.dumps(info.value.stages))
        docs = json.loads(json.dumps([s.to_json_dict() for s in stages]))
        assert [(d["N"], d["newton_iters"]) for d in docs] == [(3, 0), (6, 0)]
        for d in docs:
            assert 0.0 <= d["sigma_radius"] < d["sigma_min"]
            assert d["law_constant"] >= FITTED_C

    def test_warm_start_copies_the_overlapping_band(self, traj, sine_gordon):
        # a correction on a smaller band, added to the larger solve's
        # averaged start, seeds it; the answer is the cold one
        cfg = SolverConfig(schedule=(6,), N_tau=8)
        cold = nash_moser_solve(traj, EPS, cfg, sine_gordon)
        small = nash_moser_solve(traj, EPS, SolverConfig(schedule=(4,), N_tau=5),
                                 sine_gordon)
        warm = nash_moser_solve(traj, EPS, cfg, sine_gordon,
                                w0=small.correction)
        assert warm.w.coeffs.shape == cold.w.coeffs.shape
        assert warm.converged
        assert np.max(np.abs(warm.w.coeffs - cold.w.coeffs)) < 1e-10
        with pytest.raises(ValueError, match="period mismatch"):
            nash_moser_solve(traj, EPS, cfg, sine_gordon, w0=SpaceTimeField(
                period=traj.period + 1.0, coeffs=small.w.coeffs))

    def test_window_gate_left_to_the_caller(self, traj, sine_gordon,
                                            monkeypatch):
        # inside the (k=2, j=12) window the solve runs no gate: deciding
        # which solves the gate guards is the closure's job
        calls = []

        def gate(*args, **kwargs):
            calls.append(args)
            return resonance_gate(*args, **kwargs)

        monkeypatch.setattr(solver, "resonance_gate", gate)
        cfg = SolverConfig(schedule=(3,), N_tau=4, nf_steps=0)
        run = nash_moser_solve(traj, 0.1396532019663832, cfg, sine_gordon)
        assert run.converged and calls == []

    def test_inverse_norm_law_floor(self, sine_gordon):
        reports = sigma_min_law_samples(sine_gordon, n_samples=4, seed=7)
        assert len(reports) == 4
        assert min(r.law_constant for r in reports) >= FITTED_C
        assert all(r.ratio_vs_fit >= 1.0 for r in reports)


class TestResonanceGateEndToEnd:
    def test_gate_passes_fixture_point(self, traj, sine_gordon):
        report, spectrum, table = resonance_gate(traj, EPS, sine_gordon, K=8,
                                                 params=ResonanceParams())
        assert not report.resonant
        assert spectrum.period == pytest.approx(traj.period)

    def test_gate_blocks_window_center(self, traj, sine_gordon):
        # eps sitting inside the (k=2, j=12) window of the a = 0.9 potential
        with pytest.raises(ResonanceError) as info:
            resonance_gate(traj, 0.1396532019663832, sine_gordon, K=8,
                           params=ResonanceParams())
        assert info.value.report is not None
        assert (info.value.report.nearest_k, info.value.report.nearest_j) == (2, 12)

    def test_closed_form_potential_keeps_the_verdicts(self, traj, sine_gordon,
                                                      monkeypatch):
        # 3000 seeded draws, gated at K = 6 and 64 in turn: the closed-form
        # x-moments and the collocated oracle potential reach the same
        # verdict at the same window, with centers equal to round-off
        params = ResonanceParams()
        draws = np.random.default_rng(2026).uniform(0.05, 0.2, 3000).tolist()
        Ks = [6, 64] * (len(draws) // 2)

        def verdicts():
            out = []
            for eps, K in zip(draws, Ks):
                try:
                    out.append(resonance_gate(traj, eps, sine_gordon, K=K,
                                              params=params)[0])
                except ResonanceError as ex:
                    out.append(ex.report)
            return out

        closed = verdicts()
        monkeypatch.setattr(solver, "averaged_potential", oracle_averaged_potential)
        collocated = verdicts()
        for K in (6, 64):
            assert 0 < sum(r.resonant for r, k in zip(closed, Ks) if k == K) < 1500
        for a, b in zip(closed, collocated):
            assert (a.resonant, a.nearest_k, a.nearest_j) == (
                b.resonant, b.nearest_k, b.nearest_j)
            assert a.center == pytest.approx(b.center, rel=1e-13)

    @pytest.mark.parametrize("K", [6, 64])
    def test_sized_solve_keeps_the_verdict(self, traj, sine_gordon, K):
        # the gate solves the Hill problem only 16 past its table; the full
        # table over a J = 400 spectrum reports the same window, with the
        # center moved only by the round-off between the two eigensolves
        params = ResonanceParams()
        draws = np.random.default_rng(2026).uniform(0.05, 0.2, 12)
        for eps in (*draws, EPS, 0.1396532019663832):
            eps = float(eps)
            try:
                report, spectrum, table = resonance_gate(traj, eps, sine_gordon,
                                                         K=K, params=params)
                assert spectrum.J_max == min(400, table.J_max + 16)
            except ResonanceError as ex:
                report = ex.report
            q = averaged_potential(traj, eps, sine_gordon)
            j_table = int(np.ceil(2.5 * K * max(1.0, traj.period / (2 * np.pi)) / eps))
            full = DivisorTable.build(hill_eigs(q, traj.period, 400), K, j_table)
            expected = oracle_is_resonant(eps, params, full)
            assert report == dataclasses.replace(expected, center=report.center,
                                                 distance=report.distance)
            assert report.center == pytest.approx(expected.center, rel=1e-13)
            assert report.distance == pytest.approx(expected.distance,
                                                    abs=1e-13 * expected.center)
