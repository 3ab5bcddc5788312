"""Averaging-sequence tests: corrections, decay, exact substitution."""

import numpy as np
import pytest

from kgperiodic.fourier import SpaceTimeField, cos_analyze
from kgperiodic.nonlinearity import Nonlinearity
from kgperiodic.normalform import (
    default_k_max,
    identity_system,
    nf_sequence,
    nf_step,
    transformed_g,
)
from kgperiodic.planar import find_orbit
from kgperiodic.solver import assemble_F

from oracles import log_fit


@pytest.fixture(scope="module")
def traj_a1():
    return find_orbit(6.0, 1.0).trajectory(128)   # phi4 orbit, f3 = 6


@pytest.fixture(scope="module")
def traj_sg():
    return find_orbit(1.0, 1.0).trajectory(128)   # sine-Gordon orbit


class TestSteps:
    def test_zero_model_is_identity(self, traj_sg):
        sys0 = identity_system(None, 0.1, traj_sg.period, N_x=5, N_tau=8)
        sys1 = nf_step(sys0, traj_sg, 0.1)
        assert np.all(sys1.shift.coeffs == 0.0)
        assert sys1.drive_norm_history == (0.0,)

    def test_step0_drive_matches_independent_quadrature(self, traj_sg):
        # step-0 drive norm against a from-scratch collocation of g(v, 0)
        eps, N_x, N_tau = 0.1, 6, 12
        sg = Nonlinearity.sine_gordon()
        sys0 = identity_system(sg, eps, traj_sg.period, N_x=N_x, N_tau=N_tau)
        sys1 = nf_step(sys0, traj_sg, eps)

        M_tau, M_x = 256, 128
        taus = traj_sg.period * np.arange(M_tau) / M_tau
        v = np.array([traj_sg.v_at(t) for t in taus])
        x = np.pi * (2.0 * np.arange(M_x) / M_x - 1.0)
        vals = sg.scaled_eval(np.outer(v, np.sin(x)), eps) / (-(1.0 + eps**2))
        # project onto sin(kx), k >= 2 then cos(j tau)
        sines = np.sin(np.outer(x, np.arange(N_x + 1)))
        b = (2.0 / M_x) * vals @ sines
        b[:, :2] = 0.0
        a = cos_analyze(b.T, N_tau).T
        expected = SpaceTimeField(traj_sg.period, a).norm(1.0)
        assert sys1.drive_norm_history[0] == pytest.approx(expected, rel=1e-12)

    def test_step1_correction_diagonal_solve_oracle(self, traj_a1):
        # phi4, v on the a = 1 orbit: scaled_eval(v sin x, 0.1) = (v sin x)^3
        # exactly, so the drive is -(1/omega^2) v^3 Q(sin^3 x) =
        # (1/(4 omega^2)) v^3 sin 3x and the step-1 correction is its
        # diagonal J_eps^{-1} inverse scaled by eps^2.
        eps = 0.1
        phi4 = Nonlinearity.phi4()
        omega2 = 1.0 + eps**2
        sys1 = nf_step(identity_system(phi4, eps, traj_a1.period, 6, 16),
                       traj_a1, eps)
        corr = sys1.correction_stack[0]

        M_tau = 64
        v = traj_a1.resample(M_tau)
        profile = cos_analyze(v**3, 16)  # cos coefficients of v(tau)^3
        symbol = 1.0 / omega2 - 9.0
        expected = (eps**2) * (1.0 / (4.0 * omega2)) * profile / symbol
        assert np.max(np.abs(corr.coeffs[:, 3] - expected)) < 1e-12
        mask = np.ones(corr.coeffs.shape[1], dtype=bool)
        mask[3] = False
        assert np.max(np.abs(corr.coeffs[:, mask])) < 1e-12

    def test_eps_mismatch_rejected(self, traj_sg):
        sys0 = identity_system(None, 0.1, traj_sg.period, 4, 4)
        with pytest.raises(ValueError):
            nf_step(sys0, traj_sg, 0.2)


class TestSequence:
    def test_k0_unchanged(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        sys = nf_sequence(traj_sg, 0.1, sg, N_x=5, N_tau=10, k_max=0)
        assert sys.step == 0 and sys.correction_stack == ()

    def test_drive_decreases_step0_to_1(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        sys = nf_sequence(traj_sg, 0.1, sg, N_x=5, N_tau=10, k_max=2)
        hist = sys.drive_norm_history
        assert len(hist) >= 2 and hist[1] < hist[0]

    def test_contraction_ratio_small_eps(self, traj_sg):
        # ratio <= 1/2 per completed step for eps = 0.05, k <= 5
        sg = Nonlinearity.sine_gordon()
        sys = nf_sequence(traj_sg, 0.05, sg, N_x=5, N_tau=20, k_max=5)
        hist = sys.drive_norm_history
        assert len(hist) >= 2
        ratios = [b / a for a, b in zip(hist, hist[1:])]
        assert all(r <= 0.5 for r in ratios)

    def test_terminal_drive_decreasing_in_eps(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        terminals = []
        for eps in (0.2, 0.1, 0.05):
            sys = nf_sequence(traj_sg, eps, sg, N_x=5, N_tau=24, k_max=3)
            nxt = nf_step(sys, traj_sg, eps)   # measure the residual drive
            terminals.append(nxt.drive_norm_history[-1])
        assert terminals[0] > terminals[1] > terminals[2]

    def test_terminal_drive_exponential_shape(self, traj_sg):
        # log(terminal drive) vs 1/eps: negative slope, correlation >= 0.9.
        # The grid keeps the step budget floor(c_emp/eps) active while the
        # terminal drive stays above the roundoff floor (~1e-16), where the
        # exponential-smallness law is actually observable.
        sg = Nonlinearity.sine_gordon()
        inv_eps, logs = [], []
        for eps in (0.2, 0.16, 0.133, 0.114, 0.1):
            sys = nf_sequence(traj_sg, eps, sg, N_x=5, N_tau=24)
            nxt = nf_step(sys, traj_sg, eps)
            inv_eps.append(1.0 / eps)
            logs.append(np.log(nxt.drive_norm_history[-1]))
        slope, r2 = log_fit(inv_eps, logs)
        assert slope < 0.0 and r2 >= 0.9

    def test_default_budget(self):
        assert default_k_max(0.1) == min(8, int(np.floor(0.8 / 0.1)))
        assert default_k_max(0.0) == 0


class TestExactSubstitution:
    def test_residual_transport(self, traj_sg, rng):
        # F_transformed(wbar) must equal F_original(wbar - S) exactly: the
        # transformation is a change of variables, not an approximation.
        eps, N_x, N_tau = 0.1, 5, 10
        sg = Nonlinearity.sine_gordon()
        sys = nf_sequence(traj_sg, eps, sg, N_x=N_x, N_tau=N_tau, k_max=2)
        assert sys.step >= 1

        coeffs = 1e-3 * rng.standard_normal((N_tau + 1, N_x + 1))
        coeffs[:, :2] = 0.0
        wbar = SpaceTimeField(traj_sg.period, coeffs)

        lhs = assemble_F(traj_sg, wbar, eps, sg, sys=sys)
        rhs = assemble_F(traj_sg, sys.to_original(wbar), eps, sg)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-14

    def test_roundtrip_frames(self, traj_sg, rng):
        eps = 0.1
        sg = Nonlinearity.sine_gordon()
        sys = nf_sequence(traj_sg, eps, sg, N_x=4, N_tau=8, k_max=1)
        coeffs = rng.standard_normal((9, 5))
        coeffs[:, :2] = 0.0
        w = SpaceTimeField(traj_sg.period, coeffs)
        back = sys.to_transformed(sys.to_original(w))
        assert np.allclose(back.coeffs, w.coeffs, atol=1e-15)


class TestProjectedG:
    """The Q-projected forcing g(v, 0) of the untransformed system."""

    def test_zero_model_hook(self, traj_sg):
        sys0 = identity_system(None, 0.1, traj_sg.period, N_x=4, N_tau=6)
        g = transformed_g(sys0, traj_sg, None, M_tau=24, M_x=16)
        assert g.coeffs.shape == (7, 5)
        assert np.all(g.coeffs == 0.0)

    def test_q_space_output(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        sys0 = identity_system(sg, 0.1, traj_sg.period, N_x=6, N_tau=8)
        g = transformed_g(sys0, traj_sg, None, M_tau=32, M_x=24)
        assert np.all(g.coeffs[:, :2] == 0.0)
