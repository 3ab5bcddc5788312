"""Averaging-stage tests: the physical-frame steps and the decay of their drives."""

import numpy as np
import pytest

from kgperiodic.fourier import SpaceTimeField, cos_analyze
from kgperiodic.nonlinearity import Nonlinearity
from kgperiodic.normalform import assemble_F, nf_sequence
from kgperiodic.planar import find_orbit

from oracles import ZERO_MODEL, log_fit, v_at


@pytest.fixture(scope="module")
def traj_a1():
    return find_orbit(6.0, 1.0).trajectory(128)   # phi4 orbit, f3 = 6


@pytest.fixture(scope="module")
def traj_sg():
    return find_orbit(1.0, 1.0).trajectory(128)   # sine-Gordon orbit


def terminal_drive(traj, eps, model, start, N_x, N_tau):
    """Norm on the steps' band of the drive left after the steps kept,
    collocated on 4 N_tau x 4 N_x nodes: those of the field padded to
    (4 N_tau - 2, 4 N_x - 2)."""
    padded = start.w + SpaceTimeField.zeros(traj.period, 4 * N_tau - 2, 4 * N_x - 2)
    F = assemble_F(traj, padded, eps, model)
    return SpaceTimeField(traj.period, F.coeffs[:N_tau + 1, :N_x + 1]).norm(1.0) / eps**2


class TestSteps:
    def test_zero_model_is_identity(self, traj_sg):
        start = nf_sequence(traj_sg, 0.1, ZERO_MODEL, N_x=5, N_tau=8, k_max=1)
        assert start.w.coeffs.shape == (9, 6)
        assert np.all(start.w.coeffs == 0.0)
        assert start.drive_norm_history == (0.0,)

    def test_step0_drive_matches_independent_quadrature(self, traj_sg):
        # step-0 drive norm against a from-scratch collocation of g(v, 0)
        eps, N_x, N_tau = 0.1, 6, 12
        sg = Nonlinearity.sine_gordon()
        start = nf_sequence(traj_sg, eps, sg, N_x=N_x, N_tau=N_tau, k_max=1)

        M_tau, M_x = 256, 128
        taus = traj_sg.period * np.arange(M_tau) / M_tau
        v = np.array([v_at(traj_sg, t) for t in taus])
        x = np.pi * (2.0 * np.arange(M_x) / M_x - 1.0)
        vals = sg.scaled_eval(np.outer(v, np.sin(x)), eps) / (-(1.0 + eps**2))
        # project onto sin(kx), k >= 2 then cos(j tau)
        sines = np.sin(np.outer(x, np.arange(N_x + 1)))
        b = (2.0 / M_x) * vals @ sines
        b[:, :2] = 0.0
        a = cos_analyze(b.T, N_tau).T
        expected = SpaceTimeField(traj_sg.period, a).norm(1.0)
        assert start.drive_norm_history[0] == pytest.approx(expected, rel=1e-12)

    def test_step1_correction_diagonal_solve_oracle(self, traj_a1):
        # phi4, v on the a = 1 orbit: scaled_eval(v sin x, 0.1) = (v sin x)^3
        # exactly, so the drive is -(1/omega^2) v^3 Q(sin^3 x) =
        # (1/(4 omega^2)) v^3 sin 3x, and one step from w = 0 ends on minus
        # its diagonal J_eps^{-1} inverse scaled by eps^2.
        eps = 0.1
        phi4 = Nonlinearity.phi4()
        omega2 = 1.0 + eps**2
        start = nf_sequence(traj_a1, eps, phi4, N_x=6, N_tau=16, k_max=1)
        corr = -start.w.coeffs

        M_tau = 64
        v = traj_a1.resample(M_tau)
        profile = cos_analyze(v**3, 16)  # cos coefficients of v(tau)^3
        symbol = 1.0 / omega2 - 9.0
        expected = (eps**2) * (1.0 / (4.0 * omega2)) * profile / symbol
        assert np.max(np.abs(corr[:, 3] - expected)) < 1e-12
        mask = np.ones(corr.shape[1], dtype=bool)
        mask[3] = False
        assert np.max(np.abs(corr[:, mask])) < 1e-12


class TestSequence:
    def test_k0_unchanged(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        start = nf_sequence(traj_sg, 0.1, sg, N_x=5, N_tau=10, k_max=0)
        assert start.step == 0 and start.drive_norm_history == ()
        assert np.all(start.w.coeffs == 0.0)

    def test_drive_decreases_step0_to_1(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        hist = nf_sequence(traj_sg, 0.1, sg, N_x=5, N_tau=10,
                           k_max=2).drive_norm_history
        assert len(hist) >= 2 and hist[1] < hist[0]

    def test_contraction_ratio_small_eps(self, traj_sg):
        # ratio <= 1/2 per completed step for eps = 0.05, k <= 5
        sg = Nonlinearity.sine_gordon()
        hist = nf_sequence(traj_sg, 0.05, sg, N_x=5, N_tau=20,
                           k_max=5).drive_norm_history
        assert len(hist) >= 2
        ratios = [b / a for a, b in zip(hist, hist[1:])]
        assert all(r <= 0.5 for r in ratios)

    def test_terminal_drive_decreasing_in_eps(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        terminals = []
        for eps in (0.2, 0.1, 0.05):
            start = nf_sequence(traj_sg, eps, sg, N_x=5, N_tau=24, k_max=3)
            terminals.append(terminal_drive(traj_sg, eps, sg, start, 5, 24))
        assert terminals[0] > terminals[1] > terminals[2]

    def test_terminal_drive_exponential_shape(self, traj_sg):
        # log(terminal drive) vs 1/eps: negative slope, correlation >= 0.9.
        # The grid keeps the step budget min(8, floor(0.8/eps)) active while
        # the terminal drive stays above the roundoff floor (~1e-16), where
        # the exponential-smallness law is actually observable.
        sg = Nonlinearity.sine_gordon()
        inv_eps, logs = [], []
        for eps in (0.2, 0.16, 0.133, 0.114, 0.1):
            start = nf_sequence(traj_sg, eps, sg, N_x=5, N_tau=24,
                                k_max=min(8, int(np.floor(0.8 / eps))))
            inv_eps.append(1.0 / eps)
            logs.append(np.log(terminal_drive(traj_sg, eps, sg, start, 5, 24)))
        slope, r2 = log_fit(inv_eps, logs)
        assert slope < 0.0 and r2 >= 0.9


class TestProjectedG:
    """F(0) = eps^2 g(v, 0), eps^2 times the first step's drive: the
    Q-projected forcing."""

    def test_zero_model_hook(self, traj_sg):
        # the (22, 14) band collocates on 24 x 16 nodes
        w = SpaceTimeField.zeros(traj_sg.period, 22, 14)
        g = assemble_F(traj_sg, w, 0.1, ZERO_MODEL)
        assert g.coeffs.shape == (23, 15)
        assert np.all(g.coeffs == 0.0)

    def test_q_space_output(self, traj_sg):
        sg = Nonlinearity.sine_gordon()
        # the (30, 22) band collocates on 32 x 24 nodes
        w = SpaceTimeField.zeros(traj_sg.period, 30, 22)
        g = assemble_F(traj_sg, w, 0.1, sg)
        assert np.all(g.coeffs[:, :2] == 0.0)
        assert np.any(g.coeffs != 0.0)
