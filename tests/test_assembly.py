"""Physical-frame assembly of u(x, t), residuals, tails, and the sweep."""

import dataclasses
import math

import numpy as np
import pytest

from kgperiodic import assembly
from kgperiodic.assembly import (
    AssembledSolution,
    SweepRow,
    epsilon_sweep,
    pde_residual,
    solve_point,
    tail_norm,
)
from kgperiodic.closure import (
    ClosureConsistencyError,
    DegenerateOrbitError,
    IntegrationError,
    OuterLoopError,
)
from kgperiodic.fourier import SpaceTimeField
from kgperiodic.solver import NonConvergenceError, SolverConfig

from oracles import tail_oracle

# Frozen canonical values at eps = 0.1, amplitude 0.9 (deterministic run).
T_PERIOD_01 = 6.252003053624663
X_PERIOD_01 = 60.27965249036394
MAX_U_OVER_EPS_01 = 0.9621246777948442


def manual_solution():
    eps, period = 0.3, 5.0
    v_cos = np.array([0.1, 0.8, 0.02])
    B = np.zeros((3, 5))
    B[0, 2], B[1, 3], B[2, 4], B[1, 2] = 0.04, -0.03, 0.015, 0.02
    w = SpaceTimeField(period=period, coeffs=B)
    return AssembledSolution(eps=eps, period=period, v_cos_coeffs=v_cos,
                             w=w, model=None)


class TestEvaluator:
    def test_matches_manual_double_sum(self):
        sol = manual_solution()
        eps, period, om = sol.eps, sol.period, sol.omega
        xs = np.array([-1.3, 0.0, 0.7, 2.9])
        ts = np.array([-0.4, 0.55, 1.9])
        U = sol.u_values(xs, ts)
        for it, t in enumerate(ts):
            for ix, x in enumerate(xs):
                y, theta = eps * om * x, om * t
                v = sum(c * math.cos(2 * math.pi * j * y / period)
                        for j, c in enumerate(sol.v_cos_coeffs))
                wv = sum(sol.w.coeffs[j, k]
                         * math.cos(2 * math.pi * j * y / period)
                         * math.sin(k * theta)
                         for j in range(3) for k in range(5))
                assert U[it, ix] == pytest.approx(
                    eps * (v * math.sin(theta) + wv), abs=1e-14)

    def test_doubly_periodic(self):
        sol = manual_solution()
        xs = np.array([0.3, 1.1, 4.7])
        ts = np.array([0.2, 2.5])
        base = sol.u_values(xs, ts)
        assert np.max(np.abs(sol.u_values(xs + sol.x_period, ts) - base)) < 1e-12
        assert np.max(np.abs(sol.u_values(xs, ts + sol.t_period) - base)) < 1e-12

    def test_linear_residual_single_mode(self):
        # with model=None the residual of one cos(j.) sin(k.) mode is its
        # exact dispersion factor 1 - (k om)^2 + (2 pi j eps om / p)^2: a
        # fast mode (k = 3) of w and a slow one (k = 1) of v, both at j = 2
        eps, period = 0.2, 6.0
        om = math.sqrt(1.0 + eps**2)
        B = np.zeros((3, 4))
        B[2, 3] = 1.0
        fast = AssembledSolution(eps=eps, period=period,
                                 v_cos_coeffs=np.zeros(1),
                                 w=SpaceTimeField(period=period, coeffs=B),
                                 model=None)
        slow = AssembledSolution(eps=eps, period=period,
                                 v_cos_coeffs=np.array([0.0, 0.0, 1.0]),
                                 w=SpaceTimeField.zeros(period, 0, 2),
                                 model=None)
        x, t = np.array([0.83]), np.array([1.21])
        y, theta = eps * om * 0.83, om * 1.21
        for sol, k in ((fast, 3), (slow, 1)):
            factor = (1.0 - (k * om) ** 2
                      + (4.0 * np.pi * eps * om / period) ** 2)
            mode = math.cos(4 * math.pi * y / period) * math.sin(k * theta)
            assert sol.residual_values(x, t)[0, 0] == pytest.approx(
                eps * factor * mode, rel=1e-12)


class TestCanonicalSolution:
    def test_periods(self, solution01):
        assert solution01.omega == pytest.approx(math.sqrt(1.01), rel=1e-15)
        assert solution01.t_period == pytest.approx(T_PERIOD_01, rel=1e-12)
        assert solution01.x_period == pytest.approx(X_PERIOD_01, rel=1e-12)

    def test_symmetry_defects_vanish(self, solution01):
        even, odd = solution01.symmetry_defects()
        assert even < 1e-13 and odd < 1e-13

    def test_pde_residual_small(self, solution01):
        assert pde_residual(solution01, (128, 128)) < 1e-10

    def test_pde_residual_at_round_off(self, solution01):
        # v enters as its Galerkin series: no round-off from sampling and
        # re-analysing it reaches the factor (2 pi j eps omega / p)^2
        assert pde_residual(solution01, (128, 128)) <= 1e-16

    def test_residual_against_finite_differences(self, solution01,
                                                 sine_gordon):
        # independent check of the term-wise differentiation: centered
        # second differences of the evaluator reproduce the residual value
        x0, t0, h = 1.234, 0.789, 1e-3
        xs = np.array([x0 - h, x0, x0 + h])
        ts = np.array([t0 - h, t0, t0 + h])
        U = solution01.u_values(xs, ts)
        u_tt = (U[2, 1] - 2.0 * U[1, 1] + U[0, 1]) / h**2
        u_xx = (U[1, 2] - 2.0 * U[1, 1] + U[1, 0]) / h**2
        res_fd = u_tt - u_xx + U[1, 1] - sine_gordon.eval(U[1, 1])
        res = solution01.residual_values(np.array([x0]), np.array([t0]))[0, 0]
        assert abs(res_fd - res) < 1e-5

    def test_max_amplitude_tracks_shifted_start(self, solution01, closure01):
        xs = np.linspace(0.0, solution01.x_period, 192, endpoint=False)
        ts = np.linspace(0.0, solution01.t_period, 192, endpoint=False)
        ratio = np.abs(solution01.u_values(xs, ts)).max() / solution01.eps
        assert ratio == pytest.approx(MAX_U_OVER_EPS_01, abs=1e-6)
        # the peak is the shifted slow start value a + delta1, up to O(eps^2)
        assert ratio == pytest.approx(0.9 + closure01.delta1, abs=5e-3)

    def test_reads_eps_and_field_from_closure(self, solution01, closure01):
        assert solution01.eps == closure01.eps
        assert np.array_equal(solution01.w.coeffs, closure01.run.w.coeffs)
        assert solution01.model is closure01.run.model

    def test_solve_point_measures_the_assembly(self, solution01, closure01,
                                               sine_gordon):
        point = solve_point(sine_gordon, 0.9, 0.1, SolverConfig(), (128, 128))
        assert point.converged
        assert point.closure.delta1 == closure01.delta1
        assert point.residual == pde_residual(solution01, (128, 128))
        assert point.tail == tail_norm(solution01)
        assert point.max_u_over_eps == pytest.approx(MAX_U_OVER_EPS_01,
                                                     abs=1e-9)
        assert np.array_equal(point.solution.w.coeffs, solution01.w.coeffs)

    def test_tail_matches_projection_oracle(self, solution01, orbit09):
        # u/eps minus the limit profile, projected onto sin(k omega t) for
        # k >= 2, leaves w on the same samples
        assert abs(tail_norm(solution01)
                   - tail_oracle(solution01, orbit09)) <= 1e-13

    def test_tail_equals_w_contribution(self, solution01):
        tail = tail_norm(solution01)
        w_sup = np.abs(solution01.w.values_grid(256, 256)).max()
        assert tail > 0.0
        assert 0.99 < tail / w_sup < 1.01


class TestSweep:
    def test_row_csv_cells(self):
        row = SweepRow(eps=0.125, resonant_skip=False, converged=True,
                       residual=1e-11, max_u_over_eps=0.96, tail=2e-5,
                       delta1=0.05, w_physical_norm_1=3e-4)
        cells = row.csv_cells()
        assert cells == [repr(0.125), "0", repr(1e-11), repr(0.96),
                         repr(2e-5), repr(0.05), "1"]

    def test_resonant_point_skipped(self, sine_gordon):
        report = epsilon_sweep(sine_gordon, 0.9, [0.1396532019663832])
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.resonant_skip and not row.converged
        assert math.isnan(row.residual)
        assert "k=2" in row.message
        assert report.n_converged == 0
        assert not report.fits_valid

    @pytest.mark.parametrize("error", [NonConvergenceError, OuterLoopError,
                                       DegenerateOrbitError, IntegrationError])
    def test_documented_failure_becomes_row(self, sine_gordon, monkeypatch,
                                            error):
        def fail(*args, **kwargs):
            raise error("stage budget exhausted")

        monkeypatch.setattr(assembly, "solve_delta1", fail)
        report = epsilon_sweep(sine_gordon, 0.9, [0.1], workers=1)
        row = report.rows[0]
        assert not row.converged and not row.resonant_skip
        assert row.message == f"{error.__name__}: stage budget exhausted"

    def test_unclosed_row_says_why(self, sine_gordon, closure01, monkeypatch):
        unclosed = dataclasses.replace(closure01, closed=False)
        monkeypatch.setattr(assembly, "solve_delta1",
                            lambda *args, **kwargs: unclosed)
        report = epsilon_sweep(sine_gordon, 0.9, [closure01.eps], workers=1)
        row = report.rows[0]
        assert not row.converged and row.message == "closure tolerances not met"
        assert report.summary_json()["failures"] == [
            {"eps": closure01.eps, "message": "closure tolerances not met"}]

    def test_logic_error_propagates(self, sine_gordon, monkeypatch):
        def fail(*args, **kwargs):
            raise ClosureConsistencyError("invariance argument violated")

        monkeypatch.setattr(assembly, "solve_delta1", fail)
        with pytest.raises(ClosureConsistencyError):
            epsilon_sweep(sine_gordon, 0.9, [0.1], workers=1)

    def test_parallel_rows_match_serial(self, sine_gordon, sweep_report):
        # two worker processes give the serial rows, sorted by eps
        report = epsilon_sweep(sine_gordon, 0.9, [0.193, 0.148], workers=2)
        assert [r.eps for r in report.rows] == [0.148, 0.193]
        assert report.rows == tuple(r for r in sweep_report.rows
                                    if r.eps in (0.148, 0.193))

    def test_five_point_report(self, sweep_report):
        rows = sweep_report.rows
        assert len(rows) == 5
        assert [r.eps for r in rows] == sorted(r.eps for r in rows)
        assert all(not r.resonant_skip for r in rows)
        assert all(r.converged for r in rows)
        assert sweep_report.n_converged == 5
        assert sweep_report.fits_valid
        assert all(r.residual < 1e-9 for r in rows)

    def test_fit_laws(self, sweep_report):
        # the tail and w-norm decay in eps; the log fits against 1/eps have
        # negative slope with a clean linear trend
        assert sweep_report.tail_slope < 0.0
        assert sweep_report.tail_r2 > 0.9
        assert sweep_report.w_slope < 0.0
        assert sweep_report.w_r2 > 0.9
        # |u|/eps stays within a uniform factor of the slow amplitude
        assert 1.0 <= sweep_report.amplitude_ratio < 1.25
        assert math.isfinite(sweep_report.delta1_slope)

    def test_peak_is_shifted_amplitude(self, sweep_report):
        # per row, max|u|/eps equals the shifted slow start a + delta1
        for row in sweep_report.rows:
            assert row.max_u_over_eps == pytest.approx(
                0.9 + row.delta1, abs=5e-3)

    def test_summary_json_keys(self, sweep_report):
        doc = sweep_report.summary_json()
        for key in ("model", "n_converged", "tail_slope", "fits_valid"):
            assert key in doc
        assert doc["n_rows"] == 5
