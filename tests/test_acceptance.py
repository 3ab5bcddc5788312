"""Acceptance gate: twelve headline claims, one test (= one line) each.

Each test states its tolerance inline; values frozen from oracles live in
tests/oracles.py or are recomputed here from first principles.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from kgperiodic.divisors import (
    DivisorTable,
    HillSpectrum,
    ResonanceParams,
    epsilon_kj,
    hill_eigs,
    measure_exponent_fit,
)
from kgperiodic.fourier import j_eps_symbol, project_P
from kgperiodic.nonlinearity import collocate
from kgperiodic.normalform import nf_sequence
from kgperiodic.planar import h_star, monodromy
from kgperiodic.properties import DEFAULT_SEED, run_all
from kgperiodic.solver import (
    FITTED_C,
    SolverConfig,
    nash_moser_solve,
    sigma_min_law_samples,
)

from conftest import FIXTURE_EPS
from oracles import (divisor_root_exact, limit_rhs, oracle_newton_solve,
                     richardson_slope)


def test_criterion_01_j_eps_inverse_bound():
    # sup over k = 2..1000, eps in [0, 0.5] of 1/|symbol| <= 2, exactly
    k = np.arange(2, 1001, dtype=float)
    eps = np.linspace(0.0, 0.5, 1001)
    sym = j_eps_symbol(k[None, :], eps[:, None])
    bound = np.max(1.0 / np.abs(sym))
    assert bound <= 2.0, f"inverse bound {bound} exceeds 2"


def test_criterion_02_limit_coefficient_law(sine_gordon, phi4):
    # |tilde_f(v, 0, eps) + f3 v^3 / 8| = O(eps^2): Richardson slope 2 +- 0.1
    # (tilde_f = P of the forcing collocated on 32 x points)
    eps_values = (1e-2, 5e-3, 2.5e-3)
    v = 1.0
    for model in (sine_gordon, phi4):
        errs = [abs(project_P(collocate(model, e, v, None, 32))
                    + model.f3 * v**3 / 8.0)
                for e in eps_values]
        slope = richardson_slope(eps_values, errs)
        assert abs(slope - 2.0) <= 0.1, f"{model.name}: slope {slope}"


def test_criterion_03_energy_conservation(orbit10, closure01):
    # limit energy drift <= 1e-10 over 100 periods; coupled H drift <= 1e-9
    T = orbit10.period
    sol = solve_ivp(lambda t, y: limit_rhs(y, 1.0), (0.0, 100.0 * T),
                    [1.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-14,
                    t_eval=np.linspace(0.0, 100.0 * T, 401))
    H = np.array([h_star(y, 1.0) for y in sol.y.T])
    drift = float(np.max(np.abs(H - H[0])))
    assert drift <= 1e-10, f"limit drift {drift}"
    assert closure01.H_drift <= 1e-9, f"coupled drift {closure01.H_drift}"


def test_criterion_04_nondegeneracy(orbit10):
    rep = monodromy(orbit10)
    assert max(abs(ev - 1.0) for ev in rep.eigenvalues) <= 1e-8
    assert rep.rank_deficiency_of_M_minus_I == 1
    assert max(rep.singular_values_M_minus_I) >= 1e-4
    assert rep.nondegenerate


def test_criterion_05_normal_form_decay(orbit09, sine_gordon):
    # drive norms contract with ratio <= 0.5 per step for eps <= 0.05, k <= 5
    traj = orbit09.trajectory(256)
    for eps in (0.05, 0.03):
        sys = nf_sequence(traj, eps, sine_gordon, N_x=5, N_tau=20, k_max=5)
        hist = sys.drive_norm_history
        assert sys.step == 5
        ratios = [b / a for a, b in zip(hist, hist[1:]) if a > 0.0]
        assert max(ratios) <= 0.5, f"eps={eps}: ratio {max(ratios)}"


def test_criterion_06_divisor_correctness(orbit09, sine_gordon):
    # (a) production-table entries satisfy the defining equation to 1e-12
    from kgperiodic.divisors import averaged_potential
    traj = orbit09.trajectory(256)
    q = averaged_potential(traj, FIXTURE_EPS, sine_gordon)
    spectrum = hill_eigs(q, traj.period, 400)
    table = DivisorTable.build(spectrum, K_max=6, J_max=2000)
    lam = spectrum.lambda_at(np.arange(1, 2001))
    ks = table.k_values.astype(float)[:, None]
    with np.errstate(invalid="ignore"):
        res = -ks**2 + 1.0 / (1.0 + table.eps**2) + table.eps**2 * lam[None, :]
    worst = float(np.nanmax(np.abs(res)))
    assert worst <= 1e-12, f"defining-equation residual {worst}"
    # (b) zero-potential spot value against the exact-rational bisection
    flat = HillSpectrum.flat(2.0 * math.pi, 200)
    spot = epsilon_kj(2, 100, flat)
    oracle = divisor_root_exact(2, 10000)
    assert abs(spot - oracle) <= 1e-10, f"spot {spot} vs oracle {oracle}"
    # (c) asymptotic law j eps_{k,j} -> sqrt(k^2 - 1) within 1% at j = 1e4
    for k in (2, 3, 5):
        scaled = 10**4 * epsilon_kj(k, 10**4, flat)
        target = math.sqrt(k * k - 1.0)
        assert abs(scaled - target) / target <= 0.01


def test_criterion_07_resonance_measure_exponent():
    # fitted window-union measure exponent within [l-1.2, l-0.8], l = 2.5
    flat = HillSpectrum.flat(2.0 * math.pi, 400)
    table = DivisorTable.build(flat, K_max=6, J_max=4000)
    slope, r2 = measure_exponent_fit(table, ResonanceParams(),
                                     [0.05, 0.075, 0.1, 0.15, 0.2])
    assert 1.3 <= slope <= 1.7, f"measure exponent {slope} (r2 {r2})"


def test_criterion_08_inverse_norm_law(sine_gordon):
    # sigma_min(Pi_N L) N^gamma / eps^(l-1) >= frozen fitted constant over
    # 50 non-resonant eps samples
    reports = sigma_min_law_samples(sine_gordon, n_samples=50, seed=2026)
    worst = min(r.law_constant for r in reports)
    assert len(reports) == 50
    assert worst >= FITTED_C, f"law constant {worst} below fit {FITTED_C}"


def test_criterion_09_oracle_equivalence(orbit09, sine_gordon):
    # nested solver equals dense brute-force Newton on the miniature
    traj = orbit09.trajectory(256)
    cfg = SolverConfig(schedule=(3,), N_tau=4, nf_steps=0,
                       residual_tol=1e-12)
    run = nash_moser_solve(traj, FIXTURE_EPS, cfg, sine_gordon)
    ref = oracle_newton_solve(traj, FIXTURE_EPS, N=3, J_max=4,
                              model=sine_gordon, tol=1e-12)
    gap = float(np.max(np.abs(run.w.coeffs - ref.coeffs)))
    assert gap <= 1e-10, f"solver vs oracle gap {gap}"


def test_criterion_10_end_to_end_residual(solution01, closure01):
    from kgperiodic.assembly import pde_residual
    res = pde_residual(solution01, (128, 128))
    assert res <= 1e-8, f"PDE residual {res}"
    om = math.sqrt(1.0 + FIXTURE_EPS**2)
    assert solution01.t_period == 2.0 * math.pi / om
    assert solution01.x_period == closure01.V_traj.period / (FIXTURE_EPS * om)
    even, odd = solution01.symmetry_defects
    assert even <= 1e-12 and odd <= 1e-12


def test_criterion_11_fit_laws(sweep_report):
    # >= 4 converged points; max|u|/eps within x2; negative log-fit slopes
    # for tail and w-norm with R^2 >= 0.9
    assert sweep_report.n_converged >= 4
    assert sweep_report.fits_valid
    assert sweep_report.amplitude_ratio <= 2.0
    assert sweep_report.tail_slope < 0.0 and sweep_report.tail_r2 >= 0.9
    assert sweep_report.w_slope < 0.0 and sweep_report.w_r2 >= 0.9


def test_criterion_12_property_battery():
    results = run_all(seed=DEFAULT_SEED, n_fields=1000)
    failed = [r.line() for r in results if not r.ok]
    assert not failed, "failing properties:\n" + "\n".join(failed)
    names = {r.name for r in results}
    assert {"projection_lp1", "projection_lp2",
            "tame_product_bound"} <= names
