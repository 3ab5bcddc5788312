"""Demo 3: the full pipeline at eps = 0.1 — closure, nested solve, assembly.

Starting from the amplitude-0.9 limit orbit, the outer closure loop tunes
the frequency correction delta1 so that the slow trajectory closes after
one period, while the inner nested-truncation Newton iteration solves for
the fast field w at each visit.  The result is assembled into an explicit
doubly periodic solution u(x, t), one double Fourier series in
cos(2 pi j eps omega x / p) sin(k omega t) whose k = 1 column is the slow
profile and whose k >= 2 columns are w.  Its residual in the original
equation u_tt - u_xx + u = f(u) is measured on a fine grid by scaling each
mode with its dispersion factor, and the theorem's fast tail is max|w|.

Run time: a few seconds.  Usage: python3 demos/03_solve_and_assemble.py
"""

import numpy as np

from kgperiodic import (
    Nonlinearity,
    assemble_u,
    find_orbit,
    pde_residual,
    solve_delta1,
    tail_norm,
)

EPS = 0.1
AMPLITUDE = 0.9


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    model = Nonlinearity.sine_gordon()
    orbit = find_orbit(model.f3, AMPLITUDE)
    print(f"limit orbit: amplitude {AMPLITUDE}, period {orbit.period:.12f}")

    banner("Outer closure loop")
    closure = solve_delta1(orbit, EPS, model)
    print(f"closed = {closure.closed} after {closure.outer_iters} outer "
          f"iterations")
    print(f"delta1 (frequency correction of the slow profile) = "
          f"{closure.delta1:.12f}")
    print(f"tangential defect           = {closure.defect_t:+.3e}")
    print(f"conormal defect minus delta1 = {closure.d:+.3e}")
    print(f"energy drift along the coupled trajectory = "
          f"{closure.H_drift:.3e}")
    print(f"H-mismatch |H(p) - H(0)|     = {closure.H_mismatch:.3e} "
          f"(invariance cross-checked; closed = {closure.closed})")
    print(f"resonance gate, reported round: "
          f"{closure.resonance_final.message()}")

    banner("Inner nested Newton solve (final visit)")
    run = closure.run
    print(f"temporal band N_tau = {run.N_tau}, schedule "
          f"{run.requested_schedule} -> effective {run.effective_schedule}")
    print(f"{'N':>4} {'iters':>6} {'residual':>12} {'sigma_min':>12} "
          f"{'law const':>10}")
    for st in run.stages:
        print(f"{st.N:>4} {st.newton_iters:>6} {st.residual_s:>12.3e} "
              f"{st.sigma_min:>12.3e} {st.law_constant:>10.3f}")
    print(f"converged = {run.converged}, residual certificate on the padded "
          f"band = {run.residual_certificate:.3e}")

    banner("Assembled solution u(x, t)")
    sol = assemble_u(closure)
    print(f"time period  2*pi/omega = {sol.t_period:.12f}")
    print(f"space period p/(eps*omega) = {sol.x_period:.12f}")
    res = pde_residual(sol, (128, 128))
    print(f"PDE residual on a 128 x 128 grid = {res:.3e}")
    xs = np.linspace(0.0, sol.x_period, 800, endpoint=False)
    ts = np.linspace(0.0, sol.t_period, 200, endpoint=False)
    peak = float(np.abs(sol.u_values(xs, ts)).max())
    print(f"max |u| / eps = {peak / EPS:.9f}  vs  a + delta1 = "
          f"{AMPLITUDE + closure.delta1:.9f}")
    print(f"fast-tail sup norm max|w| = {tail_norm(sol):.3e} (the k >= 2 "
          f"modes: an O(eps^2) ripple on the slow profile)")
    even, odd = sol.symmetry_defects
    print(f"symmetry defects (even in x, odd in t): {even:.1e}, {odd:.1e}")


if __name__ == "__main__":
    main()
