"""Demo 2: small divisors, resonance windows, and the excluded-measure law.

The linearized problem has mode-wise divisors
    D(k, j; eps) = -k^2 + 1/(1 + eps^2) + eps^2 lambda_j,
where lambda_j are eigenvalues of a Hill operator built from the averaged
potential of the slow orbit.  Each pair (k, j) contributes one resonance
center eps_{k,j} where the divisor vanishes; solving is only allowed for
eps outside shrinking windows around those centers.  This script tabulates
centers, classifies sample eps values, and fits the power law for the
total measure of excluded parameters.

Run time: about ten seconds.  Usage: python3 demos/02_divisors.py
"""

import numpy as np

from kgperiodic import (
    DivisorTable,
    HillSpectrum,
    Nonlinearity,
    ResonanceParams,
    averaged_potential,
    divisor_min,
    epsilon_kj,
    find_orbit,
    hill_eigs,
    is_resonant,
    measure_exponent_fit,
)


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    params = ResonanceParams()

    banner("Resonance centers on the flat (zero-potential) spectrum")
    flat = HillSpectrum.flat(2.0 * np.pi, 400)
    table = DivisorTable.build(flat, K_max=5, J_max=12)
    header = "  j " + "".join(f"  eps_{{{k},j}}" for k in (2, 3, 4, 5))
    print(header)
    for j in range(1, 9):
        row = f"{j:>3} "
        for k in (2, 3, 4, 5):
            val = table.lookup(k, j)
            row += f"{val:>10.5f}" if np.isfinite(val) else " " * 9 + "-"
        print(row)
    print("Centers decrease like sqrt(k^2 - 1)/j, so for any fixed eps only")
    print("finitely many pairs per k sit nearby.")
    print(f"check: 100 * eps_{{2,100}} = {100 * epsilon_kj(2, 100, flat):.6f}"
          f"  vs  sqrt(3) = {np.sqrt(3.0):.6f}")

    banner("Window classification around a center")
    model = Nonlinearity.sine_gordon()
    orbit = find_orbit(model.f3, 0.9)
    traj = orbit.trajectory(256)
    q = averaged_potential(traj, 0.1, model)
    spectrum = hill_eigs(q, traj.period, 400)
    print(f"averaged potential: mean = {spectrum.q_mean:+.6f}, "
          f"lambda_1..4 = {np.round(spectrum.lambda_at(np.arange(1, 5)), 4)}")
    prod = DivisorTable.build(spectrum, K_max=8, J_max=4000)
    for eps in (prod.lookup(2, 12), 0.1):
        rep = is_resonant(eps, params, prod)
        tag = "RESONANT" if rep.resonant else "clear"
        print(f"eps = {eps:.8f}: {tag:>8}  nearest (k, j) = "
              f"({rep.nearest_k}, {rep.nearest_j}), "
              f"distance/halfwidth = {rep.distance / rep.halfwidth:.2f}")
    m, j_min = divisor_min(0.1, 2, spectrum)
    print(f"smallest |D(2, j)| at the clear point: {m:.3e} (at j = {j_min})")

    banner("Measure of the excluded set")
    big = DivisorTable.build(flat, K_max=6, J_max=4000)
    slope, r2 = measure_exponent_fit(big, params, [0.05, 0.075, 0.1, 0.15, 0.2])
    print("union of windows below eps0 has measure ~ eps0^gamma:")
    print(f"fitted gamma = {slope:.4f} (R^2 = {r2:.6f}); the window "
          f"exponent l = {params.l} predicts gamma in [{params.l - 1.2}, "
          f"{params.l - 0.8}]")
    print("Excluded eps values form a small set near 0: almost every")
    print("amplitude admits a genuine periodic solution.")


if __name__ == "__main__":
    main()
