"""Demo 1: the planar limit orbit and its non-degeneracy certificate.

At leading order the slow spatial profile satisfies the planar oscillator
p'' = -p - (f3/8) p^3, where f3 is the cubic coefficient of the
nonlinearity.  This script finds period-normalized orbits for the two
built-in models, checks energy conservation along them, and certifies
non-degeneracy of the a = 1 orbit through its monodromy matrix.

Run time: a few seconds.  Usage: python3 demos/01_limit_orbit.py
"""

import numpy as np

from kgperiodic import (
    Nonlinearity,
    NoPeriodicOrbitError,
    find_orbit,
    h_star,
    monodromy,
)


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    sine_gordon = Nonlinearity.sine_gordon()
    phi4 = Nonlinearity.phi4()

    banner("Period of the limit orbit vs amplitude")
    print(f"{'amplitude':>10} {'sine-Gordon T(a)':>18} {'phi^4 T(a)':>14}")
    for a in (0.3, 0.5, 0.7, 0.9, 1.0):
        ts = find_orbit(sine_gordon.f3, a)
        tp = find_orbit(phi4.f3, a)
        print(f"{a:>10.2f} {ts.period:>18.12f} {tp.period:>14.12f}")
    print("Both cubic terms stiffen the oscillator, so the period drops")
    print("below the harmonic value 2*pi as amplitude grows; the larger")
    print("coefficient of phi^4 bends it faster.")

    banner("Energy conservation along one orbit")
    orbit = find_orbit(sine_gordon.f3, 1.0)
    # the orbit's cosine series, sampled with its derivative on 512 points
    p, p_tau = orbit.trajectory(512).samples()
    H = np.array([h_star(s, sine_gordon.f3) for s in zip(p, p_tau)])
    print(f"T(1) = {orbit.period:.15f}")
    print(f"max |H - H(0)| over 512 samples = {np.max(np.abs(H - H[0])):.3e}")

    banner("Non-degeneracy via the monodromy matrix")
    rep = monodromy(orbit)
    print(f"eigenvalues of M:          {rep.eigenvalues}")
    print(f"singular values of M - I:  {rep.singular_values_M_minus_I}")
    print(f"rank deficiency of M - I:  {rep.rank_deficiency_of_M_minus_I}")
    print(f"nondegenerate:             {rep.nondegenerate}")
    print("A double eigenvalue 1 with a one-dimensional kernel is exactly")
    print("the twist condition the continuation needs: the period varies")
    print("with amplitude at a nonzero rate.")

    banner("Amplitude cap for a defocusing cubic term")
    soft = Nonlinearity.from_spec({"model": "custom", "odd_coeffs": [-1.0]})
    cap = np.sqrt(8.0 / abs(soft.f3))
    print(f"f3 = {soft.f3}: closed orbits exist only below |p| = {cap:.4f}")
    try:
        find_orbit(soft.f3, 3.0)
    except NoPeriodicOrbitError as ex:
        print(f"find_orbit(f3={soft.f3}, a=3.0) -> NoPeriodicOrbitError: {ex}")


if __name__ == "__main__":
    main()
