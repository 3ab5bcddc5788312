"""The planar limit oscillator, its periodic orbits, and Floquet data.

The slow amplitude variable obeys ``p'' = -p - (f3/8) p^3`` in the singular
limit, with conserved energy ``H = p_tau^2/2 + p^2/2 + (f3/32) p^4``.  For
``f3 > 0`` every level set is a periodic orbit; for ``f3 < 0`` only the
bounded component around the origin carries orbits.  Shooting along the
energy gradient requires the orbit to be non-degenerate: the monodromy
matrix of the linearized flow has eigenvalue 1 with geometric multiplicity
one.

This Duffing equation has closed-form orbits (DLMF 22.19(ii), 22.17).  With
b = f3 a^2 / 8 the orbit through (a, 0) is ``a cn(nu tau | k^2)``, k^2 =
b / (2 + 2b) and nu^2 = 1 + b, for f3 >= 0, and ``a cd(nu tau | k^2)``, k^2 =
-b / (2 + b) and nu^2 = 1 + b/2, for f3 < 0, where 1 + b is formed exactly
so that k'^2 = 1 - k^2 does not cancel next to the separatrix.  From
K = pi / (2 AGM(1, k')) and K' = pi / (2 AGM(1, k)) (DLMF 19.8.1) follow the
period T = 4 K / nu, K - E (DLMF 19.8.6) and so dK/dk^2 (DLMF 19.4.1) for
the monodromy, and the nome q = exp(-pi K'/K).  The cosine coefficients sit
at the odd harmonics 2n + 1 of T: a 2 pi/(k K) q^(n+1/2) / (1 + q^(2n+1))
for cn (DLMF 22.11.2), and (-1)^n times that with 1 - q^(2n+1) for
cd(u) = sn(u + K) (DLMF 22.11.1).  They are computed once per orbit, and
they are its trajectory (`VTrajectory`), sampled only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

__all__ = ["PlanarState", "PlanarOrbit", "VTrajectory", "MonodromyReport",
           "NoPeriodicOrbitError", "h_star", "find_orbit", "monodromy"]


class NoPeriodicOrbitError(ValueError):
    """The requested amplitude does not lie on a bounded periodic level set,
    its orbit's energy overflows a double, or its sampled orbit misses the
    requested energy tolerance."""


@dataclass(frozen=True)
class PlanarState:
    p: float
    p_tau: float


def h_star(state, f3: float) -> float:
    """Limit energy p_tau^2/2 + p^2/2 + (f3/32) p^4."""
    p, p_tau = _unpack(state)
    return 0.5 * p_tau**2 + 0.5 * p**2 + (f3 / 32.0) * p**4


def _unpack(state) -> tuple[float, float]:
    if isinstance(state, PlanarState):
        return state.p, state.p_tau
    p, p_tau = state
    return float(p), float(p_tau)


# ---------------------------------------------------------------------------
# trajectories of the slow variable
# ---------------------------------------------------------------------------

class VTrajectory:
    """One period of the even slow variable as its cosine series,
    ``v(tau) = sum_j cos_coeffs[j] cos(2 pi j tau / period)``.

    Every sample is formed from the series by the folded FFT of
    `_grid_sample`, exact on any uniform grid.  A trajectory is not changed
    after construction, so `resample` keeps each v grid it builds.
    """

    def __init__(self, period: float, cos_coeffs: Array):
        self.period = period
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self._resampled: dict[int, Array] = {}

    @property
    def start(self) -> tuple[float, float]:
        """(v, v_tau) at tau = 0."""
        return float(self.cos_coeffs.sum()), 0.0

    def samples(self, M: int | None = None) -> tuple[Array, Array]:
        """(v, v_tau) at tau = period m / M, m < M (default: the
        2 len(cos_coeffs) points that resolve the series)."""
        return _grid_sample(self.cos_coeffs, self.period,
                            M or 2 * self.cos_coeffs.size)

    def resample(self, M: int) -> Array:
        """v on the uniform M-point grid, read-only and built once per M."""
        if M not in self._resampled:
            v = np.ascontiguousarray(self.samples(M)[0])
            v.flags.writeable = False
            self._resampled[M] = v
        return self._resampled[M]


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarOrbit:
    """A periodic solution of the limit oscillator through (amplitude, 0)."""

    f3: float
    amplitude: float
    period: float
    energy: float
    tau: Array
    p: Array
    p_tau: Array
    cos_coeffs: Array      # the orbit's cosine series in tau, harmonics 0..
    period_slope: float    # dT/da

    @property
    def base_point(self) -> PlanarState:
        return PlanarState(self.amplitude, 0.0)

    @property
    def tangent(self) -> PlanarState:
        """v = time derivative of the orbit at tau = 0."""
        a = self.amplitude
        return PlanarState(0.0, -a - (self.f3 / 8.0) * a**3)

    @property
    def conormal(self) -> PlanarState:
        """v_perp = energy gradient at the base point (orthogonal to v)."""
        a = self.amplitude
        return PlanarState(a + (self.f3 / 8.0) * a**3, 0.0)

    def trajectory(self, M: int | None = None) -> VTrajectory:
        """The orbit's first M // 2 cosine coefficients, zero-padded, which
        an M-point grid resolves (default M: its own grid)."""
        M = M or self.p.shape[0]
        return VTrajectory(self.period, np.pad(self.cos_coeffs, (0, M))[:M // 2])

    def to_json_dict(self) -> dict:
        return {"f3": self.f3, "amplitude": self.amplitude, "period": self.period,
                "energy": self.energy,
                "samples": np.column_stack([self.tau, self.p, self.p_tau]).tolist()}


def _ellip_k(kp: float, k: float) -> tuple[float, float]:
    """K = pi/(2 AGM(1, kp)) and sum_{n>=1} 2^(n-1) (c_n/k)^2, DLMF 19.8.1 and
    19.8.6; c_1/k = k/(2 + 2 kp) and c_(n+1) = c_n^2/(4 a_(n+1)), so k may be 0."""
    a, b, g, w, s = 1.0, kp, k / (2.0 * (1.0 + kp)), 1.0, 0.0
    for _ in range(64):      # (a, b) = (a_(n-1), b_(n-1)) and g = c_n / k
        s += w * g * g
        a, b = 0.5 * (a + b), sqrt(a * b)
        if a - b <= 1e-15 * a:
            break
        g, w = k * g * g / (2.0 * (a + b)), 2.0 * w
    return np.pi / (a + b), s


def _orbit_series(f3: float, amplitude: float) -> tuple[float, float, Array]:
    """Period T, dT/da and the cosine coefficients (harmonics 0..2n+1, cut
    where q^n falls below 2^-64) of the orbit through (amplitude, 0)."""
    beta = f3 / 8.0
    b = beta * amplitude**2
    if f3 >= 0.0:     # a cn(nu tau | k^2)
        sign, k2, kp2, nu2 = 1.0, b / (2 + 2 * b), (2 + b) / (2 + 2 * b), 1 + b
    else:             # a cd(nu tau | k^2), with 1 + b formed exactly
        omega2 = float(1 + Fraction(f3) / 8 * Fraction(amplitude) ** 2)
        sign, k2, kp2, nu2 = -1.0, -b / (2 + b), 2 * omega2 / (2 + b), 1 + 0.5 * b
    k, kp, nu = sqrt(k2), sqrt(kp2), sqrt(nu2)
    K, s = _ellip_k(kp, k)
    dK = K * (0.5 - s) / (2.0 * kp2)                       # dK/dk^2
    # T = 4 K / nu; dk^2/da = sign beta a / nu^4, d(nu^2)/da = (3 + sign) beta a / 2
    slope = (4.0 * beta * amplitude / (nu * nu2)
             * (sign * dK / nu2 - 0.25 * (3.0 + sign) * K))
    # q^(1/2) / k = exp(-pi K' / (2 K)) / k, which tends to 1/4 as k -> 0
    ratio = (float(np.exp(-0.5 * np.pi * _ellip_k(k, kp)[0] / K - np.log(k)))
             if k else 0.25)
    q = (ratio * k) ** 2
    n = np.arange(1 + int(np.log(2.0**-64) / np.log(q)) if 0.0 < q < 1.0 else 1)
    coeffs = np.zeros(2 * n.size)
    coeffs[1::2] = (2.0 * np.pi * amplitude * ratio / K * sign**n * q**n
                    / (1.0 + sign * q ** (2 * n + 1)))
    return 4.0 * K / nu, slope, coeffs


def _grid_sample(coeffs: Array, period: float, M: int) -> tuple[Array, Array]:
    """(p, p_tau) of a cosine series on the M-point grid: folded FFT, exact."""
    j = np.arange(coeffs.size)
    z = M * np.fft.ifft([np.bincount(j % M, c, M)
                         for c in (coeffs, (2.0 * np.pi / period) * j * coeffs)])
    return z[0].real, -z[1].imag


def find_orbit(f3: float, amplitude: float, tol: float = 1e-10,
               n_samples: int = 512) -> PlanarOrbit:
    """Periodic orbit through (amplitude, 0), sampled on ``n_samples`` points.

    Period and samples come from the nome series of the closed form.  For
    ``f3 < 0`` the amplitude must stay inside the bounded component below
    the saddle at sqrt(-8/f3), where q -> 1, but slowly (0.71 at 1e-11 below
    it).  The samples' energy drift is checked against ``tol`` as given
    (round-off alone leaves about 1e-15 at amplitudes of order one).  An
    amplitude whose orbit energy overflows a double raises
    `NoPeriodicOrbitError`, like one whose drift misses ``tol``.
    """
    if not (np.isfinite(amplitude) and amplitude > 0):
        raise ValueError("amplitude must be a finite positive number")
    try:
        energy = h_star((amplitude, 0.0), f3)
    except OverflowError:       # a float power past the largest double
        energy = np.inf
    if not np.isfinite(energy):
        raise NoPeriodicOrbitError(
            f"amplitude {amplitude:.6g}: the orbit's energy overflows a double")
    if f3 < 0 and 1 + Fraction(f3) / 8 * Fraction(amplitude) ** 2 <= 0:
        raise NoPeriodicOrbitError(
            f"amplitude {amplitude:.6g} is outside the bounded component "
            f"(separatrix at {np.sqrt(-8.0 / f3):.6g})")

    period, slope, coeffs = _orbit_series(f3, amplitude)
    if n_samples % 2:       # an even grid samples the turning point T/2
        n_samples += 1
    p, p_tau = _grid_sample(coeffs, period, n_samples)
    drift = np.max(np.abs(h_star(PlanarState(p, p_tau), f3) - energy))
    if not drift <= tol:
        raise NoPeriodicOrbitError(
            f"energy drift {drift:.2e} on the sampled orbit exceeds the "
            f"tolerance {tol:.2e}; the orbit is not resolved")
    return PlanarOrbit(f3=f3, amplitude=amplitude, period=period, energy=energy,
                       tau=period * np.arange(n_samples) / n_samples, p=p,
                       p_tau=p_tau, cos_coeffs=coeffs,
                       period_slope=slope)


# ---------------------------------------------------------------------------
# Floquet non-degeneracy
# ---------------------------------------------------------------------------

_RANK_GAP = 1e-4   # smallest twist |M[1, 0]| of a non-degenerate orbit

@dataclass(frozen=True)
class MonodromyReport:
    matrix: Array
    eigenvalues: tuple[complex, complex]
    det: float
    singular_values_M_minus_I: tuple[float, float]
    rank_deficiency_of_M_minus_I: int
    nondegenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues],
            "det": self.det,
            "singular_values_M_minus_I": list(self.singular_values_M_minus_I),
            "rank_M_minus_I": 2 - self.rank_deficiency_of_M_minus_I,
            "nondegenerate": self.nondegenerate,
        }


def monodromy(orbit: PlanarOrbit) -> MonodromyReport:
    """Monodromy matrix of the variational flow along one orbit period.

    Along an orbit of a planar Hamiltonian flow the tangent v is carried to
    itself, and the energy-gradient direction picks up the period's twist:
    in (p, p_tau) coordinates at the base point (a, 0),
    ``M = [[1, 0], [T'(a) (a + beta a^3), 1]]`` with T'(a) = ``period_slope``.
    Both eigenvalues are exactly 1; the orbit is non-degenerate when that
    eigenvalue has geometric multiplicity one, i.e. when the twist |M[1, 0]|
    exceeds `_RANK_GAP`.
    """
    twist = orbit.period_slope * orbit.conormal.p          # T'(a) (a + beta a^3)
    rank = int(abs(twist) > _RANK_GAP)
    return MonodromyReport(
        matrix=np.array([[1.0, 0.0], [twist, 1.0]]),
        eigenvalues=(1.0 + 0.0j, 1.0 + 0.0j),
        det=1.0,
        singular_values_M_minus_I=(float(abs(twist)), 0.0),
        rank_deficiency_of_M_minus_I=2 - rank,
        nondegenerate=rank == 1,
    )
