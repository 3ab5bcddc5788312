"""The planar limit oscillator, its periodic orbits, and Floquet data.

The slow amplitude variable obeys ``p'' = -p - (f3/8) p^3`` in the singular
limit, with conserved energy ``H = p_tau^2/2 + p^2/2 + (f3/32) p^4``.  For
``f3 > 0`` every level set is a periodic orbit; for ``f3 < 0`` only the
bounded component around the origin carries orbits.  Shooting along the
energy gradient requires the orbit to be non-degenerate: the monodromy
matrix of the linearized flow has eigenvalue 1 with geometric multiplicity
one.

This Duffing equation has closed-form orbits (DLMF 22.19(ii)): with
beta = f3/8, Omega^2 = 1 + beta a^2 and m = beta a^2 / (2 Omega^2), the orbit
through (a, 0) is ``a cn(Omega tau | m)``, of period ``T = 4 K(m) / Omega``.
For m < 0 (softening) ``cn(u | m) = cd(u s | mu)`` with s = sqrt(1 - m) and
mu = -m / (1 - m) (DLMF 22.17).  The monodromy matrix follows from dT/da,
with dK/dm from DLMF 19.4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import ellipe, ellipj, ellipk

from .fourier import cos_analyze, cos_series, cos_synthesis_matrix

Array = NDArray[np.float64]

__all__ = [
    "PlanarState",
    "PlanarOrbit",
    "VTrajectory",
    "MonodromyReport",
    "NoPeriodicOrbitError",
    "limit_rhs",
    "h_star",
    "find_orbit",
    "monodromy",
]


class NoPeriodicOrbitError(ValueError):
    """The requested amplitude does not lie on a bounded periodic level set,
    or its sampled orbit misses the requested energy tolerance."""


@dataclass(frozen=True)
class PlanarState:
    p: float
    p_tau: float


def limit_rhs(state, f3: float):
    """Right-hand side (p_tau, -p - (f3/8) p^3) of the limit oscillator."""
    p, p_tau = _unpack(state)
    return type(state)(p_tau, -p - (f3 / 8.0) * p**3) if isinstance(state, PlanarState) \
        else np.array([p_tau, -p - (f3 / 8.0) * p**3])


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
    """One period of the slow variable on a uniform tau grid.

    ``v_samples[m] = v(period * m / M)``; trajectories are even in tau, so a
    cosine series interpolates them spectrally (``cos_coeffs``, used by
    ``v_at`` / ``v_tau_at``).  ``v_tau_samples`` are given, or with None the
    series' derivative on the same grid, formed on first read.  A
    trajectory is not changed after construction, so `resample` keeps each
    grid it builds.
    """

    def __init__(self, period: float, v_samples: Array,
                 v_tau_samples: Array | None, start: tuple[float, float]):
        self.period = period
        self.v_samples = np.asarray(v_samples, dtype=float)
        self._v_tau_samples = (None if v_tau_samples is None
                               else np.asarray(v_tau_samples, dtype=float))
        self.start = start
        self.cos_coeffs = cos_analyze(self.v_samples, self.n_samples // 2 - 1)
        self._resampled: dict[int, Array] = {}

    @classmethod
    def from_cos_coeffs(cls, period: float, coeffs: Array) -> "VTrajectory":
        """The even trajectory sum_j coeffs[j] cos(2 pi j tau / period),
        sampled on 2 len(coeffs) points."""
        n = 2 * coeffs.shape[0]
        v = cos_synthesis_matrix(n, coeffs.shape[0] - 1) @ coeffs
        return cls(period, v, None, start=(float(v[0]), 0.0))

    @property
    def v_tau_samples(self) -> Array:
        if self._v_tau_samples is None:
            self._v_tau_samples = self.v_tau_at(
                self.period * np.arange(self.n_samples) / self.n_samples)
        return self._v_tau_samples

    @property
    def n_samples(self) -> int:
        return self.v_samples.shape[0]

    def v_at(self, taus: Array | float) -> Array:
        return cos_series(self.cos_coeffs, self.period, taus)

    def v_tau_at(self, taus: Array | float) -> Array:
        return cos_series(self.cos_coeffs, self.period, taus, order=1)

    def resample(self, M: int) -> Array:
        """v on the uniform M-point grid (spectral interpolation), read-only
        and built once per M."""
        if M == self.n_samples:
            return self.v_samples
        if M not in self._resampled:
            v = self.v_at(self.period * np.arange(M) / M)
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

    def sample(self, taus: Array | float) -> tuple[Array, Array]:
        """Closed-form (p, p_tau) of the orbit at the given times."""
        return _sample(self.f3, self.amplitude, taus)

    def trajectory(self, M: int | None = None) -> VTrajectory:
        """The orbit on the uniform M-point grid (default: its own grid)."""
        M = M or self.p.shape[0]
        p, p_tau = self.sample(self.period * np.arange(M) / M)
        return VTrajectory(self.period, p, p_tau, start=(self.amplitude, 0.0))

    def to_json_dict(self) -> dict:
        return {
            "f3": self.f3,
            "amplitude": self.amplitude,
            "period": self.period,
            "energy": self.energy,
            "samples": [[float(t), float(p), float(q)]
                        for t, p, q in zip(self.tau, self.p, self.p_tau)],
        }


def _parameter(f3: float, amplitude: float) -> tuple[float, float, float]:
    """beta = f3/8, Omega and the elliptic parameter m of the orbit."""
    beta = f3 / 8.0
    omega2 = 1.0 + beta * amplitude**2
    return beta, float(np.sqrt(omega2)), beta * amplitude**2 / (2.0 * omega2)


def _sample(f3: float, amplitude: float, taus: Array | float) -> tuple[Array, Array]:
    """(p, p_tau) of the orbit through (amplitude, 0) at the given times."""
    _, omega, m = _parameter(f3, amplitude)
    if m >= 0.0:
        sn, cn, dn, _ = ellipj(omega * np.asarray(taus, dtype=float), m)
        return amplitude * cn, -amplitude * omega * sn * dn
    # cn(u | m) = cd(u s | mu), and d/du cd(u | mu) = -(1 - mu) sn / dn^2
    mu, s = -m / (1.0 - m), float(np.sqrt(1.0 - m))
    sn, cn, dn, _ = ellipj(omega * s * np.asarray(taus, dtype=float), mu)
    return amplitude * cn / dn, -amplitude * omega * s * (1.0 - mu) * sn / dn**2


def _period(f3: float, amplitude: float) -> tuple[float, float]:
    """Period T = 4 K(m) / Omega and dT/da = 4 beta a (K'(m) / Omega^5
    - K(m) / Omega^3), with K'(m) = (E - (1 - m) K) / (2 m (1 - m))
    (DLMF 19.4.1), or its Maclaurin series where that cancels (|m| < 1e-3).
    """
    beta, omega, m = _parameter(f3, amplitude)
    K = float(ellipk(m))
    if abs(m) < 1e-3:
        dK = 0.5 * np.pi * (0.25 + m * (9.0 / 32.0 + m * (75.0 / 256.0
                                                          + m * 1225.0 / 4096.0)))
    else:
        dK = (float(ellipe(m)) - (1.0 - m) * K) / (2.0 * m * (1.0 - m))
    slope = beta * amplitude / omega**3
    return 4.0 * K / omega, 4.0 * slope * (dK / omega**2 - K)


def find_orbit(f3: float, amplitude: float, tol: float = 1e-10,
               n_samples: int = 512) -> PlanarOrbit:
    """Periodic orbit through (amplitude, 0), sampled on ``n_samples`` points.

    Period and samples come from the closed form in Jacobi elliptic
    functions (DLMF 22.19(ii)).  For
    ``f3 < 0`` the amplitude must stay inside the bounded component below
    the saddle at sqrt(-8/f3); next to it the parameter mu of the
    transformed functions approaches 1.  The samples' energy drift is
    checked against ``tol`` as given (round-off alone leaves 1e-15 to
    1e-13 at amplitudes of order one) and a larger one raises.
    """
    if not (np.isfinite(amplitude) and amplitude > 0):
        raise ValueError("amplitude must be a finite positive number")
    if f3 < 0 and amplitude >= np.sqrt(-8.0 / f3):
        raise NoPeriodicOrbitError(
            f"amplitude {amplitude:.6g} is outside the bounded component "
            f"(separatrix at {np.sqrt(-8.0 / f3):.6g})")

    period, _ = _period(f3, amplitude)
    if n_samples % 2:       # an even grid samples the turning point T/2
        n_samples += 1
    grid = period * np.arange(n_samples) / n_samples
    p, p_tau = _sample(f3, amplitude, grid)
    energy = h_star((amplitude, 0.0), f3)
    drift = np.max(np.abs(h_star(PlanarState(p, p_tau), f3) - energy))
    if not drift <= tol:
        raise NoPeriodicOrbitError(
            f"energy drift {drift:.2e} on the sampled orbit exceeds the "
            f"tolerance {tol:.2e}; the orbit is not resolved")
    return PlanarOrbit(f3=f3, amplitude=amplitude, period=period, energy=energy,
                       tau=grid, p=p, p_tau=p_tau)


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
    ``M = [[1, 0], [T'(a) (a + beta a^3), 1]]``, with T'(a) from the period
    4 K(m) / Omega (DLMF 22.19(ii), dK/dm by DLMF 19.4.1).  Both
    eigenvalues are exactly 1; the orbit is non-degenerate when
    that eigenvalue has geometric multiplicity one, i.e. when the twist
    |M[1, 0]| exceeds `_RANK_GAP`.
    """
    _, slope = _period(orbit.f3, orbit.amplitude)
    twist = slope * orbit.conormal.p          # T'(a) (a + beta a^3)
    rank = int(abs(twist) > _RANK_GAP)
    return MonodromyReport(
        matrix=np.array([[1.0, 0.0], [twist, 1.0]]),
        eigenvalues=(1.0 + 0.0j, 1.0 + 0.0j),
        det=1.0,
        singular_values_M_minus_I=(float(abs(twist)), 0.0),
        rank_deficiency_of_M_minus_I=2 - rank,
        nondegenerate=rank == 1,
    )
