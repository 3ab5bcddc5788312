"""The planar limit oscillator, its periodic orbits, and Floquet data.

The slow amplitude variable obeys ``p'' = -p - (f3/8) p^3`` in the singular
limit, with conserved energy ``H = p_tau^2/2 + p^2/2 + (f3/32) p^4``.  For
``f3 > 0`` every level set is a periodic orbit; for ``f3 < 0`` only the
bounded component around the origin carries orbits.  Shooting along the
energy gradient requires the orbit to be non-degenerate: the monodromy
matrix of the linearized flow has eigenvalue 1 with geometric multiplicity
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import solve_ivp

from .fourier import cos_analyze, cos_synthesis_matrix

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

_IVP_OPTS = dict(method="DOP853", rtol=1e-12, atol=1e-14)


class NoPeriodicOrbitError(ValueError):
    """The requested amplitude does not lie on a bounded periodic level set,
    or its orbit cannot be integrated to the requested energy tolerance."""


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
        j = np.arange(self.cos_coeffs.shape[0])
        ang = 2.0 * np.pi * np.multiply.outer(np.asarray(taus, dtype=float), j) / self.period
        return np.cos(ang) @ self.cos_coeffs

    def v_tau_at(self, taus: Array | float) -> Array:
        j = np.arange(self.cos_coeffs.shape[0])
        om = 2.0 * np.pi * j / self.period
        ang = np.multiply.outer(np.asarray(taus, dtype=float), om)
        return -np.sin(ang) @ (om * self.cos_coeffs)

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

    def trajectory(self, M: int | None = None) -> VTrajectory:
        M = M or self.p.shape[0]
        traj = VTrajectory(self.period, self.p, self.p_tau,
                           start=(self.amplitude, 0.0))
        if M != traj.n_samples:
            grid = self.period * np.arange(M) / M
            traj = VTrajectory(self.period, traj.v_at(grid), traj.v_tau_at(grid),
                               start=traj.start)
        return traj

    def to_json_dict(self) -> dict:
        return {
            "f3": self.f3,
            "amplitude": self.amplitude,
            "period": self.period,
            "energy": self.energy,
            "samples": [[float(t), float(p), float(q)]
                        for t, p, q in zip(self.tau, self.p, self.p_tau)],
        }


def find_orbit(f3: float, amplitude: float, tol: float = 1e-12,
               n_samples: int = 512) -> PlanarOrbit:
    """Periodic orbit through (amplitude, 0), period located to tol.

    Integration is adaptive high-order Runge-Kutta; the first return to the
    section {p_tau = 0, p > 0} is refined by root-finding on the dense
    output.  For ``f3 < 0`` the amplitude must stay inside the bounded
    component below the saddle at sqrt(-8/f3).
    """
    if not (np.isfinite(amplitude) and amplitude > 0):
        raise ValueError("amplitude must be a finite positive number")
    if f3 < 0 and amplitude >= np.sqrt(-8.0 / f3):
        raise NoPeriodicOrbitError(
            f"amplitude {amplitude:.6g} is outside the bounded component "
            f"(separatrix at {np.sqrt(-8.0 / f3):.6g})")

    def rhs(_t, y):
        return [y[1], -y[0] - (f3 / 8.0) * y[0] ** 3]

    # p_tau starts at 0 and goes negative; its first upward crossing is the
    # half period (the orbit is even in tau), which avoids the spurious
    # event at tau = 0 that a full-return section would trigger.
    def half_section(_t, y):
        return y[1]

    half_section.terminal = True
    half_section.direction = 1.0

    t_max = 1e4
    sol = solve_ivp(rhs, (0.0, t_max), [amplitude, 0.0], events=half_section,
                    dense_output=True, **_IVP_OPTS)
    if sol.t_events[0].size == 0:
        raise NoPeriodicOrbitError("no return detected (near-separatrix orbit?)")
    period = 2.0 * float(sol.t_events[0][0])

    if n_samples % 2:
        n_samples += 1
    grid = period * np.arange(n_samples) / n_samples
    half = n_samples // 2
    direct = sol.sol(grid[: half + 1])
    states = np.empty((2, n_samples))
    states[:, : half + 1] = direct
    # reflect across the half period: p(T - t) = p(t), p_tau(T - t) = -p_tau(t)
    states[0, half + 1:] = direct[0, 1:half][::-1]
    states[1, half + 1:] = -direct[1, 1:half][::-1]
    energy = h_star((amplitude, 0.0), f3)
    drift = np.max(np.abs(0.5 * states[1] ** 2 + 0.5 * states[0] ** 2
                          + (f3 / 32.0) * states[0] ** 4 - energy))
    if drift > max(tol, 1e-10):
        raise NoPeriodicOrbitError(
            f"energy drift {drift:.2e} on the sampled orbit exceeds the "
            f"tolerance {max(tol, 1e-10):.2e}; the orbit is not resolved")
    return PlanarOrbit(f3=f3, amplitude=amplitude, period=period, energy=energy,
                       tau=grid, p=states[0], p_tau=states[1])


# ---------------------------------------------------------------------------
# Floquet non-degeneracy
# ---------------------------------------------------------------------------

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


def monodromy(orbit: PlanarOrbit, eig_tol: float = 1e-8,
              rank_gap: float = 1e-4) -> MonodromyReport:
    """Monodromy matrix of the variational flow along one orbit period.

    Non-degeneracy requires both eigenvalues equal to 1 (within ``eig_tol``)
    with geometric multiplicity one, i.e. rank(M - I) = 1 detected through a
    singular-value gap at ``rank_gap``.

    The eigenvalue pair is recovered from the trace and determinant, which
    are well conditioned; a direct eigensolve of the (generically defective)
    monodromy matrix splits the double root by the square root of roundoff
    and would be meaningless at these tolerances.  A discriminant below the
    roundoff scale is therefore treated as an exact double root.
    """
    f3 = orbit.f3

    def rhs(_t, y):
        p = y[0]
        a21 = -1.0 - 0.375 * f3 * p * p
        return [y[1], -p - (f3 / 8.0) * p**3,
                y[4], y[5],
                a21 * y[2], a21 * y[3]]

    y0 = [orbit.amplitude, 0.0, 1.0, 0.0, 0.0, 1.0]
    sol = solve_ivp(rhs, (0.0, orbit.period), y0, **_IVP_OPTS)
    if not sol.success:
        raise RuntimeError(f"variational integration failed: {sol.message}")
    yf = sol.y[:, -1]
    M = np.array([[yf[2], yf[3]], [yf[4], yf[5]]])
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = 0.25 * tr * tr - det
    if abs(disc) <= 1e-10:
        eigs = (complex(0.5 * tr), complex(0.5 * tr))
    else:
        root = np.sqrt(complex(disc))
        eigs = (complex(0.5 * tr + root), complex(0.5 * tr - root))
    svals = np.linalg.svd(M - np.eye(2), compute_uv=False)
    rank = int(np.sum(svals > rank_gap))
    nondeg = bool(abs(eigs[0] - 1.0) <= eig_tol and abs(eigs[1] - 1.0) <= eig_tol
                  and rank == 1)
    return MonodromyReport(
        matrix=M,
        eigenvalues=eigs,
        det=float(det),
        singular_values_M_minus_I=(float(svals[0]), float(svals[1])),
        rank_deficiency_of_M_minus_I=2 - rank,
        nondegenerate=nondeg,
    )
