"""Fourier representations on odd-periodic function spaces.

Fields are stored with real coefficients: a space-time field is
``sum_{j,k} B[j,k] cos(2*pi*j*tau/p) sin(k x)`` with ``j >= 0`` and
``k >= 2`` (the ``sin x`` direction is split off by the P/Q decomposition
and handled separately).  A purely spatial field is the one-row case.

The real storage encodes the symmetry "even in tau, odd in x" exactly: the
canonical complex coefficients satisfy ``w[j,k] = w[-j,k] = -w[j,-k]`` by
construction.  Sobolev norms are computed over those complex coefficients,
so multiplicity factors appear in the formulas below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

__all__ = [
    "AliasingError",
    "SpaceTimeField",
    "EvenField",
    "x_grid",
    "sin_synthesis_matrix",
    "cos_synthesis_matrix",
    "sin_analyze",
    "cos_analyze",
    "cos_series",
    "project_P",
    "project_Q",
    "j_eps_symbol",
    "invert_J_eps",
    "multiply_to_even",
]


class AliasingError(ValueError):
    """Raised when a sampling grid is too coarse for the requested band."""


# ---------------------------------------------------------------------------
# grids and transforms
# ---------------------------------------------------------------------------

def x_grid(M: int) -> Array:
    """Uniform grid of M points on [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(M) / M


def _phase(M: int, N: int) -> Array:
    """2 pi ((m k) mod M) / M for m < M, k <= N, reduced exactly."""
    return (2.0 * np.pi / M) * (np.outer(np.arange(M), np.arange(N + 1)) % M)


@lru_cache(maxsize=64)
def sin_synthesis_matrix(M: int, N: int) -> Array:
    """S[m, k] = sin(k * x_m) = (-1)^k sin(2 pi ((m k) mod M) / M) for
    k = 0..N on the M-point x grid."""
    S = np.sin(_phase(M, N)) * (-1.0) ** np.arange(N + 1)
    S.flags.writeable = False
    return S


@lru_cache(maxsize=64)
def cos_synthesis_matrix(M: int, N: int) -> Array:
    """C[m, j] = cos(2*pi*j*m/M) for j = 0..N (period-agnostic)."""
    C = np.cos(_phase(M, N))
    C.flags.writeable = False
    return C


def sin_analyze(values: Array, N: int) -> Array:
    """Sine coefficients b[0..N] of odd samples on the uniform x grid.

    ``b[k] = (2/M) sum_m values[m] sin(k x_m)``; exact for band-limited odd
    input when ``M >= 2N + 2``.  ``values`` may carry extra leading axes;
    the transform acts on the last axis.
    """
    M = values.shape[-1]
    if M < 2 * N + 2:
        raise AliasingError(f"grid of {M} points cannot resolve sine band {N}")
    S = sin_synthesis_matrix(M, N)
    return (2.0 / M) * (values @ S)


def cos_analyze(values: Array, N: int) -> Array:
    """Cosine coefficients a[0..N] of even samples on a uniform grid.

    ``a[0]`` is the mean; ``a[j] = (2/M) sum_m values[m] cos(2 pi j m / M)``
    for ``j >= 1``.  Acts on the last axis.
    """
    M = values.shape[-1]
    if M < 2 * N + 1:
        raise AliasingError(f"grid of {M} points cannot resolve cosine band {N}")
    C = cos_synthesis_matrix(M, N)
    a = (2.0 / M) * (values @ C)
    a[..., 0] *= 0.5
    return a


def cos_series(coeffs: Array, period: float, taus: Array | float,
               order: int = 0) -> Array:
    """The order-th tau-derivative of sum_j coeffs[j] cos(2 pi j tau / period).

    ``coeffs`` runs over j on its first axis; further axes (the sine
    wavenumbers of a space-time field) are kept, so the result has shape
    ``shape(taus) + coeffs.shape[1:]``.  ``order`` is 0 or 1.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    j = np.arange(coeffs.shape[0])
    ang = 2.0 * np.pi * np.multiply.outer(np.asarray(taus, dtype=float), j) / period
    if order == 0:
        return np.cos(ang) @ coeffs
    om = (2.0 * np.pi * j / period).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return -np.sin(ang) @ (om * coeffs)


# ---------------------------------------------------------------------------
# norm weights
# ---------------------------------------------------------------------------

def temporal_weights(J: int) -> Array:
    """Multiplicity-adjusted temporal weights for j = 0..J.

    A real coefficient at j = 0 corresponds to 2 complex entries of half
    magnitude (weight 1/2); at j >= 1 to 4 entries of quarter magnitude
    (weight (1+j)^2 / 4).
    """
    j = np.arange(J + 1, dtype=float)
    w = (1.0 + j) ** 2 / 4.0
    w[0] = 0.5
    return w


def spatial_weights(K: int, s: float) -> Array:
    """|k|^(2s) for k = 0..K (the k = 0 entry is never used for odd fields)."""
    k = np.arange(K + 1, dtype=float)
    with np.errstate(divide="ignore"):
        w = k ** (2.0 * s)
    w[0] = 0.0 if s > 0 else 1.0
    return w


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _check_q_space(coeffs: Array) -> None:
    if coeffs.shape[-1] < 3:
        raise ValueError("Q-space fields need storage up to k >= 2")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("field coefficients must be finite")
    low = coeffs[..., :2]
    if np.any(low != 0.0):
        raise ValueError("modes k = 0, 1 are not part of the Q-space")


@dataclass(frozen=True)
class SpaceTimeField:
    """Field sum_{j,k} coeffs[j,k] cos(2 pi j tau / period) sin(k x).

    Rows run over the temporal index j = 0..N_tau, columns over the spatial
    wavenumber k = 0..N_x with the k = 0, 1 columns identically zero.
    """

    period: float
    coeffs: Array

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs.ndim != 2:
            raise ValueError("space-time coefficients must be 2-d (j by k)")
        if not self.period > 0:
            raise ValueError("period must be positive")
        _check_q_space(self.coeffs)

    @classmethod
    def zeros(cls, period: float, N_tau: int, N_x: int) -> "SpaceTimeField":
        return cls(period, np.zeros((N_tau + 1, N_x + 1)))

    @property
    def band_x(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def band_tau(self) -> int:
        return self.coeffs.shape[0] - 1

    # -- norms ------------------------------------------------------------
    def norm(self, s: float) -> float:
        wj = temporal_weights(self.band_tau)
        wk = spatial_weights(self.band_x, s)
        return float(np.sqrt(np.einsum("j,k,jk->", wj, wk, self.coeffs**2)))

    # -- band projections --------------------------------------------------
    def pi_N(self, N: int) -> "SpaceTimeField":
        """Spatial band truncation to |k| <= N (temporal indices untouched)."""
        if N < 1:
            raise ValueError("truncation band must be >= 1")
        c = self.coeffs.copy()
        c[:, N + 1:] = 0.0
        return SpaceTimeField(self.period, c)

    # -- evaluation ---------------------------------------------------------
    def values_grid(self, M_tau: int, M_x: int) -> Array:
        """Samples on the uniform (tau, x) collocation grid, shape (M_tau, M_x)."""
        C = cos_synthesis_matrix(M_tau, self.band_tau)
        S = sin_synthesis_matrix(M_x, self.band_x)
        return C @ self.coeffs @ S.T

    # -- arithmetic ----------------------------------------------------------
    def _binary(self, other: "SpaceTimeField", sign: float) -> "SpaceTimeField":
        if abs(other.period - self.period) > 1e-12 * max(1.0, self.period):
            raise ValueError("period mismatch")
        J = max(self.band_tau, other.band_tau)
        K = max(self.band_x, other.band_x)
        a = np.zeros((J + 1, K + 1))
        a[: self.band_tau + 1, : self.band_x + 1] = self.coeffs
        a[: other.band_tau + 1, : other.band_x + 1] += sign * other.coeffs
        return SpaceTimeField(self.period, a)

    def __add__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        return self._binary(other, 1.0)

    def __sub__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        return self._binary(other, -1.0)

    def __mul__(self, c: float) -> "SpaceTimeField":
        return SpaceTimeField(self.period, c * self.coeffs)

    __rmul__ = __mul__

    def __neg__(self) -> "SpaceTimeField":
        return SpaceTimeField(self.period, -self.coeffs)

    # -- serialization ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        j_idx, k_idx = np.nonzero(self.coeffs)
        return {
            "period": self.period,
            "bands": [int(self.band_x), int(self.band_tau)],
            "coeffs": [[int(j), int(k), float(self.coeffs[j, k])]
                       for j, k in zip(j_idx, k_idx)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpaceTimeField":
        N_x, N_tau = doc["bands"]
        c = np.zeros((N_tau + 1, N_x + 1))
        for j, k, v in doc["coeffs"]:
            c[j, k] = v
        return cls(float(doc["period"]), c)


@dataclass(frozen=True)
class EvenField:
    """Field sum_{j,k} coeffs[j,k] cos(2 pi j tau / period) cos(k x).

    Products of two odd fields land here.  The norm uses the same temporal
    weights as `SpaceTimeField` and spatial weight max(1, |k|)^(2s) so the
    x-mean (k = 0) column is not annihilated.
    """

    period: float
    coeffs: Array

    @property
    def band_x(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def band_tau(self) -> int:
        return self.coeffs.shape[0] - 1

    def norm(self, s: float) -> float:
        wj = temporal_weights(self.band_tau)
        wk = spatial_weights(self.band_x, s)
        wk[0] = 1.0  # weight max(1, |k|)^(2s); see class docstring
        w = np.outer(wj, wk)
        # the k = 0 column keeps twice the weight: cos(j tau)*1 has only two
        # complex entries (of half magnitude) instead of four quarter ones
        w[:, 0] *= 2.0
        return float(np.sqrt(np.sum(w * self.coeffs**2)))


def multiply_to_even(u1: SpaceTimeField, u2: SpaceTimeField) -> EvenField:
    """Pointwise product of two odd fields, analyzed in the cos-cos basis."""
    if abs(u1.period - u2.period) > 1e-12 * max(1.0, u1.period):
        raise ValueError("period mismatch")
    K = u1.band_x + u2.band_x
    J = u1.band_tau + u2.band_tau
    M_x = 2 * K + 2
    M_tau = 2 * J + 2
    prod = u1.values_grid(M_tau, M_x) * u2.values_grid(M_tau, M_x)
    a = cos_analyze(prod, K)            # along x -> (M_tau, K+1)
    a = cos_analyze(a.T, J).T           # along tau -> (J+1, K+1)
    return EvenField(u1.period, a)


# ---------------------------------------------------------------------------
# P/Q decomposition
# ---------------------------------------------------------------------------

def project_P(values: Array) -> float | Array:
    """Component along sin x: (1/pi) * integral of g(x) sin(x) dx.

    ``values`` are samples on the uniform x grid (last axis); leading axes
    are kept.
    """
    M = values.shape[-1]
    out = (2.0 / M) * (values @ sin_synthesis_matrix(M, 1)[:, 1])
    return float(out) if out.ndim == 0 else out


def project_Q(values: Array, N_x: int) -> Array:
    """Sine coefficients k = 0..N_x of everything orthogonal to sin x.

    Acts on the last axis (leading axes are kept); the k = 0, 1 entries of
    the result are zero.  Requires at least 4 * N_x sample points
    (dealiasing margin); raises `AliasingError` otherwise.
    """
    M = values.shape[-1]
    if M < 4 * N_x:
        raise AliasingError(
            f"{M} sample points cannot safely resolve band {N_x}; need >= {4 * N_x}")
    b = sin_analyze(values, N_x)
    b[..., :2] = 0.0
    return b


# ---------------------------------------------------------------------------
# the spatial linear operator J_eps = d_xx + 1/(1+eps^2)
# ---------------------------------------------------------------------------

def j_eps_symbol(k: Array | int, eps: float) -> Array | float:
    """Diagonal symbol of J_eps on sin(k x): 1/(1+eps^2) - k^2."""
    return 1.0 / (1.0 + eps**2) - np.asarray(k, dtype=float) ** 2


def invert_J_eps(w: SpaceTimeField, eps: float) -> SpaceTimeField:
    """Entrywise inverse of J_eps; bounded map QH^s -> QH^(s+2) with norm <= 2."""
    sym = j_eps_symbol(np.arange(w.band_x + 1), eps)
    sym[:2] = 1.0  # the k = 0, 1 entries are zeroed below; avoid spurious zeros
    c = w.coeffs / sym[None, :]
    c[:, :2] = 0.0
    return SpaceTimeField(w.period, c)
