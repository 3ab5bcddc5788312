"""Small divisors, resonance windows, and the Hill-operator spectrum.

The linearized fast operator is block-diagonalized in ``sin(k x)`` by the
even-periodic Hill operator ``-d_tautau + q(tau)`` whose potential is the
x-average of the derivative multiplier of the fast forcing.  With its
eigenvalues ``lambda_j``, the small divisors are

    D(k, j; eps) = -k^2 + 1/(1 + eps^2) + eps^2 lambda_j,

and ``eps_{k,j}`` denotes the unique positive root in eps (existing iff
``lambda_j > 0``).  Admissible eps must stay outside the windows
``eps_{k,j} +- k^alpha / j^l``; the union of all windows below eps0 has
measure O(eps0^(l-1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eigvals_banded

from .fourier import cos_analyze
from .nonlinearity import Nonlinearity, collocate
from .planar import VTrajectory

Array = NDArray[np.float64]

__all__ = [
    "ResonanceParams",
    "HillSpectrum",
    "DivisorTable",
    "ResonanceReport",
    "CoverageError",
    "ResonanceError",
    "averaged_potential",
    "hill_eigs",
    "multiplication_matrix",
    "epsilon_kj",
    "is_resonant",
    "window_measure",
    "measure_exponent_fit",
    "divisor_min",
]


class CoverageError(ValueError):
    """The divisor table cannot certify resonance status near the query."""


class ResonanceError(RuntimeError):
    """A computation was attempted at a resonant epsilon.

    ``report`` carries the gate's window verdict; ``culprit`` the divisor
    (k, j) named by a collapsed linearization.
    """

    def __init__(self, message: str, report: "ResonanceReport | None" = None,
                 culprit: tuple[int, int] | None = None):
        super().__init__(message)
        self.report = report
        self.culprit = culprit


@dataclass(frozen=True)
class ResonanceParams:
    """Window-shape exponents: widths k^alpha / j^l, decay gamma = l - alpha - 2."""

    alpha: float = 0.25
    l: float = 2.5

    def __post_init__(self):
        if not (2.0 <= 2.0 + self.alpha < self.l < 3.0):
            raise ValueError("need 2 <= 2 + alpha < l < 3")

    @property
    def gamma(self) -> float:
        return self.l - self.alpha - 2.0


# ---------------------------------------------------------------------------
# the averaged potential and its Hill spectrum
# ---------------------------------------------------------------------------

def averaged_potential(traj: VTrajectory, eps: float,
                       model: Nonlinearity | None,
                       M_tau: int = 256, M_x: int = 128) -> Array:
    """x-mean of the derivative multiplier at w = 0, on the uniform tau grid.

    The fast forcing differentiates to multiplication by
    ``m(tau, x) = -(1/omega^2) f'(eps v sin x)/eps^2`` (`collocate` of
    order 1); the Hill potential is its x-average (the k-diagonal part of
    the multiplication operator in the sine basis).
    """
    return collocate(model, eps, traj.resample(M_tau), None, M_x,
                     order=1).mean(axis=1)


@dataclass(frozen=True)
class HillSpectrum:
    """Eigenvalues of -d_tautau + q(tau) on even period-periodic functions.

    ``radius`` bounds how far each computed eigenvalue may sit from the
    Galerkin matrix's (a Weyl bound on the couplings the banded solve
    drops).  ``lambda_at`` extends past the computed truncation with the
    asymptotic value (2 pi j / p)^2 + mean(q), whose error is O(1/j^2) and
    negligible at the divisor scale.
    """

    period: float
    q_coeffs: Array          # ordinary cosine coefficients of the potential
    eigenvalues: Array       # ascending, j = 0..J_max
    J_max: int
    radius: float            # |computed - Galerkin| bound on every eigenvalue

    @classmethod
    def flat(cls, period: float, J_max: int) -> "HillSpectrum":
        """Zero-potential spectrum: lambda_j = (2 pi j / period)^2 exactly."""
        lam = (2.0 * np.pi * np.arange(J_max + 1) / period) ** 2
        return cls(period=period, q_coeffs=np.zeros(1), eigenvalues=lam,
                   J_max=J_max, radius=0.0)

    @property
    def q_mean(self) -> float:
        return float(self.q_coeffs[0])

    def lambda_at(self, j: Array | int) -> Array:
        """Eigenvalues, exact up to J_max and asymptotic beyond."""
        j = np.atleast_1d(np.asarray(j, dtype=int))
        out = np.empty(j.shape, dtype=float)
        inside = j <= self.J_max
        out[inside] = self.eigenvalues[j[inside]]
        out[~inside] = (2.0 * np.pi * j[~inside] / self.period) ** 2 + self.q_mean
        return out


def multiplication_matrix(e: Array, J: int) -> Array:
    """Matrix of h -> q h in the orthonormal cosine basis, j = 0..J.

    ``e[..., n] = (1/p) integral q cos_n`` for n = 0..2J (the mean at
    n = 0, half the cosine coefficient beyond).  Entry (j, j') is
    ``e[j + j'] + e[|j - j'|]`` (Toeplitz plus Hankel), with the j = 0 row
    and column scaled by 1/sqrt(2); leading axes of ``e`` are batch axes.
    """
    j = np.arange(J + 1)
    E = e[..., j[:, None] + j[None, :]] + e[..., np.abs(j[:, None] - j[None, :])]
    E[..., 0, :] /= np.sqrt(2.0)
    E[..., :, 0] /= np.sqrt(2.0)
    return E


def hill_eigs(q_samples: Array, period: float, J_max: int) -> HillSpectrum:
    """Banded, eigenvalue-only cosine-Galerkin eigensolve of -d_tautau + q.

    The Galerkin matrix is ``diag((2 pi j / p)^2)`` plus the
    `multiplication_matrix` of ``e`` (``e[n]`` = the mean at n = 0, half
    the n-th cosine coefficient of q beyond).  Outside the band
    |j - j'| <= b its entries involve only ``e[n]`` with n > b, each at
    most three times per row, so dropping them moves every eigenvalue by at
    most ``3 sum_{n>b} |e[n]|`` (Weyl).  b is the smallest bandwidth whose
    bound is at or below the round-off a dense solve commits,
    ``eps_mach * (max |diagonal| + 3 sum |e|)``; the bound is returned as
    `HillSpectrum.radius`.  The band is assembled straight into LAPACK
    upper storage, symmetric by construction.

    Cost: with b = 0 the matrix is diagonal and cheap, but once b > 0 the
    band reduction chases bulges along the whole matrix and the cost grows
    superlinearly in ``J_max``.  A constant potential sampled 64 times
    (round-off harmonics, b = 31) took 0.27 s at J_max = 2000 and 122 s at
    J_max = 20000 on two cores with OpenBLAS; the gate's J_max = 400
    takes 6 to 10 ms.
    """
    q_samples = np.asarray(q_samples, dtype=float)
    M = q_samples.shape[0]
    n_q = min(2 * J_max, M // 2 - 1)
    q_hat = np.zeros(2 * J_max + 1)
    q_hat[: n_q + 1] = cos_analyze(q_samples, n_q)
    e = 0.5 * q_hat
    e[0] = q_hat[0]

    j = np.arange(J_max + 1)
    kinetic = (2.0 * np.pi * j / period) ** 2
    diagonal = kinetic + e[0] + e[2 * j]
    diagonal[0] = kinetic[0] + e[0]
    # tail[b] = 3 sum_{n > b} |e[n]| for b < J_max; the full band drops nothing
    tail = np.append(3.0 * np.cumsum(np.abs(e[::-1]))[::-1][1:J_max + 1], 0.0)
    roundoff = np.finfo(float).eps * (np.max(np.abs(diagonal)) + 3.0 * np.sum(np.abs(e)))
    b = int(np.argmax(tail <= roundoff))

    # row b - d of the upper storage holds the d-th superdiagonal A[j - d, j]
    d = np.arange(b + 1)[:, None]
    band = e[d] + e[np.abs(2 * j - d)]
    band[0] = diagonal
    row0 = np.arange(1, b + 1)
    band[row0, row0] /= np.sqrt(2.0)
    band[d > j] = 0.0
    lam = eigvals_banded(band[::-1], lower=False)
    if np.any(np.diff(lam) <= 0.0):
        raise AssertionError("Hill eigenvalues are not simple/ascending")
    return HillSpectrum(period=period, q_coeffs=q_hat, eigenvalues=lam,
                        J_max=J_max, radius=float(tail[b]))


# ---------------------------------------------------------------------------
# divisor roots
# ---------------------------------------------------------------------------

def _divisor(eps2: Array, k: Array, lam: Array) -> Array:
    return -k**2 + 1.0 / (1.0 + eps2) + eps2 * lam


def _positive_roots_y(k: Array, lam: Array) -> Array:
    """Positive root in y = eps^2 of lam*y^2 + (lam - k^2) y + (1 - k^2) = 0.

    Returns NaN where lam <= 0 (no positive root).  Stable quadratic formula
    plus two Newton polish steps on the defining equation.
    """
    k = np.asarray(k, dtype=float)
    lam = np.asarray(lam, dtype=float)
    a, b, c = lam, lam - k**2, 1.0 - k**2
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        qq = -0.5 * (b + np.sign(b) * sq)
        qq = np.where(b == 0.0, -0.5 * sq, qq)
        # c <= 0 always (k >= 2), so the positive root is c/qq when qq < 0
        # (b >= 0, including the lam == k^2 case where b vanishes) and qq/a
        # otherwise
        y = np.where(b >= 0.0, c / qq, qq / a)
        for _ in range(3):
            # Newton on phi(y) = -k^2 + 1/(1+y) + lam*y
            phi = -k**2 + 1.0 / (1.0 + y) + lam * y
            dphi = lam - 1.0 / (1.0 + y) ** 2
            step = np.where(dphi != 0.0, phi / dphi, 0.0)
            y = y - step
    y = np.where(lam > 0.0, y, np.nan)
    return y


def epsilon_kj(k: int, j: int, spectrum: HillSpectrum) -> float | None:
    """Positive root eps_{k,j} of the divisor equation, or None if absent.

    Bisection on a doubling bracket followed by Newton polish; the result
    satisfies the defining equation to better than 1e-13.
    """
    if k < 2:
        raise ValueError("spatial wavenumbers start at k = 2")
    if j < 0:
        raise ValueError("j must be nonnegative")
    lam = float(spectrum.lambda_at(j)[0])
    if lam <= 0.0:
        return None
    lo, hi = 0.0, 1.0
    while _divisor(np.array([hi**2]), np.array([float(k)]), np.array([lam]))[0] < 0.0:
        hi *= 2.0
        if hi > 1e9:
            return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = -k**2 + 1.0 / (1.0 + mid**2) + mid**2 * lam
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    for _ in range(2):
        val = -k**2 + 1.0 / (1.0 + eps**2) + eps**2 * lam
        dval = 2.0 * eps * (lam - 1.0 / (1.0 + eps**2) ** 2)
        if dval != 0.0:
            eps = eps - val / dval
    return float(eps)


# ---------------------------------------------------------------------------
# the divisor table and resonance queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorTable:
    """Resonance centers eps_{k,j} for 2 <= k <= K_max, 1 <= j <= J_max.

    ``eps[k_index, j-1]`` holds the root for k = k_values[k_index]; NaN
    marks pairs without a positive root.
    """

    period: float
    k_values: Array
    J_max: int
    eps: Array

    @classmethod
    def build(cls, spectrum: HillSpectrum, K_max: int, J_max: int) -> "DivisorTable":
        if K_max < 2:
            raise ValueError("K_max must be >= 2")
        ks = np.arange(2, K_max + 1)
        js = np.arange(1, J_max + 1)
        lam = spectrum.lambda_at(js)
        K, L = np.meshgrid(ks.astype(float), lam, indexing="ij")
        y = _positive_roots_y(K, L)
        with np.errstate(invalid="ignore"):
            table = np.sqrt(y)
        return cls(period=spectrum.period, k_values=ks, J_max=J_max, eps=table)

    def lookup(self, k: int, j: int) -> float:
        return float(self.eps[k - 2, j - 1])

    def windows(self, params: ResonanceParams):
        """Arrays (k, j, center, halfwidth) over all tabulated pairs with roots."""
        ks = self.k_values.astype(float)
        js = np.arange(1, self.J_max + 1, dtype=float)
        half = np.outer(ks**params.alpha, 1.0 / js**params.l)
        K = np.repeat(self.k_values, self.J_max)
        J = np.tile(np.arange(1, self.J_max + 1), self.k_values.shape[0])
        centers = self.eps.ravel()
        halfw = half.ravel()
        good = np.isfinite(centers)
        return K[good], J[good], centers[good], halfw[good]


def _coverage_floor(table: DivisorTable, params: ResonanceParams) -> Array:
    """Per-k smallest epsilon whose resonance status the table certifies."""
    last = table.eps[:, -1]
    width = table.k_values.astype(float) ** params.alpha / float(table.J_max) ** params.l
    floor = np.where(np.isfinite(last), last + width, 0.0)
    return floor


@dataclass(frozen=True)
class ResonanceReport:
    resonant: bool
    eps: float
    nearest_k: int
    nearest_j: int
    center: float
    halfwidth: float
    distance: float

    def message(self) -> str:
        verdict = "inside" if self.resonant else "outside"
        return (f"eps = {self.eps:.8g} is {verdict} the resonance window at "
                f"(k={self.nearest_k}, j={self.nearest_j}): center {self.center:.8g}, "
                f"halfwidth {self.halfwidth:.3g}, distance {self.distance:.3g}")

    def to_json_dict(self) -> dict:
        return {"resonant": self.resonant, "nearest_k": self.nearest_k,
                "nearest_j": self.nearest_j, "center": self.center,
                "halfwidth": self.halfwidth, "distance": self.distance}


def is_resonant(eps: float, params: ResonanceParams, table: DivisorTable,
                k_range: int | None = None) -> ResonanceReport:
    """Window membership of eps, with the nearest window for context.

    Raises `CoverageError` when the table cannot certify the answer (query
    below the tabulated centers for some k, or k_range beyond the table):
    guessing here would silently break solver preconditions.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    ks = table.k_values
    if k_range is not None:
        if k_range > int(ks[-1]):
            raise CoverageError(
                f"table covers k <= {int(ks[-1])} but k_range = {k_range} requested")
        keep = ks <= k_range
    else:
        keep = np.ones(ks.shape, dtype=bool)

    floor = _coverage_floor(table, params)[keep]
    if np.any(eps <= floor):
        k_bad = ks[keep][eps <= floor]
        raise CoverageError(
            f"eps = {eps:.6g} at or below certified floor for k in {k_bad.tolist()}; "
            f"extend J_max beyond {table.J_max}")

    K, J, centers, halfw = table.windows(params)
    sel = np.isin(K, ks[keep])
    K, J, centers, halfw = K[sel], J[sel], centers[sel], halfw[sel]
    dist = np.abs(eps - centers)
    inside = dist < halfw
    if np.any(inside):
        # report the deepest violation (smallest distance/halfwidth)
        idx = np.argmin(np.where(inside, dist / halfw, np.inf))
        res = True
    else:
        idx = int(np.argmin(dist))
        res = False
    return ResonanceReport(resonant=bool(res), eps=float(eps),
                           nearest_k=int(K[idx]), nearest_j=int(J[idx]),
                           center=float(centers[idx]), halfwidth=float(halfw[idx]),
                           distance=float(dist[idx]))


def window_measure(table: DivisorTable, params: ResonanceParams,
                   eps0: float) -> float:
    """Lebesgue measure of the union of resonance windows inside (0, eps0)."""
    _, _, centers, halfw = table.windows(params)
    lo = np.maximum(centers - halfw, 0.0)
    hi = np.minimum(centers + halfw, eps0)
    keep = hi > lo
    if not np.any(keep):
        return 0.0
    iv = np.stack([lo[keep], hi[keep]], axis=1)
    iv = iv[np.argsort(iv[:, 0])]
    total = 0.0
    cur_lo, cur_hi = iv[0]
    for a, b in iv[1:]:
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    total += cur_hi - cur_lo
    return float(total)


def measure_exponent_fit(table: DivisorTable, params: ResonanceParams,
                         eps0_list) -> tuple[float, float]:
    """Log-log slope and R^2 of window-union measure against eps0."""
    from scipy.stats import linregress

    eps0 = np.asarray(sorted(eps0_list), dtype=float)
    meas = np.array([window_measure(table, params, e) for e in eps0])
    if np.any(meas <= 0.0):
        raise ValueError("window measure vanished; enlarge the table")
    fit = linregress(np.log(eps0), np.log(meas))
    return float(fit.slope), float(fit.rvalue**2)


def divisor_min(eps: float, k: int, spectrum: HillSpectrum,
                j_cap: int | None = None) -> tuple[float, int]:
    """Minimum over j of |D(k, j; eps)| and its argmin.

    Scans j = 0..j_cap; the default cap 2k/eps + 16 safely brackets the
    minimizer since divisors grow like eps^2 j^2 beyond j ~ k/eps.
    """
    if j_cap is None:
        cap_f = 2.0 * k / max(eps, 1e-6) * max(1.0, spectrum.period / (2.0 * np.pi))
        j_cap = int(min(cap_f, 2e6)) + 16
    js = np.arange(j_cap + 1)
    lam = spectrum.lambda_at(js)
    vals = np.abs(_divisor(np.full(js.shape, eps**2), np.full(js.shape, float(k)), lam))
    j_min = int(np.argmin(vals))
    return float(vals[j_min]), j_min
