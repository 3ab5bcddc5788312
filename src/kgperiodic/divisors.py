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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .fourier import cos_analyze
from .nonlinearity import Nonlinearity
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

# Brillouin-Wigner sweeps before the certified path falls back to a dense
# solve, and the smallest half-width of their windows: a potential of one or
# two harmonics has b <= 2 but eigenvectors reaching about 6 cosines out
_BW_SWEEPS = 6
_MIN_WINDOW = 6
# the dense fallback's largest Galerkin matrix: 2048 cosines, 32 MB
_DENSE_MAX_SIZE = 2048


def averaged_potential(traj: VTrajectory, eps: float,
                       model: Nonlinearity | None) -> Array:
    """x-mean of the derivative multiplier at w = 0, on 256 uniform tau samples.

    The fast forcing differentiates to multiplication by
    ``m(tau, x) = -(1/omega^2) f'(eps v sin x)/eps^2`` (`collocate` of
    order 1); the Hill potential is its x-average (the k-diagonal part of
    the multiplication operator in the sine basis).  m is a series in
    (v sin x)^2, and sin^(2n) x has the x-mean C(2n, n)/4^n, so the
    average is a series in v^2 with those moments folded into its
    coefficients (`Nonlinearity.scaled_deriv_x_mean`).  It equals the mean
    over any uniform x grid of more than 2n points, n the highest power
    kept, and costs one series evaluation per tau sample.  ``model=None``
    (the test hook of `collocate`) gives zeros.
    """
    v = traj.resample(256)
    if model is None:
        return np.zeros_like(v)
    return (-1.0 / (1.0 + eps**2)) * model.scaled_deriv_x_mean(v, eps)


@dataclass(frozen=True)
class HillSpectrum:
    """Eigenvalues of -d_tautau + q(tau) on even period-periodic functions.

    ``radius`` bounds how far each computed eigenvalue may sit from the
    eigenvalue of the J_max Galerkin matrix: the Weyl bound on the
    couplings the band drops, plus, on the certified path of `hill_eigs`,
    the largest Kato-Temple bound between a Rayleigh quotient and the band
    matrix's eigenvalue.  It does not bound the truncation error of the
    Galerkin matrix itself, which is largest at the top: J_max = 400 and
    1600 solves of the canonical potential differ by 1.5e-6 at j = 399 and
    by at most 1.1e-9 for j <= 398, so `resonance_gate` solves 16 past the
    j its table reads.  ``lambda_at`` extends past J_max with the
    constant-potential value (2 pi j / p)^2 + mean(q); by min-max the true
    eigenvalue lies within ||q - mean(q)||_inf of it (at most the sum of
    |q_coeffs[1:]|, 0.115 at the canonical point), for every j.
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
        """Computed eigenvalues up to J_max, the constant-potential value beyond.

        Past J_max the error is at most ||q - mean(q)||_inf (min-max), not
        a vanishing one; see the class docstring.
        """
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
    Both parts are sliding windows: the Hankel one over ``e``, the Toeplitz
    one over ``e`` mirrored about n = 0.
    """
    e = e[..., :2 * J + 1]
    mirrored = np.concatenate([e[..., J:0:-1], e[..., :J + 1]], axis=-1)
    window = np.lib.stride_tricks.sliding_window_view
    E = window(e, J + 1, axis=-1) + window(mirrored, J + 1, axis=-1)[..., ::-1, :]
    E[..., 0, :] /= np.sqrt(2.0)
    E[..., :, 0] /= np.sqrt(2.0)
    return E


def hill_eigs(q_samples: Array, period: float, J_max: int) -> HillSpectrum:
    """Eigenvalue-only cosine-Galerkin eigensolve of -d_tautau + q.

    The Galerkin matrix is ``diag((2 pi j / p)^2)`` plus the
    `multiplication_matrix` of ``e`` (``e[n]`` = the mean at n = 0, half
    the n-th cosine coefficient of q beyond).  Outside the band
    |j - j'| <= b its entries involve only ``e[n]`` with n > b, each at
    most three times per row, so dropping them moves every eigenvalue by at
    most ``3 sum_{n>b} |e[n]|`` (Weyl).  The error budget is the round-off
    a dense solve commits, ``eps_mach * (max |diagonal| + 3 sum |e|)``.

    Parity split: entry (j, j') involves only ``e[j + j']`` and
    ``e[|j - j'|]``, so without odd harmonics the matrix decouples into the
    even-j and the odd-j cosines (the p/2-periodic and p/2-antiperiodic
    problems of a p/2-periodic potential), each of half the size and half
    the bandwidth.  The potential of an odd model on a trajectory with
    v(tau + p/2) = -v(tau) has round-off odd harmonics only; when their
    Weyl mass ``3 sum_odd |e[n]|`` plus the off-band even tail fits the
    budget, the two classes are solved separately and interleaved (Neumann
    and Dirichlet conditions at p/4 alternate, lambda_0 < lambda_1 < ...,
    even j from the even class), which the ascending check below confirms.
    Otherwise the whole matrix is one class.

    The certified path (`_certified_eigvals`) solves the classes together.
    The diagonal of a class is widely spaced against its couplings, so
    every eigenvector is local: Brillouin-Wigner sweeps on a window around
    each index give it, and its Rayleigh quotient and residual against the
    whole band give an interval holding an eigenvalue.  When the intervals
    are disjoint, Kato-Temple bounds the error of each quotient.  b is the
    smallest bandwidth whose dropped mass is at most half the budget, and
    the largest Kato-Temple term must fit the rest.  Where the certificate
    fails (overlapping intervals, or a Kato-Temple term over budget after
    `_BW_SWEEPS` sweeps, as for strong potentials), `_dense_eigvals` solves
    each class of the whole Galerkin matrix by `np.linalg.eigvalsh`.

    `HillSpectrum.radius` is the dropped mass plus the largest Kato-Temple
    term on the certified path, and the dropped parity mass alone on the
    dense one, at most the budget either way.

    The certified path costs time linear in J_max: 0.8 to 1.2 ms at the
    canonical potential (sine-Gordon, a = 0.9, eps = 0.1) at J_max = 400 on
    two cores with OpenBLAS, and 1.6 ms for a constant 2.5 sampled 64
    times, period 5, J_max = 2000.  The dense fallback is cubic, and
    raises `ValueError` past `_DENSE_MAX_SIZE` cosines instead.
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
    budget = np.finfo(float).eps * (np.max(np.abs(diagonal)) + 3.0 * np.sum(np.abs(e)))
    # split[b] = 3 sum_{n odd} |e[n]| + 3 sum_{n even > 2b} |e[n]|
    even = np.abs(e[::2])
    split = (3.0 * np.sum(np.abs(e[1::2]))
             + np.append(3.0 * np.cumsum(even[::-1])[::-1][1:], 0.0))
    if J_max >= 1 and split[-1] <= budget:
        stride, dropped = 2, split
    else:
        # dropped[b] = 3 sum_{n > b} |e[n]| for b < J_max; the full band drops nothing
        stride = 1
        dropped = np.append(3.0 * np.cumsum(np.abs(e[::-1]))[::-1][1:J_max + 1], 0.0)

    found = None
    if dropped[-1] <= 0.5 * budget:
        b = int(np.argmax(dropped <= 0.5 * budget))
        found = _certified_eigvals(e, diagonal, stride, b, budget - dropped[b])
    if found is None:
        lam, radius = _dense_eigvals(e, diagonal, stride), float(dropped[-1])
    else:
        lam, kato_temple = found
        radius = float(dropped[b]) + kato_temple
    if np.any(np.diff(lam) <= 0.0):
        raise AssertionError("Hill eigenvalues are not simple/ascending")
    return HillSpectrum(period=period, q_coeffs=q_hat, eigenvalues=lam,
                        J_max=J_max, radius=radius)


def _stacked_band(e: Array, diagonal: Array, stride: int, b: int) -> tuple[Array, Array]:
    """The parity classes of the Galerkin matrix, stacked block-diagonally.

    Stacked index k runs over class 0 (j = 0, stride, ...), then class 1
    and so on; ``j[k]`` is its cosine index.  Diagonal storage: row b + d
    holds the couplings of k to k + d, ``G[b + d, k] = A[j[k], j[k + d]]``
    for |d| <= b, zero where k + d leaves the class of k.
    """
    n = diagonal.shape[0]
    j = np.concatenate([np.arange(start, n, stride) for start in range(stride)])
    d = np.arange(-b, b + 1)[:, None]
    jd = j + stride * d                 # the cosine index of k + d, if in the class
    G = e[stride * np.abs(d)] + e[np.clip(j + jd, 0, e.shape[0] - 1)]
    G[:, 0] /= np.sqrt(2.0)             # the j = 0 row (k = 0) and column
    col0 = np.arange(1, min(b, n - 1) + 1)
    G[b - col0, col0] /= np.sqrt(2.0)
    G[b] = diagonal[j]
    G[j[np.clip(np.arange(n) + d, 0, n - 1)] != jd] = 0.0
    return j, G


def _dense_eigvals(e: Array, diagonal: Array, stride: int) -> Array:
    """`np.linalg.eigvalsh` on each parity class of the Galerkin matrix
    (`multiplication_matrix` of ``e``, ``diagonal`` on its diagonal)."""
    n = diagonal.shape[0]
    if n > _DENSE_MAX_SIZE:
        raise ValueError(f"the Hill certificate failed on {n} cosines, and the "
                         f"dense fallback stops at {_DENSE_MAX_SIZE}")
    A = multiplication_matrix(e, n - 1)
    A[np.diag_indices(n)] = diagonal
    lam = np.empty(n)
    for start in range(stride):
        lam[start::stride] = np.linalg.eigvalsh(A[start::stride, start::stride])
    return lam


def _certified_eigvals(e: Array, diagonal: Array, stride: int, b: int,
                       budget: float) -> tuple[Array, float] | None:
    """Eigenvalues of the band-b classes as certified Rayleigh quotients.

    On the `_stacked_band` classes, every index i gets a local eigenvector
    x supported on the window i - w .. i + w, w = max(b, `_MIN_WINDOW`)
    (0 for a diagonal), with x_i = 1.  From x = e_i,
    Brillouin-Wigner sweeps x_k <- (A x - D_k x)_k / ((A x)_i - D_k)
    converge geometrically when the couplings are small against the
    spacing of the diagonal D.  After each sweep from the second on, the
    Rayleigh quotient rho_i and the residual s_i = ||A x - rho_i x|| / ||x||
    against the whole band give intervals [rho_i - s_i, rho_i + s_i], each
    holding an eigenvalue.  When they are disjoint within each class
    (which also orders them), each holds exactly one, and Kato-Temple
    bounds |lambda_i - rho_i| by s_i^2 / min(rho_i - rho_{i-1} - s_{i-1},
    rho_{i+1} - s_{i+1} - rho_i).  Returns the quotients by cosine index
    and the largest such bound, or None when no sweep up to `_BW_SWEEPS`
    brings it within ``budget``.
    """
    j, G_band = _stacked_band(e, diagonal, stride, b)
    n, w = j.shape[0], max(b, _MIN_WINDOW) if b else 0   # b = 0: a diagonal
    W, m = 2 * w + 1, w + b             # m: reach of A x past the window centre
    G = np.zeros((2 * b + 1, n + 2 * m))
    G[:, m:m + n] = G_band
    D = G_band[b]
    G[b] = 0.0                          # off-diagonal couplings only
    # D on the window of row i: zero past the ends for the quotient,
    # infinite for the sweep, so that x stays zero there
    D_pad = np.zeros((2, n + 2 * m))
    D_pad[1] = np.inf
    D_pad[:, m:m + n] = D
    view = np.lib.stride_tricks.as_strided
    D_win, D_sweep = view(D_pad[:, b:], (2, n, W), D_pad.strides + D_pad.strides[1:])
    # V[c, i, a] = G[c, i + a] and X_view[i, c, a] = X_pad[i, c + a]: A x of
    # row i on the window and b past either end (a = 0..2m) is sum_c V * X_view
    V = view(G, (2 * b + 1, n, 2 * m + 1), G.strides + G.strides[1:])
    X_pad = np.zeros((n, 2 * m + 1 + 2 * b))     # x of row i at 2b .. 2b + 2w
    X_view = view(X_pad, (n, 2 * b + 1, 2 * m + 1), X_pad.strides + X_pad.strides[1:])
    x = X_pad[:, 2 * b:2 * b + W]
    x[:, w] = 1.0
    V_win, X_win = V[:, :, b:b + W], X_view[:, :, b:b + W]
    ends = np.flatnonzero(np.diff(j) != stride)  # last index of each class but the final one
    Y_win = np.einsum("cia,ica->ia", V_win, X_win)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, _BW_SWEEPS + 1):
            x[:] = Y_win / ((D + Y_win[:, w])[:, None] - D_sweep)
            x[:, w] = 1.0
            if sweep < 2:
                Y_win = np.einsum("cia,ica->ia", V_win, X_win)
                continue
            Y = np.einsum("cia,ica->ia", V, X_view)   # off-diagonal part of A x
            Y_win = Y[:, b:b + W]
            Ax = Y_win + D_win * x
            xx = np.einsum("ia,ia->i", x, x)
            rho = np.einsum("ia,ia->i", x, Ax) / xx
            R = Y.copy()
            R[:, b:b + W] = Ax - rho[:, None] * x
            s2 = np.einsum("ia,ia->i", R, R) / xx
            s = np.sqrt(s2)
            lo, hi = rho - s, rho + s
            apart = lo[1:] > hi[:-1]
            apart[ends] = True
            if not np.all(apart):
                continue
            below, above = rho[1:] - hi[:-1], lo[1:] - rho[:-1]
            below[ends] = above[ends] = np.inf
            # max_i s_i^2 / min(below_i, above_i)
            kato_temple = max(float(np.max(s2[1:] / below, initial=0.0)),
                              float(np.max(s2[:-1] / above, initial=0.0)))
            if kato_temple <= budget:
                lam = np.empty(n)
                lam[j] = rho
                return lam, kato_temple
    return None


# ---------------------------------------------------------------------------
# divisor roots
# ---------------------------------------------------------------------------

def _divisor(eps2: Array, k: Array, lam: Array) -> Array:
    return -k**2 + 1.0 / (1.0 + eps2) + eps2 * lam


def _positive_roots_y(k: Array, lam: Array) -> Array:
    """Positive root in y = eps^2 of lam*y^2 + (lam - k^2) y + (1 - k^2) = 0.

    Returns NaN where lam <= 0 (no positive root).  Stable quadratic formula
    plus three Newton polish steps on the defining equation.
    """
    k = np.asarray(k, dtype=float)
    lam = np.asarray(lam, dtype=float)
    a, b, c = lam, lam - k**2, 1.0 - k**2
    # over: for tiny lam the root y ~ k^2/lam makes (1 + y)^2 overflow to
    # inf, and the 1/(1 + y)^2 = 0 that follows is the right limit
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
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


def _centers(spectrum: HillSpectrum, k: Array, j: Array) -> Array:
    """eps_{k,j} elementwise (NaN without a positive root)."""
    with np.errstate(invalid="ignore"):
        return np.sqrt(_positive_roots_y(k, spectrum.lambda_at(j)))


def epsilon_kj(k: int, j: int, spectrum: HillSpectrum) -> float | None:
    """Positive root eps_{k,j} of the divisor equation, or None if absent.

    `_centers`, the formula the divisor table and the resonance search
    use; for k <= 8 the result satisfies the defining equation to better
    than 1e-13.
    """
    if k < 2:
        raise ValueError("spatial wavenumbers start at k = 2")
    if j < 0:
        raise ValueError("j must be nonnegative")
    eps = float(_centers(spectrum, float(k), j)[0])
    return None if np.isnan(eps) else eps


# ---------------------------------------------------------------------------
# the divisor table and resonance queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorTable:
    """Resonance centers eps_{k,j} for 2 <= k <= K_max, 1 <= j <= J_max.

    Building the table only records its extent; ``eps[k_index, j-1]``, the
    root for k = k_values[k_index] (NaN for pairs without a positive root),
    is tabulated on first use.  `is_resonant` never tabulates it.
    """

    spectrum: HillSpectrum
    K_max: int
    J_max: int

    @classmethod
    def build(cls, spectrum: HillSpectrum, K_max: int, J_max: int) -> "DivisorTable":
        if K_max < 2:
            raise ValueError("K_max must be >= 2")
        return cls(spectrum=spectrum, K_max=K_max, J_max=J_max)

    @property
    def k_values(self) -> Array:
        return np.arange(2, self.K_max + 1)

    @cached_property
    def eps(self) -> Array:
        K, J = np.meshgrid(self.k_values.astype(float),
                           np.arange(1, self.J_max + 1), indexing="ij")
        return _centers(self.spectrum, K, J)

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


def _crossing(eps: float, ks: Array, spectrum: HillSpectrum, J_max: int) -> Array:
    """Per k, j* = #{1 <= j <= J_max : lambda_j < lambda*(k, eps)}.

    Centers decrease in j and eps_{k,j} > eps exactly when lambda_j is below
    lambda* = (k^2 - 1/(1 + eps^2)) / eps^2, so the nearest centers are
    j* and j* + 1.  Computed eigenvalues are searched; past the computed
    truncation the asymptotic formula of `HillSpectrum.lambda_at` is
    inverted.
    """
    lam_star = (ks**2 - 1.0 / (1.0 + eps**2)) / eps**2
    J_in = min(spectrum.J_max, J_max)
    j_star = np.searchsorted(spectrum.eigenvalues[1:J_in + 1], lam_star)
    if J_max > J_in:
        with np.errstate(invalid="ignore"):
            x = spectrum.period / (2.0 * np.pi) * np.sqrt(lam_star - spectrum.q_mean)
        beyond = np.clip(np.ceil(np.nan_to_num(x)) - 1.0 - J_in, 0, J_max - J_in)
        j_star = np.where(j_star == J_in, j_star + beyond.astype(int), j_star)
    return j_star


def is_resonant(eps: float, params: ResonanceParams,
                table: DivisorTable) -> ResonanceReport:
    """Window membership of eps, with the nearest window for context.

    Searches each k instead of tabulating: centers eps_{k,j} decrease and
    halfwidths k^alpha / j^l shrink in j, so only the j around the crossing
    j* (`_crossing`) can matter.  Exact centers are evaluated on
    j* - w < j <= j* + w, which must hold the crossing, and two monotone
    bounds rule out the rest: above the window eps - eps_{k,j} grows while
    the halfwidth shrinks, and a dyadic block a <= j <= b below it is out
    when eps_{k,b} - eps is at least the halfwidth at a.  Where a check
    fails, w doubles for that k.  The report equals the one read off the
    full table.

    Every k of the table is searched.  Raises `CoverageError` when the
    table cannot certify the answer (query below the tabulated centers for
    some k): guessing here would silently break solver preconditions.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    ks = np.arange(2, table.K_max + 1)
    spectrum, J = table.spectrum, table.J_max

    def halfwidth(k, j):
        return k**params.alpha * (1.0 / j.astype(float)**params.l)

    j_star = _crossing(eps, ks.astype(float), spectrum, J)
    blocks = 2 ** np.arange(int(np.log2(J)) + 1)      # dyadic blocks [a, 2a - 1]
    found = []          # (k, j, center) on the window of each settled k
    todo, w = np.arange(ks.shape[0]), 2
    while todo.size:
        k = ks[todo, None].astype(float)
        win = j_star[todo, None] + np.arange(1 - w, w + 1)
        b = np.minimum(2 * blocks - 1, np.maximum(win[:, :1], 1) - 1)
        c = _centers(spectrum, k, np.hstack([np.clip(win, 1, J), b,
                                             np.full(k.shape, J)]))
        c_win, c_b = c[:, :2 * w], c[:, 2 * w:-1]
        if w == 2:
            # first round, every k: the coverage floor is the j = J_max
            # center plus its halfwidth
            floor = np.where(np.isfinite(c[:, -1]),
                             c[:, -1] + k[:, 0]**params.alpha / float(J)**params.l, 0.0)
            if np.any(eps <= floor):
                raise CoverageError(
                    f"eps = {eps:.6g} at or below certified floor for k in "
                    f"{ks[eps <= floor].tolist()}; extend J_max beyond {J}")
        with np.errstate(invalid="ignore"):
            above = (win[:, -1] >= J) | (eps - c_win[:, -1] >= halfwidth(k[:, 0], win[:, -1]))
            below = (blocks > b) | np.isnan(c_b) | (c_b - eps >= halfwidth(k, blocks))
        # the window must hold the crossing for its nearest center to be
        # the nearest of all (a center without a root counts as above eps)
        holds = (win[:, 0] <= 1) | ~(c_win[:, 0] < eps)
        ok = holds & above & np.all(below, axis=1)
        keep = (win >= 1) & (win <= J) & ok[:, None]
        found.append((np.broadcast_to(ks[todo, None], win.shape)[keep], win[keep],
                      c_win[keep]))
        todo, w = todo[~ok], 2 * w
    K, Jw, centers = (np.concatenate(x) for x in zip(*found))
    order = np.argsort(K, kind="stable")
    good = order[np.isfinite(centers[order])]
    K, Jw, centers = K[good], Jw[good], centers[good]
    halfw = halfwidth(K.astype(float), Jw)
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
                           nearest_k=int(K[idx]), nearest_j=int(Jw[idx]),
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


def _linear_fit(x: Array, y: Array) -> tuple[float, float]:
    """Least-squares slope and R^2 of y against x, computed as
    `scipy.stats.linregress` does (R^2 nan for a constant y); nan and nan
    for fewer than two points or a constant x."""
    if len(x) < 2 or np.ptp(x) == 0.0:
        return math.nan, math.nan
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return float(ssxym / ssxm), float(r**2)


def measure_exponent_fit(table: DivisorTable, params: ResonanceParams,
                         eps0_list) -> tuple[float, float]:
    """Log-log slope and R^2 of window-union measure against eps0."""
    eps0 = np.asarray(sorted(eps0_list), dtype=float)
    meas = np.array([window_measure(table, params, e) for e in eps0])
    if np.any(meas <= 0.0):
        raise ValueError("window measure vanished; enlarge the table")
    return _linear_fit(np.log(eps0), np.log(meas))


def divisor_min(eps: float, k: int, spectrum: HillSpectrum) -> tuple[float, int]:
    """Minimum over j of |D(k, j; eps)| and its argmin.

    Scans j up to the cap 2k/eps + 16, which safely brackets the minimizer
    since divisors grow like eps^2 j^2 beyond j ~ k/eps.
    """
    cap_f = 2.0 * k / max(eps, 1e-6) * max(1.0, spectrum.period / (2.0 * np.pi))
    j_cap = int(min(cap_f, 2e6)) + 16
    js = np.arange(j_cap + 1)
    lam = spectrum.lambda_at(js)
    vals = np.abs(_divisor(np.full(js.shape, eps**2), np.full(js.shape, float(k)), lam))
    j_min = int(np.argmin(vals))
    return float(vals[j_min]), j_min
