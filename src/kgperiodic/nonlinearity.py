"""Analytic odd nonlinearities and their rescaled collocation.

A model is an odd series ``f(u) = sum_m c[2m+1] u^(2m+1)`` starting at the
cubic term (``f'(0) = 0`` and ``f'''(0) = 6 c3 != 0``).  The rescaled
quantities divide out the amplitude scaling:

* ``scaled_eval(y, eps)  = f(eps y) / eps^3``
* ``scaled_deriv(y, eps) = f'(eps y) / eps^2``
* ``scaled_antideriv(y, eps) = F(eps y) / eps^4`` with ``F' = f``, ``F(0)=0``

each computed directly from the series in powers of ``(eps y)^2``, which is
finite and smooth down to ``eps = 0`` (no catastrophic cancellation at any
epsilon).  Each call sums only the leading terms a double can see: at the
sampled amplitude r = max|eps y| it keeps the fewest K terms whose dropped
tail sum_{n>=K} |c_n| r^(2n) is at most 2^-64 of sum_{n<K} |c_n| r^(2n),
far below Horner's own rounding error.  The rule is applied on each call
(`_leading`); a model keeps only coefficient tuples.  Non-finite
samples, and samples past the trust radius, raise `TrustRadiusError`; a
model with a non-finite coefficient or trust radius, or whose series
overflows at the trust radius, is refused with `ValueError`.

`collocate` samples the rescaled forcing of the slow/fast system and its
w-derivative, the multiplier,

* order 0: ``-(1/omega^2) scaled_eval(xi, eps)``
* order 1: ``-(1/omega^2) scaled_deriv(xi, eps)``

at ``xi = v sin x + w`` on the uniform x grid, with ``omega^2 = 1 + eps^2``.
Every forcing of the pipeline is one `collocate` call followed by the sin-x
projection pair of `fourier`: ``project_P`` gives the slow forcing f~ (the
part along sin x), ``project_Q`` the fast forcing g (the part orthogonal to
it).  The x-mean of the multiplier at w = 0 is the Hill potential of the
small divisors; `Nonlinearity.scaled_deriv_x_mean` sums it exactly, with
the x-means C(2n, n)/4^n of sin^(2n) x folded into the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, isfinite

import numpy as np
from numpy.typing import NDArray

from .fourier import sin_synthesis_matrix

Array = NDArray[np.float64]

__all__ = ["Nonlinearity", "TrustRadiusError", "collocate"]


class TrustRadiusError(ValueError):
    """Argument outside the region where the series truncation is certified."""


# Relative size of the dropped tail at which a series stops: far below the
# 2 K 2^-53 rounding error of a K-term Horner evaluation.
_TAIL_TOL = 2.0**-64
_SINE_GORDON_TERMS = 12   # odd Taylor terms u^3 .. u^25 of u - sin(u)


def _terms(coeffs, z: float) -> list[float]:
    """|c_n| z^n by a running product, so that an overflow gives inf."""
    terms, power = [], 1.0
    for c in coeffs:
        terms.append(abs(c) * power)
        power *= z
    return terms


def _leading(coeffs, z: float):
    """The fewest leading coefficients of sum_n c_n z^n whose dropped tail
    sum_{n>=K} |c_n| z^n is at most ``_TAIL_TOL`` of the kept sum.  The
    tail grows from the last term; a non-finite sum keeps every term."""
    terms = _terms(coeffs, z)
    total, tail, K = sum(terms), 0.0, len(terms)
    while K > 1 and isfinite(total):
        tail += terms[K - 1]
        if not tail <= _TAIL_TOL * (total - tail):
            break
        K -= 1
    return coeffs[:K]


@dataclass(frozen=True)
class Nonlinearity:
    """Odd analytic nonlinearity given by its Taylor coefficients.

    Parameters
    ----------
    name : str
        Identifier used in configs and reports.
    odd_coeffs : tuple of float
        Coefficients (c3, c5, c7, ...) of u^3, u^5, u^7, ...
    trust_radius : float
        Largest |u| at which the truncation error is certified below 1e-12.
    """

    name: str
    odd_coeffs: tuple[float, ...]
    trust_radius: float

    def __post_init__(self):
        if len(self.odd_coeffs) == 0 or self.odd_coeffs[0] == 0.0:
            raise ValueError("the cubic coefficient c3 must be nonzero")
        r = self.trust_radius
        if not all(isfinite(c) for c in (*self.odd_coeffs, r)):
            raise ValueError("odd_coeffs and trust_radius must be finite")
        if not r > 0:
            raise ValueError("trust_radius must be positive")
        # the derivative's terms bound those of the other three series
        if not isfinite(sum(_terms(self._scaled_deriv_coeffs, r * r))):
            raise ValueError(f"the series overflows a double at trust_radius {r}")

    # -- constructors -------------------------------------------------------
    @classmethod
    def phi4(cls) -> "Nonlinearity":
        """f(u) = u^3."""
        return cls("phi4", (1.0,), trust_radius=10.0)

    @classmethod
    def sine_gordon(cls) -> "Nonlinearity":
        """f(u) = u - sin(u); truncation error below 1e-12 for |u| <= 3."""
        coeffs = tuple((-1.0) ** (m + 1) / factorial(2 * m + 1)
                       for m in range(1, _SINE_GORDON_TERMS + 1))
        return cls("sine-gordon", coeffs, trust_radius=3.0)

    @classmethod
    def from_spec(cls, spec: dict) -> "Nonlinearity":
        """Build a model from a config mapping.

        Accepted forms: {"model": "sine-gordon"}, {"model": "phi4"},
        {"model": "custom", "odd_coeffs": [c3, c5, ...], "trust_radius": r}.
        """
        kind = spec.get("model")
        allowed = {"model", "odd_coeffs", "trust_radius"} if kind == "custom" \
            else {"model"}
        unknown = sorted(set(spec) - allowed)
        if unknown:
            raise ValueError(f"unknown model spec fields: {', '.join(unknown)}")
        if kind == "sine-gordon":
            return cls.sine_gordon()
        if kind == "phi4":
            return cls.phi4()
        if kind == "custom":
            coeffs = tuple(float(c) for c in spec.get("odd_coeffs", ()))
            radius = float(spec.get("trust_radius", 1.0))
            return cls("custom", coeffs, trust_radius=radius)
        raise ValueError(f"unknown model spec: {spec!r}")

    # -- basic evaluation ----------------------------------------------------
    @property
    def f3(self) -> float:
        """Third derivative at the origin, 6 * c3."""
        return 6.0 * self.odd_coeffs[0]

    def _check_domain(self, u: Array) -> float:
        """max|u|; raises unless it is finite and within the trust radius."""
        r = float(np.abs(u).max())
        if not isfinite(r):
            raise TrustRadiusError(f"non-finite sample for model {self.name}")
        if r > self.trust_radius:
            raise TrustRadiusError(
                f"|u| = {r:.3g} exceeds trust radius {self.trust_radius:.3g}"
                f" of model {self.name}")
        return r

    def _series(self, y: Array | float, eps: float,
                coeffs) -> tuple[Array, Array | float]:
        """y as an array and sum_m coeffs[m] (eps*y)^(2m), by Horner's rule
        over the terms that suffice at max|eps*y|."""
        y = np.asarray(y, dtype=float)
        ey = eps * y
        r = self._check_domain(ey)
        z = ey * ey
        coeffs = _leading(coeffs, r * r)
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * z + c
        return y, acc

    # the coefficients of each evaluation, formed once per model
    @cached_property
    def _scaled_deriv_coeffs(self) -> tuple[float, ...]:
        return tuple((2 * m + 3) * c for m, c in enumerate(self.odd_coeffs))

    @cached_property
    def _deriv_x_mean_coeffs(self) -> tuple[float, ...]:
        # scaled_deriv's coefficients times the x-means of sin^(2m+2) x,
        # C(2m+2, m+1) / 4^(m+1)
        return tuple((2 * m + 3) * c * (comb(2 * m + 2, m + 1) / 4 ** (m + 1))
                     for m, c in enumerate(self.odd_coeffs))

    @cached_property
    def _antideriv_coeffs(self) -> tuple[float, ...]:
        return tuple(c / (2 * m + 4) for m, c in enumerate(self.odd_coeffs))

    def eval(self, u: Array | float):
        """f(u) by Horner evaluation of the odd series."""
        u, acc = self._series(u, 1.0, self.odd_coeffs)
        out = acc * (u * u) * u
        return float(out) if out.ndim == 0 else out

    # -- rescaled forms (finite at eps = 0) ----------------------------------
    def scaled_eval(self, y: Array | float, eps: float):
        """f(eps*y)/eps^3 = y^3 * sum_m c_{2m+1} (eps*y)^(2m-2)."""
        y, acc = self._series(y, eps, self.odd_coeffs)
        out = acc * (y * y * y)
        return float(out) if out.ndim == 0 else out

    def scaled_deriv(self, y: Array | float, eps: float):
        """f'(eps*y)/eps^2 = y^2 * sum_m (2m+1) c_{2m+1} (eps*y)^(2m-2)."""
        y, acc = self._series(y, eps, self._scaled_deriv_coeffs)
        out = acc * y**2
        return float(out) if out.ndim == 0 else out

    def scaled_deriv_x_mean(self, y: Array | float, eps: float):
        """x-mean of scaled_deriv(y sin x, eps), exactly:
        y^2 * sum_m (2m+1) c_{2m+1} C(2m, m)/4^m (eps*y)^(2m-2)."""
        y, acc = self._series(y, eps, self._deriv_x_mean_coeffs)
        out = acc * y**2
        return float(out) if out.ndim == 0 else out

    def scaled_antideriv(self, y: Array | float, eps: float):
        """F(eps*y)/eps^4 with F' = f: y^4 * sum_m c_{2m+1} (eps*y)^(2m-2)/(2m+2)."""
        y, acc = self._series(y, eps, self._antideriv_coeffs)
        out = acc * y**4
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the collocated forcing
# ---------------------------------------------------------------------------

def collocate(model: Nonlinearity | None, eps: float, v: Array | float,
              w_values: Array | None, M_x: int, order: int = 0) -> Array:
    """Samples of -(1/omega^2) f^(order)(eps xi)/eps^(3-order), xi = v sin x + w.

    ``v`` is one tau-slice (a scalar; result shape (M_x,)) or a vector of
    tau samples (result shape (M_tau, M_x)); ``w_values`` are samples of w
    on the same grid (None = 0).  ``order`` 0 gives the forcing, 1 its
    w-derivative multiplier.  ``model=None`` is a test hook that suppresses
    the nonlinearity (zeros).
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    xi = np.multiply.outer(v, sin_synthesis_matrix(M_x, 1)[:, 1])
    if model is None:
        return np.zeros_like(xi)
    if w_values is not None:
        xi += w_values
    vals = model.scaled_eval(xi, eps) if order == 0 else model.scaled_deriv(xi, eps)
    return (-1.0 / (1.0 + eps**2)) * vals

