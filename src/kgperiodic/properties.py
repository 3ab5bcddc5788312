"""Deterministic self-check battery shared by the CLI and the test suite.

Each check exercises one structural property of the pipeline on seeded
random inputs (or on exact closed-form cases) and reports a pass/fail row.
The battery is pure and reproducible: a fixed seed yields byte-identical
results across runs and platforms with the same BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .divisors import DivisorTable, HillSpectrum
from .fourier import (
    SpaceTimeField,
    invert_J_eps,
    j_eps_symbol,
    multiply_to_even,
    project_P,
    project_Q,
    sin_synthesis_matrix,
    x_grid,
)
from .nonlinearity import Nonlinearity, collocate

# Frozen empirical bound for the tame product ratio
#   |u1*u2|_sbar / (|u1|_s |u2|_sbar + |u1|_sbar |u2|_s)
# with s = 1, sbar = 8.  Measured max over seeded random-field batches
# (several seeds, bands up to 16x20, decays 1.5-2.5) is 4.92; the frozen
# bound below carries a +60% margin and is stable under field refreshes.
TAME_C = 8.0
_TAME_S, _TAME_SBAR = 1.0, 8.0

# The battery's random fields: period, band and coefficient decay exponent
_FIELD_PERIOD = 6.0
_FIELD_N_TAU, _FIELD_N_X = 10, 12
_FIELD_DECAY = 2.0
# The forcing-oddness draws: sine band of w, x samples and Q band
_ODD_N_X, _ODD_M_X, _ODD_N_Q = 5, 60, 8

DEFAULT_SEED = 20260826


@dataclass(frozen=True)
class PropertyResult:
    """One pass/fail row of the battery."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def random_field(rng: np.random.Generator) -> SpaceTimeField:
    """Seeded random field with polynomially decaying coefficients."""
    j = np.arange(_FIELD_N_TAU + 1.0)[:, None]
    k = np.arange(_FIELD_N_X + 1.0)[None, :]
    scale = (1.0 + j) ** (-_FIELD_DECAY) * np.maximum(k, 1.0) ** (-_FIELD_DECAY)
    coeffs = rng.standard_normal((_FIELD_N_TAU + 1, _FIELD_N_X + 1)) * scale
    coeffs[:, :2] = 0.0  # Q-space: no constant or sin(x) columns
    return SpaceTimeField(period=_FIELD_PERIOD, coeffs=coeffs)


def check_j_bound() -> PropertyResult:
    """Mode-wise inverse of J_eps stays <= 2 for k = 2..1000, eps in [0, 0.5]."""
    k = np.arange(2, 1001, dtype=float)[:, None]
    eps = np.linspace(0.0, 0.5, 251)[None, :]
    sup = float(np.max(1.0 / np.abs(1.0 / (1.0 + eps**2) - k**2)))
    ok = sup <= 2.0
    return PropertyResult("j_eps_inverse_bound", ok,
                          f"sup |J^-1 symbol| = {sup:.6f} (bound 2, exact)")


def check_projection_lp1(fields: list[SpaceTimeField]) -> PropertyResult:
    """|Pi_N h|_{m2} <= N^(m2-m1) |h|_{m1} on random fields."""
    worst = 0.0
    combos = [(0.0, 1.0, 3), (1.0, 3.0, 5), (0.5, 2.5, 4), (1.0, 8.0, 7)]
    for h in fields:
        for m1, m2, N in combos:
            lhs = h.pi_N(N).norm(m2)
            rhs = N ** (m2 - m1) * h.norm(m1)
            if rhs > 0:
                worst = max(worst, lhs / rhs)
    ok = worst <= 1.0 + 1e-12
    return PropertyResult("projection_lp1", ok,
                          f"max ratio |Pi_N h|_m2 / (N^(m2-m1)|h|_m1) = {worst:.6f}")


def check_projection_lp2(fields: list[SpaceTimeField]) -> PropertyResult:
    """|h - Pi_N h|_{m1} <= N^(m1-m2) |h|_{m2} on random fields."""
    worst = 0.0
    combos = [(0.0, 1.0, 3), (1.0, 3.0, 5), (0.5, 2.5, 4), (1.0, 8.0, 7)]
    for h in fields:
        for m1, m2, N in combos:
            lhs = (h - h.pi_N(N)).norm(m1)
            rhs = N ** (m1 - m2) * h.norm(m2)
            if rhs > 0:
                worst = max(worst, lhs / rhs)
    ok = worst <= 1.0 + 1e-12
    return PropertyResult("projection_lp2", ok,
                          f"max ratio |(1-Pi_N)h|_m1 / (N^(m1-m2)|h|_m2) = {worst:.6f}")


def check_norm_monotone(fields: list[SpaceTimeField]) -> PropertyResult:
    """s1 <= s2 implies |h|_{s1} <= |h|_{s2} (modes have k >= 2)."""
    worst = 0.0
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    for h in fields:
        ns = [h.norm(s) for s in grid]
        for a, b in zip(ns, ns[1:]):
            if b > 0:
                worst = max(worst, a / b)
    ok = worst <= 1.0 + 1e-12
    return PropertyResult("norm_monotone_in_s", ok,
                          f"max |h|_s1/|h|_s2 over s1<s2 = {worst:.6f}")


def check_tame_product(fields: list[SpaceTimeField]) -> PropertyResult:
    """|u1 u2|_sbar <= C (|u1|_s |u2|_sbar + |u1|_sbar |u2|_s), frozen C."""
    s, sbar = _TAME_S, _TAME_SBAR
    worst = 0.0
    for u1, u2 in zip(fields[::2], fields[1::2]):
        prod = multiply_to_even(u1, u2)
        denom = (u1.norm(s) * u2.norm(sbar) + u1.norm(sbar) * u2.norm(s))
        if denom > 0:
            worst = max(worst, prod.norm(sbar) / denom)
    ok = worst <= TAME_C
    return PropertyResult("tame_product_bound", ok,
                          f"max tame ratio = {worst:.6f} (frozen C = {TAME_C})")


def check_divisor_equation() -> PropertyResult:
    """Tabulated eps_kj satisfy -k^2 + 1/(1+eps^2) + eps^2 lam_j = 0 to 1e-12."""
    spectrum = HillSpectrum.flat(2.0 * np.pi, 300)
    table = DivisorTable.build(spectrum, K_max=6, J_max=300)
    lam = spectrum.lambda_at(np.arange(1, table.J_max + 1))[None, :]
    k = table.k_values.astype(float)[:, None]
    with np.errstate(invalid="ignore"):
        res = np.abs(-(k**2) + 1.0 / (1.0 + table.eps**2) + table.eps**2 * lam)
    good = np.isfinite(table.eps)
    worst = float(np.max(res[good]))
    n_roots = int(np.count_nonzero(good))
    ok = worst <= 1e-12 and n_roots > 0
    return PropertyResult("divisor_defining_equation", ok,
                          f"max residual = {worst:.3e} over {n_roots} roots")


def check_json_roundtrip(fields: list[SpaceTimeField]) -> PropertyResult:
    """Field -> JSON -> field is exact (shortest round-trip decimals)."""
    bad = 0
    for h in fields[:50]:
        back = SpaceTimeField.from_json_dict(json.loads(json.dumps(h.to_json_dict())))
        if back.period != h.period or not np.array_equal(back.coeffs, h.coeffs):
            bad += 1
    return PropertyResult("field_json_roundtrip", bad == 0,
                          f"{bad} mismatches over 50 round-trips (exact equality)")


def check_pq_identity() -> PropertyResult:
    """P(sin^3 x) = 3/4 and Q(sin^3 x) = -(1/4) sin 3x."""
    x = x_grid(64)
    g = np.sin(x) ** 3
    p = float(project_P(g))
    q = project_Q(g, N_x=5)
    expect = np.zeros(6)
    expect[3] = -0.25
    err = max(abs(p - 0.75), float(np.max(np.abs(q - expect))))
    ok = err <= 1e-14
    return PropertyResult("pq_projection_identity", ok,
                          f"sin^3 x split error = {err:.3e} (P=3/4, Q=-sin3x/4)")


def check_j_inverse_identity(rng: np.random.Generator) -> PropertyResult:
    """J_eps^-1 divides by `j_eps_symbol`: symbol * (J_eps^-1 w) = w on
    random spatial (one-row) fields, at a random eps in [0, 0.5) and at
    eps = 0, 0.1 and 0.5."""
    k = np.arange(10)
    worst = 0.0
    for _ in range(50):
        coeffs = rng.standard_normal(10)
        coeffs[:2] = 0.0
        w = SpaceTimeField(period=_FIELD_PERIOD, coeffs=coeffs[None, :])
        for eps in (float(rng.uniform(0.0, 0.5)), 0.0, 0.1, 0.5):
            back = j_eps_symbol(k, eps) * invert_J_eps(w, eps).coeffs
            worst = max(worst, float(np.max(np.abs(back - w.coeffs))))
    ok = worst <= 1e-13
    return PropertyResult("j_eps_inverse_identity", ok,
                          f"max |J(J^-1 w) - w| = {worst:.3e}")


def check_forcing_oddness(rng: np.random.Generator) -> PropertyResult:
    """The slow and fast forcings f~ = P and g = Q of `collocate` are
    jointly odd in (v, w)."""
    S = sin_synthesis_matrix(_ODD_M_X, _ODD_N_X)
    worst = 0.0
    for model in (Nonlinearity.sine_gordon(), Nonlinearity.phi4()):
        for _ in range(10):
            v = float(rng.uniform(-1.0, 1.0))
            coeffs = 0.1 * rng.standard_normal(_ODD_N_X + 1)
            coeffs[:2] = 0.0
            w_values = S @ coeffs
            eps = float(rng.uniform(0.01, 0.3))
            plus = collocate(model, eps, v, w_values, _ODD_M_X)
            minus = collocate(model, eps, -v, -w_values, _ODD_M_X)
            worst = max(worst, abs(project_P(plus) + project_P(minus)),
                        float(np.max(np.abs(project_Q(plus, _ODD_N_Q)
                                            + project_Q(minus, _ODD_N_Q)))))
    ok = worst <= 1e-12
    return PropertyResult("forcing_oddness", ok,
                          f"max |T(v,w) + T(-v,-w)| = {worst:.3e}")


def run_all(seed: int = DEFAULT_SEED, n_fields: int = 1000) -> list[PropertyResult]:
    """Run the full battery and return one result row per property."""
    rng = np.random.default_rng(seed)
    fields = [random_field(rng) for _ in range(n_fields)]
    return [
        check_j_bound(),
        check_projection_lp1(fields),
        check_projection_lp2(fields),
        check_norm_monotone(fields),
        check_tame_product(fields),
        check_divisor_equation(),
        check_json_roundtrip(fields),
        check_pq_identity(),
        check_j_inverse_identity(rng),
        check_forcing_oddness(rng),
    ]
