"""The linearization L of the fast residual F, and the nested-truncation solve.

The fast component solves

    F(w) = (J_eps - eps^2 d_tautau) w + eps^2 g(V, w, eps) = 0

(`normalform.assemble_F`) over fields in span{cos(2 pi j tau / p) sin(k x),
k >= 2}.  Starting from the averaging stage's field, the solver walks a
nested sequence of spatial truncations N_1 < N_2 < ... (each stage a damped
Newton iteration on the truncated system).  Its report, the conditioning of
each stage and a certificate of the final residual, F re-evaluated on the
field zero-padded to twice its band so that the truncation tail shows, is
built when first read.

F and L keep the symmetry class of fields with odd j and odd k, and the
Newton unknowns are its coefficients (`_pack`).  L is applied matrix-free
on quarter-wave grids; it is block-diagonal in sin(k x) up to an O(eps^2)
coupling, each block a Hill operator in tau, and the inverse of the
class's blocks preconditions a Richardson iteration.  The reported
conditioning covers the full space.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from numpy.typing import NDArray

from .divisors import (DivisorTable, ResonanceError, ResonanceParams,
                       averaged_potential, hill_eigs, is_resonant,
                       multiplication_matrix)
from .fourier import SpaceTimeField, check_class, quarter_wave
from .nonlinearity import Nonlinearity, collocate
from .normalform import (AveragedStart, _grids, _linear_symbol, assemble_F,
                         nf_sequence)
from .planar import VTrajectory, find_orbit

Array = NDArray[np.float64]

__all__ = [
    "SolverConfig",
    "SolverRun",
    "StageRecord",
    "InversionReport",
    "LinearizedOperator",
    "NonConvergenceError",
    "FITTED_C",
    "SIGMA",
    "BAR_S",
    "validate_eps",
    "check_admissible",
    "schedule_for",
    "assemble_F",
    "nash_moser_solve",
    "sigma_min_law_samples",
]

# Empirical lower constant of the inverse-norm law sigma_min >= C eps^(l-1)/N^gamma,
# fitted once over a seeded non-resonant sample set and then frozen.  The
# `sigma_min_law_samples` battery (sine-Gordon, a = 0.9, N = 6, 50 draws from
# eps in [0.05, 0.2], seed 2026) measures law constants in [2.41, 6.74]; the
# frozen value keeps a ~17% margin below the observed minimum.
FITTED_C = 2.0

# Relative residual target of the block-preconditioned Richardson solve.
SOLVE_RTOL = 1e-14

# Sobolev exponents of the admissibility hypotheses; no computation uses
# them, they only bound the resonance exponents (`check_admissible`).
SIGMA = 3.0
BAR_S = 8.0

# Hill eigenvalues the resonance gate solves beyond its divisor table: the
# top few eigenvalues of a Galerkin truncation are the inaccurate ones.
_HILL_MARGIN = 16
_J_HILL = 400              # the gate's Hill solve stops here regardless
_SOLVE_STEPS = 200         # cap on the preconditioned steps of one solve
_SOBOLEV_S = 1.0           # index s of the residual and increment norms
_LAW_AMPLITUDE = 0.9       # the `sigma_min_law_samples` battery: orbit,
_LAW_N = 6                 # spatial truncation N,
_LAW_EPS = (0.05, 0.2)     # eps range,
_LAW_N_TRAJ = 256          # and tau samples of the orbit


def validate_eps(eps: float) -> float:
    """eps as a float; `ValueError` unless it is finite and in (0, 1)."""
    try:
        eps = float(eps)
    except OverflowError:       # an integer past the double range
        raise ValueError("eps must be a finite number in (0, 1), got an "
                         "integer past the double range") from None
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be a finite number in (0, 1), got {eps!r}")
    return eps


def check_admissible(params: ResonanceParams) -> None:
    """`ValueError` unless sigma > gamma + l and bar_s > 4 gamma + 2 sigma."""
    g = params.gamma
    if not (SIGMA > g + params.l and BAR_S > 4 * g + 2 * SIGMA):
        raise ValueError(
            f"resonance exponents alpha = {params.alpha:g}, l = {params.l:g} "
            f"are not admissible: need sigma = {SIGMA:g} > gamma + l and "
            f"bar_s = {BAR_S:g} > 4 gamma + 2 sigma (gamma = {g:g})")


class NonConvergenceError(RuntimeError):
    """Newton failed to reach the stage tolerance; carries the stage history."""

    def __init__(self, message: str, stages=()):
        super().__init__(message)
        self.stages = tuple(stages)


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters; invariants mirror the admissibility hypotheses."""

    resonance: ResonanceParams = field(default_factory=ResonanceParams)
    schedule: tuple[int, ...] | None = None
    residual_tol: float = 1e-10
    max_stage_iters: int = 12
    N_cap: int = 64
    N_tau: int | None = None
    N_tau_cap: int = 40
    nf_steps: int = 2

    def __post_init__(self):
        check_admissible(self.resonance)
        if self.N_cap < 2:
            raise ValueError(f"N_cap must be >= 2 (Q-space starts at k = 2), "
                             f"got {self.N_cap}")
        if self.schedule is not None:
            sched = tuple(int(n) for n in self.schedule)
            if any(n < 2 for n in sched) or any(
                    b <= a for a, b in zip(sched, sched[1:])):
                raise ValueError("schedule must be increasing with N >= 2")
            object.__setattr__(self, "schedule", sched)


def schedule_for(eps: float, config: SolverConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(requested, effective) truncation sequences for this eps.

    Requested follows N_1 = floor((1/eps + 1/eps^2)/2), N_{i+1} = N_i^2; the
    effective schedule caps every entry at N_cap (the uncapped values explode
    for small eps) and drops repeats.  Both are reported for honesty.
    """
    if config.schedule is not None:
        return config.schedule, config.schedule
    n1 = int(math.floor(0.5 * (1.0 / eps + 1.0 / eps**2)))
    n1 = max(n1, 3)
    requested = [n1]
    while requested[-1] < config.N_cap and len(requested) < 6:
        requested.append(requested[-1] ** 2)
    effective = []
    for n in requested:
        n = min(n, config.N_cap)
        if not effective or n > effective[-1]:
            effective.append(n)
    return tuple(requested), tuple(effective)


def _default_N_tau(traj: VTrajectory, config: SolverConfig) -> int:
    if config.N_tau is not None:
        return config.N_tau
    c = np.abs(traj.cos_coeffs)
    scale = c.max()
    sig = np.nonzero(c > 1e-13 * scale)[0]
    j_dec = int(sig[-1]) if sig.size else 1
    return int(min(config.N_tau_cap, max(24, math.ceil(1.3 * j_dec))))


# ---------------------------------------------------------------------------
# packing between fields and solve vectors (orthonormal temporal coordinates)
# ---------------------------------------------------------------------------

def _pack(coeffs: Array, N: int) -> Array:
    """The class coefficients of a field, odd j and odd 3 <= k <= N."""
    return coeffs[1::2, 3:N + 1:2].ravel()


def _unpack(vec: Array, period: float, N: int, N_tau: int,
            full_K: int) -> SpaceTimeField:
    coeffs = np.zeros((N_tau + 1, full_K + 1))
    coeffs[1::2, 3:N + 1:2] = vec.reshape((N_tau + 1) // 2, (N - 1) // 2)
    return SpaceTimeField(period=period, coeffs=coeffs)


# ---------------------------------------------------------------------------
# the linearization L
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionReport:
    """Conditioning of one truncated linearization.

    ``sigma_min`` is the smallest |eigenvalue| of the Hill blocks, and the
    smallest singular value of L lies within ``sigma_radius`` of it;
    ``sigma_min_class`` >= it and ``size`` are the class's (odd j, odd k).
    """

    sigma_min: float
    sigma_radius: float
    N: int
    size: int
    eps: float
    law_constant: float       # sigma_min * N^gamma / eps^(l-1)
    ratio_vs_fit: float       # law_constant / FITTED_C, expected >= 1
    sigma_min_class: float


class LinearizedOperator:
    """L = J_eps + eps^2(-d_tautau + D_w g) at w, truncated to k <= N.

    V and w lie in the symmetry class (`check_class`), which L keeps, so
    vectors run over odd j <= N_tau (w's band) and odd 3 <= k <= N, as in
    `_pack`.  `apply` is matrix-free on the `_grids` quarter-wave nodes of
    (N, N_tau): synthesize (DCT-IV in tau, DST-IV in x), multiply by the
    multiplier m, analyze; a build that only reports (the law battery, a
    zero-step stage) never makes its tau table.

    m is even with period p/2 in tau and period pi in x, so its 2-d cosine
    coefficients vanish at odd n or odd p, and ``cos_coeffs`` holds the
    others, c[2h, 2q] of eps^2 m, by DCT-II.  The conditioning covers the
    full space: as sin(kx) sin(lx) = (cos((k-l)x) - cos((k+l)x))/2, the
    (k, l) block is A[|k-l|] - A[k+l], A[p] the Toeplitz-plus-Hankel
    matrix of c[:, p] (`multiplication_matrix`, as in `hill_eigs`).  The
    k = l blocks B, Hill operators in tau, split exactly into even-j and
    odd-j cosines, one `eigvalsh` each: the smallest |eigenvalue|
    estimates sigma_min(L), its rank in block k names the culprit divisor
    (k, j), and the odd-j ones at odd k give ``sigma_min_class``.  By
    Weyl |sigma_min(L) - sigma_min(B)| <= ``sigma_radius``, the bound
    ||(||E_kl||_F)_kl||_2 >= ||E||_2 of the off-block part.  The inverses
    of the class's blocks, built on the first `solve`, precondition it.
    """

    def __init__(self, V_traj: VTrajectory, w: SpaceTimeField, eps: float,
                 model: Nonlinearity, N: int):
        check_class(V_traj.cos_coeffs, w.coeffs)
        N_tau = w.band_tau
        if N > w.band_x:
            raise ValueError("truncation N exceeds the field band")
        M_tau, M_x = _grids(N, N_tau)
        self.eps, self.N, self._N_tau = eps, N, N_tau
        sym = _linear_symbol(w.period, eps, N_tau, N)[:, 2:]
        self._sym = sym[1::2, 1::2]
        self.size = self._sym.size
        self._S = quarter_wave(M_x, w.band_x, 1, np.sin)
        w_values = (quarter_wave(M_tau, N_tau, 1) @ w.coeffs[1::2, 1::2]
                    @ self._S.T if w.coeffs.any() else None)
        self._m = collocate(model, eps, V_traj.quarter_nodes(M_tau), w_values,
                            self._S[:, 0], order=1)

        # the DCT-II tables are not cached: the law battery's temporal
        # bands differ from draw to draw
        dct2 = quarter_wave.__wrapped__
        self.cos_coeffs = (eps**2 / (M_tau * M_x)) * (
            dct2(M_tau, 2 * N_tau, 0).T @ self._m @ dct2(M_x, 2 * N, 0))
        e = np.zeros((N + 1, 2 * N_tau + 1))
        e[:, ::2] = self.cos_coeffs.T
        A = multiplication_matrix(e, N_tau)       # A[q] = A[p] at p = 2q
        ks = np.arange(2, N + 1)
        blocks = A[0] - A[ks]
        j = np.arange(N_tau + 1)
        blocks[:, j, j] += sym.T
        self._class_blocks = blocks[1::2, 1::2, 1::2]
        lam = [np.linalg.eigvalsh(blocks[:, part, part])
               for part in (slice(0, None, 2), slice(1, None, 2))]
        self.sigma_min_class = float(np.abs(lam[1][1::2]).min(initial=np.inf))
        abs_lam = np.abs(np.sort(np.concatenate(lam, axis=1), axis=1))
        k_i, j_i = np.unravel_index(np.argmin(abs_lam), abs_lam.shape)
        self.sigma_min = float(abs_lam[k_i, j_i])
        self.culprit = (int(ks[k_i]), int(j_i))
        self._scale = float(abs_lam.max())

        # ||E_kl||_F^2 = ||A[d] - A[s]||_F^2 by the Gram matrix (0 at odd p)
        flat = A.reshape(A.shape[0], -1)
        G = np.zeros((2 * N + 1, 2 * N + 1))
        G[::2, ::2] = flat @ flat.T
        d = np.abs(ks[:, None] - ks[None, :])
        s = ks[:, None] + ks[None, :]
        off2 = G[d, d] + G[s, s] - 2.0 * G[d, s]
        np.fill_diagonal(off2, 0.0)
        self.sigma_radius = float(
            np.linalg.eigvalsh(np.sqrt(np.maximum(off2, 0.0)))[-1])

    @cached_property
    def _C(self) -> Array:
        """The tau synthesis table of `apply`, built on its first call."""
        return quarter_wave(self._m.shape[0], self._N_tau, 1)

    def apply(self, u: Array) -> Array:
        """L u, matrix-free, with the analysis weight 4 / (M_tau M_x)."""
        C, S = self._C, self._S[:, 1:self._sym.shape[1] + 1]
        U = u.reshape(self._sym.shape)
        mult = C.T @ (self._m * (C @ U @ S.T)) @ S
        return (self._sym * U + (4.0 * self.eps**2 / self._m.size) * mult).ravel()

    @cached_property
    def _inv(self) -> Array:
        """Inverses of the class's Hill blocks, computed on the first solve."""
        return np.linalg.inv(self._class_blocks)

    def _block_solve(self, r: Array) -> Array:
        """B^{-1} r by the class's block inverses."""
        R = r.reshape(self._sym.shape).T
        return np.einsum("kij,kj->ik", self._inv, R).ravel()

    def solve(self, rhs: Array) -> Array:
        """L^{-1} rhs by preconditioned Richardson iteration to relative
        residual `SOLVE_RTOL`: from x = B^{-1} rhs, each step x <- x +
        B^{-1}(rhs - L x) multiplies the residual by -E B^{-1}, and
        ||E B^{-1}||_2 <= sigma_radius / sigma_min < 1 whenever
        `check_collapse` passes.  A non-finite residual, or `_SOLVE_STEPS`
        steps, raise `NonConvergenceError`."""
        target = SOLVE_RTOL * np.linalg.norm(rhs)
        x = self._block_solve(rhs)
        for _ in range(_SOLVE_STEPS):
            r = rhs - self.apply(x)
            r_norm = np.linalg.norm(r)
            if r_norm <= target or not np.isfinite(r_norm):
                break
            x += self._block_solve(r)
        if not r_norm <= target:
            raise NonConvergenceError(
                f"preconditioned Richardson stopped at residual {r_norm:.3e}, "
                f"relative target {SOLVE_RTOL:g}, at N = {self.N} (step cap "
                f"{_SOLVE_STEPS})")
        return x

    def check_collapse(self) -> None:
        """Raise `ResonanceError` when the enclosure reaches zero.

        Fires when sigma_min(B) - sigma_radius sits at the round-off floor
        of the largest block eigenvalue, naming the culprit divisor (k, j).
        """
        if self.sigma_min - self.sigma_radius <= 1e-12 * self._scale:
            raise ResonanceError(
                f"sigma_min collapse at stage N = {self.N}: block sigma_min "
                f"{self.sigma_min:.3e}, enclosure radius {self.sigma_radius:.3e}; "
                f"culprit divisor (k, j) = {self.culprit}", culprit=self.culprit)

    def report(self, params: ResonanceParams) -> InversionReport:
        """sigma_min, its enclosure radius and the inverse-norm law constant."""
        const = self.sigma_min * self.N**params.gamma / self.eps**(params.l - 1.0)
        return InversionReport(sigma_min=self.sigma_min,
                               sigma_radius=self.sigma_radius, N=self.N,
                               size=self.size, eps=self.eps,
                               law_constant=const,
                               ratio_vs_fit=const / FITTED_C,
                               sigma_min_class=self.sigma_min_class)


# ---------------------------------------------------------------------------
# the nested-truncation solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageRecord:
    """One stage of `nash_moser_solve`: Newton steps taken, increment and
    residual norms, and the conditioning of the stage's last linearization.

    ``conditioning_source`` is that linearization's report, or, for a stage
    that took no Newton step, a function building the linearization at the
    field the stage ended on; it runs the first time the conditioning
    (``sigma_min``, ``sigma_radius``, ``law_constant``) is read.
    """

    N: int
    newton_iters: int
    increment_norm_s: float
    residual_s: float
    conditioning_source: InversionReport | Callable[[], InversionReport] = field(
        repr=False, compare=False)

    @cached_property
    def conditioning(self) -> InversionReport:
        source = self.conditioning_source
        return source if isinstance(source, InversionReport) else source()

    @property
    def sigma_min(self) -> float:
        return self.conditioning.sigma_min

    @property
    def sigma_radius(self) -> float:
        return self.conditioning.sigma_radius

    @property
    def law_constant(self) -> float:
        return self.conditioning.law_constant

    def to_json_dict(self) -> dict:
        return {"N": self.N, "newton_iters": self.newton_iters,
                "increment_norm_s": self.increment_norm_s,
                "residual_s": self.residual_s, "sigma_min": self.sigma_min,
                "sigma_min_class": self.conditioning.sigma_min_class,
                "sigma_radius": self.sigma_radius,
                "law_constant": self.law_constant}


@dataclass(frozen=True)
class SolverRun:
    """The fast field of `nash_moser_solve` and its report.

    ``w`` is the physical fast field and ``start`` the averaging stage it
    started from.  In `to_json_dict`, ``w_norm_1`` is the Sobolev-1 norm of
    the Newton correction ``w - start.w`` (`correction`) and
    ``w_physical_norm_1`` that of ``w``.  The report is computed the first
    time it is read, from the data the run holds: the stages' conditioning
    (see `StageRecord`) and the residual certificate, ||F||_s of w
    zero-padded to twice its band (read by ``residual_certificate``,
    ``converged`` and `to_json_dict`).  It covers the modes past the solved
    truncation, so a run whose band is too narrow for its solution (an
    under-resolved N_tau) is not ``converged`` even where every stage met
    ``residual_tol``.
    """

    config: SolverConfig
    eps: float
    period: float
    requested_schedule: tuple[int, ...]
    effective_schedule: tuple[int, ...]
    N_tau: int
    stages: tuple[StageRecord, ...]
    w: SpaceTimeField
    start: AveragedStart
    model: Nonlinearity
    V_traj: VTrajectory = field(repr=False, compare=False)

    @property
    def correction(self) -> SpaceTimeField:
        """w - start.w, what a warm start passes on as ``w0``."""
        return self.w - self.start.w

    @cached_property
    def residual_certificate(self) -> float:
        """||F(w)||_s of w zero-padded to the band (2 N_tau + 2, 2K + 2).

        The norm covers the whole padded band, the tail past the solved
        truncation included, and for K >= 6 its `_grids` nodes are the
        doubled grid of the solve's.
        """
        w = self.w + SpaceTimeField.zeros(self.period, 2 * self.w.band_tau + 2,
                                          2 * self.w.band_x + 2)
        F = assemble_F(self.V_traj, w, self.eps, self.model)
        return float(F.norm(_SOBOLEV_S))

    @property
    def converged(self) -> bool:
        return self.residual_certificate <= 10.0 * self.config.residual_tol

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "period": self.period,
            "requested_schedule": list(self.requested_schedule),
            "effective_schedule": list(self.effective_schedule),
            "N_tau": self.N_tau,
            "nf_steps": self.start.step,
            "drive_norm_history": list(self.start.drive_norm_history),
            "stages": [s.to_json_dict() for s in self.stages],
            "converged": self.converged,
            "residual_certificate": self.residual_certificate,
            "w_norm_1": self.correction.norm(1.0),
            "w_physical_norm_1": self.w.norm(1.0),
        }


def resonance_gate(traj: VTrajectory, eps: float, model: Nonlinearity,
                   K: int, params: ResonanceParams):
    """Build the averaged-potential divisor table and classify eps.

    The table reaches j_table = 2.5 K max(1, p / 2 pi) / eps; the Hill
    solve stops `_HILL_MARGIN` past it (and at `_J_HILL`), so the
    eigenvalues the query reads are clear of the inaccurate top of the
    Galerkin truncation.  Returns (report, spectrum, table); raises
    ResonanceError when eps falls inside a window for some retained
    wavenumber k <= K.
    """
    q = averaged_potential(traj, eps, model)
    j_table = int(math.ceil(2.5 * K * max(1.0, traj.period / (2 * np.pi)) / eps))
    spectrum = hill_eigs(q, traj.period, min(_J_HILL, j_table + _HILL_MARGIN))
    table = DivisorTable.build(spectrum, K_max=max(K, 2), J_max=j_table)
    report = is_resonant(eps, params, table)
    if report.resonant:
        raise ResonanceError(report.message(), report=report)
    return report, spectrum, table


def _built_conditioning(params: ResonanceParams, *args) -> InversionReport:
    """Report of a `LinearizedOperator` built from ``args``."""
    return LinearizedOperator(*args).report(params)


def nash_moser_solve(V_traj: VTrajectory, eps: float, config: SolverConfig,
                     model: Nonlinearity,
                     w0: SpaceTimeField | None = None) -> SolverRun:
    """Solve F(w) = 0 over nested truncations with damped Newton stages.

    Runs the ``config.nf_steps`` averaging steps (`nf_sequence`) and the
    stages.  Newton starts from the averaged start, plus ``w0`` when given:
    the Newton correction of an earlier run (`SolverRun.correction`, same
    period), of which the coefficients in this solve's band are added.
    Every stage records the increment and residual norms and the
    conditioning of its last linearization; the report (a zero-step
    stage's linearization, the padded-band certificate) is built when it
    is first read.

    The resonance-window gate (`resonance_gate`) belongs to the caller,
    which decides the solves it guards: `closure.solve_delta1` gates round
    1 and every cold round.  This solve raises `ResonanceError` only when a
    linearization's sigma_min enclosure collapses, naming the culprit
    divisor (k, j).  A failing stage raises `NonConvergenceError` carrying
    the completed stages.
    """
    eps = validate_eps(eps)
    period = V_traj.period
    requested, effective = schedule_for(eps, config)
    N_final = effective[-1]
    N_tau = _default_N_tau(V_traj, config)

    start = nf_sequence(V_traj, eps, model, N_x=N_final, N_tau=N_tau,
                        k_max=config.nf_steps)
    w = start.w
    if w0 is not None:
        if abs(w0.period - period) > 1e-12 * max(1.0, abs(period)):
            raise ValueError("period mismatch between w0 and the trajectory")
        j, k = min(N_tau, w0.band_tau) + 1, min(N_final, w0.band_x) + 1
        coeffs = w.coeffs.copy()
        coeffs[:j, :k] += w0.coeffs[:j, :k]
        w = SpaceTimeField(period=period, coeffs=coeffs)

    stages: list[StageRecord] = []
    # F is the residual at w throughout: an accepted damped step hands over
    # its trial residual, and a new stage keeps w (F does not depend on N_i)
    F = assemble_F(V_traj, w, eps, model)
    for N_i in effective:
        w_start = w
        op = None
        iters = 0
        while True:
            F_vec = _pack(F.coeffs, N_i)
            res = F.pi_N(N_i).norm(_SOBOLEV_S)
            if res <= config.residual_tol:
                break
            if iters >= config.max_stage_iters:
                raise NonConvergenceError(
                    f"stage N = {N_i} exceeded {config.max_stage_iters} Newton "
                    f"iterations (residual {res:.3e})", stages=stages)
            op = LinearizedOperator(V_traj, w, eps, model, N_i)
            op.check_collapse()
            delta = op.solve(-F_vec)
            # damped update: halve until the truncated residual decreases
            alpha, accepted = 1.0, False
            for _ in range(9):
                w_try = w + _unpack(alpha * delta, period, N_i, N_tau, N_final)
                F_try = assemble_F(V_traj, w_try, eps, model)
                res_try = F_try.pi_N(N_i).norm(_SOBOLEV_S)
                if res_try < res:
                    w, F, accepted = w_try, F_try, True
                    break
                alpha *= 0.5
            if not accepted:
                raise NonConvergenceError(
                    f"damped Newton stalled at stage N = {N_i} "
                    f"(residual {res:.3e})", stages=stages)
            iters += 1
        source = (op.report(config.resonance) if op is not None else
                  partial(_built_conditioning, config.resonance, V_traj, w,
                          eps, model, N_i))
        stages.append(StageRecord(
            N=N_i, newton_iters=iters,
            increment_norm_s=(w - w_start).norm(_SOBOLEV_S),
            residual_s=float(res), conditioning_source=source))

    return SolverRun(config=config, eps=eps, period=period,
                     requested_schedule=requested,
                     effective_schedule=effective, N_tau=N_tau,
                     stages=tuple(stages), w=w, start=start, model=model,
                     V_traj=V_traj)


# ---------------------------------------------------------------------------
# inverse-norm law calibration
# ---------------------------------------------------------------------------

def sigma_min_law_samples(model: Nonlinearity, n_samples: int = 50,
                          seed: int = 2026) -> list[InversionReport]:
    """Seeded non-resonant eps samples with sigma_min law constants.

    Draws eps uniformly from `_LAW_EPS`, rejects resonant draws with the
    divisor gate, and reports the Hill-block sigma_min (with its enclosure
    radius) of the truncation N = `_LAW_N` of the linearization at w = 0
    on the `_LAW_AMPLITUDE` orbit, together with
    sigma_min * N^gamma / eps^(l-1).  The temporal band scales like N/eps
    so every near-resonant temporal mode that the law is about is actually
    present in the operator.
    """
    params = ResonanceParams()
    rng = np.random.default_rng(seed)
    orbit = find_orbit(model.f3, _LAW_AMPLITUDE)
    traj = orbit.trajectory(_LAW_N_TRAJ)
    ratio = traj.period / (2.0 * np.pi)
    N = _LAW_N
    reports: list[InversionReport] = []
    while len(reports) < n_samples:
        eps = float(rng.uniform(*_LAW_EPS))
        try:
            resonance_gate(traj, eps, model, K=N, params=params)
        except ResonanceError:
            continue
        N_tau = int(math.ceil(1.2 * ratio * N / eps))
        w0 = SpaceTimeField.zeros(traj.period, N_tau, N)
        reports.append(LinearizedOperator(traj, w0, eps, model, N).report(params))
    return reports
