"""Partial normal-form (averaging) transformation of the fast equation.

The fast field obeys ``(J_eps - eps^2 d_tautau) w + eps^2 g(v, w) = 0`` with
``g(v, w) = -(1/omega^2) Q[f(eps(v sin x + w))/eps^3]``.  Substituting
``w_new = w + shift`` for a known trajectory-dependent shift S(tau) turns the
equation into the same form with

    g_new(v, w_new) = g(v, w_new - S) - J_eps S / eps^2 + S_tautau,

an exact change of variables.  Each averaging step removes the current
inhomogeneous drive ``d_k = g_k(v, 0)`` by adding ``eps^2 J_eps^{-1} d_k`` to
the cumulative shift, which contracts the drive by a factor O(eps^2) per
step.  The implementation keeps only the cumulative shift: the accumulated
linear terms ``J_eps S / eps^2`` and ``S_tautau`` are recomputed exactly
(diagonally resp. spectrally), so the telescoped drive is evaluated without
finite differences and the variable change stays exact to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .fourier import (
    SpaceTimeField,
    apply_J_eps,
    cos_analyze,
    invert_J_eps,
    project_Q,
)
from .nonlinearity import Nonlinearity, collocate
from .planar import VTrajectory

Array = NDArray[np.float64]

__all__ = [
    "TransformedSystem",
    "nf_step",
    "nf_sequence",
    "default_k_max",
    "transformed_g",
    "multiplier_values",
]

# Largest constant c for which the drive-decay ratios stay below 1 when
# running floor(c / eps) steps on the standard benchmark (calibrated on the
# sine-Gordon amplitude-1 fixture; see the decay tests).
C_EMP_DEFAULT = 0.8
K_MAX_HARD = 8


def default_k_max(eps: float, c_emp: float = C_EMP_DEFAULT) -> int:
    """Step budget min(8, floor(c_emp / eps)) used when none is given."""
    if eps <= 0:
        return 0
    return min(K_MAX_HARD, int(np.floor(c_emp / eps)))


@dataclass(frozen=True)
class TransformedSystem:
    """State of the averaging sequence after ``step`` eliminations.

    ``correction_stack[k]`` is the field added to the fast variable at step
    k (the shift ``w -> w + eps^2 J_eps^{-1} d_k``); ``shift`` is their sum.
    ``drive_norm_history[k]`` records the Sobolev-1 norm of the drive that
    step k eliminated.  The step-0 system has an empty stack and reproduces
    the untransformed equation.
    """

    model: Nonlinearity | None
    eps: float
    N_x: int
    N_tau: int
    period: float
    step: int = 0
    correction_stack: tuple[SpaceTimeField, ...] = ()
    drive_norm_history: tuple[float, ...] = ()
    shift: SpaceTimeField = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.shift is None:
            object.__setattr__(
                self, "shift", SpaceTimeField.zeros(self.period, self.N_tau, self.N_x))

    # -- exact linear bookkeeping -------------------------------------------
    def linear_drive(self) -> SpaceTimeField:
        """-J_eps S / eps^2 + S_tautau, the linear part of the shifted g."""
        if self.eps == 0.0:
            return SpaceTimeField.zeros(self.period, self.N_tau, self.N_x)
        return self.shift.d2_tau() - (1.0 / self.eps**2) * apply_J_eps(self.shift, self.eps)

    def drive(self, traj: VTrajectory) -> SpaceTimeField:
        """Current inhomogeneous drive d_step = g_step(v, 0)."""
        return transformed_g(self, traj, None, 4 * max(self.N_tau, 1),
                             4 * max(self.N_x, 2))

    def to_original(self, w: SpaceTimeField) -> SpaceTimeField:
        """Map the transformed fast variable back to the physical one."""
        return w - self.shift

    def to_transformed(self, w: SpaceTimeField) -> SpaceTimeField:
        return w + self.shift


def identity_system(model: Nonlinearity | None, eps: float, period: float,
                    N_x: int, N_tau: int) -> TransformedSystem:
    """The step-0 (untransformed) system."""
    return TransformedSystem(model=model, eps=eps, N_x=N_x, N_tau=N_tau, period=period)


def nf_step(sys: TransformedSystem, traj: VTrajectory, eps: float) -> TransformedSystem:
    """One averaging step: remove the current drive via the diagonal solve.

    Appends the correction ``eps^2 J_eps^{-1} d_k`` to the stack and records
    the norm of the drive it eliminated.
    """
    if abs(eps - sys.eps) > 1e-15:
        raise ValueError("eps mismatch between system and step")
    d = sys.drive(traj)
    correction = (eps**2) * invert_J_eps(d, eps)
    return replace(
        sys,
        step=sys.step + 1,
        correction_stack=sys.correction_stack + (correction,),
        drive_norm_history=sys.drive_norm_history + (d.norm(1.0),),
        shift=sys.shift + correction,
    )


def nf_sequence(traj: VTrajectory, eps: float, model: Nonlinearity | None,
                N_x: int, N_tau: int, k_max: int | None = None) -> TransformedSystem:
    """Apply up to ``k_max`` averaging steps, stopping early on stagnation.

    Stops as soon as a step fails to decrease the drive norm (measured ratio
    >= 1), which happens near the roundoff floor; the step that failed to
    contract is rolled back.
    """
    if k_max is None:
        k_max = default_k_max(eps)
    sys = identity_system(model, eps, traj.period, N_x, N_tau)
    for _ in range(k_max):
        nxt = nf_step(sys, traj, eps)
        hist = nxt.drive_norm_history
        if len(hist) >= 2 and hist[-1] >= hist[-2]:
            return sys
        sys = nxt
    return sys


# ---------------------------------------------------------------------------
# hooks used by the Galerkin solver
# ---------------------------------------------------------------------------

def _w_minus_shift(sys: TransformedSystem, w_values: Array | None,
                   M_tau: int, M_x: int) -> Array | None:
    """Grid samples of w - S, the physical fast field (None when both vanish)."""
    if sys.step == 0:
        return w_values
    S = sys.shift.values_grid(M_tau, M_x)
    return -S if w_values is None else w_values - S


def transformed_g(sys: TransformedSystem, traj: VTrajectory,
                  w_values: Array | None, M_tau: int, M_x: int,
                  N_x: int | None = None,
                  N_tau: int | None = None) -> SpaceTimeField:
    """g of the transformed system at grid samples ``w_values`` of w.

    Evaluates ``g(v, w - S) - J_eps S/eps^2 + S_tautau`` on the collocation
    grid; ``w_values=None`` means w = 0.  Output bands default to the
    system's but can be overridden (e.g. for residual certificates).
    """
    N_x = sys.N_x if N_x is None else N_x
    N_tau = sys.N_tau if N_tau is None else N_tau
    vals = collocate(sys.model, sys.eps, traj.resample(M_tau),
                     _w_minus_shift(sys, w_values, M_tau, M_x), M_x)
    g = SpaceTimeField(traj.period,
                       cos_analyze(project_Q(vals, N_x).T, N_tau).T)
    return g + sys.linear_drive() if sys.step > 0 else g


def multiplier_values(sys: TransformedSystem, traj: VTrajectory,
                      w_values: Array | None, M_tau: int, M_x: int) -> Array:
    """Grid samples of the derivative multiplier of the transformed g.

    D_w g acts as h -> Q[m h] with ``m = -(1/omega^2) f'(eps xi)/eps^2`` and
    ``xi = v sin x + (w - S)``; the shift contributes no w-dependence, so the
    multiplier of the transformed system equals the original one at the
    shifted argument.
    """
    return collocate(sys.model, sys.eps, traj.resample(M_tau),
                     _w_minus_shift(sys, w_values, M_tau, M_x), M_x, order=1)
