"""The fast equation F and its averaging (partial normal form) stage.

The fast field obeys

    F(w) = (J_eps - eps^2 d_tautau) w + eps^2 g(v, w) = 0,
    g(v, w) = -(1/omega^2) Q[f(eps(v sin x + w))/eps^3],

over fields in span{cos(2 pi j tau / p) sin(k x), k >= 2}; `assemble_F`
evaluates it by collocation on quarter-wave nodes, in the class of odd j
and odd k that F keeps, and is the only place it is written.

Averaging substitutes ``w = w_new - S`` for a trajectory-dependent shift S,
an exact change of variables: the transformed residual satisfies
F_new(w_new) = F(w_new - S).  Each step removes the inhomogeneous drive
d_k = F_new(0)/eps^2 by adding eps^2 J_eps^{-1} d_k to S, which contracts
the drive by a factor O(eps^2).  Newton's method is affine invariant, so
solving F_new = 0 from w_new = 0 gives the same iterates as solving F = 0
from w = -S.  The stage therefore stays in the physical frame: step k
evaluates d_k = F(w_k)/eps^2 and takes the diagonal solve
w_{k+1} = w_k - eps^2 J_eps^{-1} d_k from w_0 = 0, and its result is the
start of the Newton solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .fourier import (SpaceTimeField, check_class, invert_J_eps, j_eps_symbol,
                      quarter_wave)
from .nonlinearity import Nonlinearity, collocate
from .planar import VTrajectory

Array = NDArray[np.float64]

__all__ = [
    "AveragedStart",
    "assemble_F",
    "nf_sequence",
]


def _grids(N_x: int, N_tau: int) -> tuple[int, int]:
    """Quarter-wave nodes in tau and x, a quarter of the full grids'."""
    return N_tau + 2, max(N_x + 2, 8)


def _linear_symbol(period: float, eps: float, N_tau: int, K: int) -> Array:
    j = np.arange(N_tau + 1, dtype=float)
    return (j_eps_symbol(np.arange(K + 1), eps)[None, :]
            + eps**2 * (2.0 * np.pi * j[:, None] / period) ** 2)


def assemble_F(V_traj: VTrajectory, w: SpaceTimeField, eps: float,
               model: Nonlinearity) -> SpaceTimeField:
    """Residual field F(w) = (J_eps - eps^2 d_tautau) w + eps^2 g(V, w).

    V and w lie in the symmetry class (`check_class`), which F keeps, so g
    is collocated on the `_grids` quarter-wave nodes of the field's band
    and analyzed at odd j and odd k >= 3; the result has the band of ``w``
    and exact zeros outside the class.  The band alone sets the nodes: a
    caller wanting a finer grid, or the truncation tail, pads ``w`` with
    zeros.
    """
    check_class(V_traj.cos_coeffs, w.coeffs)
    N_tau, K = w.band_tau, w.band_x
    M_tau, M_x = _grids(K, N_tau)
    C = quarter_wave(M_tau, N_tau, 1)
    S = quarter_wave(M_x, K, 1, np.sin)
    vals = collocate(model, eps, V_traj.quarter_nodes(M_tau),
                     C @ w.coeffs[1::2, 1::2] @ S.T, S[:, 0])
    coeffs = w.coeffs * _linear_symbol(w.period, eps, N_tau, K)
    coeffs[1::2, 3::2] += (4.0 * eps**2 / (M_tau * M_x)) * (C.T @ vals @ S[:, 1:])
    return SpaceTimeField(w.period, coeffs)


@dataclass(frozen=True)
class AveragedStart:
    """The averaging steps kept: the field ``w`` they end on (the Newton
    start) and the Sobolev-1 norm of the drive each step removed."""

    w: SpaceTimeField
    drive_norm_history: tuple[float, ...]

    @property
    def step(self) -> int:
        return len(self.drive_norm_history)


def nf_sequence(traj: VTrajectory, eps: float, model: Nonlinearity,
                N_x: int, N_tau: int, k_max: int) -> AveragedStart:
    """Apply up to ``k_max`` averaging steps from w = 0 on the (N_tau, N_x) band.

    Each drive is `assemble_F` of the band's field, on its nodes.  Stops
    as soon as a step fails to decrease the drive norm, near the round-off
    floor; that step is not taken.
    """
    w = SpaceTimeField.zeros(traj.period, N_tau, N_x)
    history: list[float] = []
    for _ in range(k_max):
        d = (1.0 / eps**2) * assemble_F(traj, w, eps, model)
        norm = d.norm(1.0)
        if history and norm >= history[-1]:
            break
        history.append(norm)
        w = w - (eps**2) * invert_J_eps(d, eps)
    return AveragedStart(w=w, drive_norm_history=tuple(history))
