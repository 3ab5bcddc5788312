"""The slow equation, its closure, and the Hamiltonian check of the return map.

At frozen fast field w the slow equation v_tautau + v/omega^2 = f~(v, w) is
a periodic problem at the seed orbit's period p, solved by cosine Galerkin
(`galerkin_v`) alternating with full fast-component solves.  delta_1 is the
start point's offset along the conormal direction v_perp of the seed orbit.
A Chebyshev-Picard integration from that start point certifies the
closure: the tangential return defect and the conormal defect d must
vanish, the latter by invariance of the Hamiltonian, and a nonzero d is
cross-checked against the H-mismatch it must cause.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .divisors import ResonanceReport
from .fourier import (SpaceTimeField, check_class, cos_series, project_P,
                      quarter_wave, sin_synthesis_matrix)
from .nonlinearity import Nonlinearity, TrustRadiusError, collocate
from .planar import PlanarOrbit, PlanarState, VTrajectory, monodromy
from .solver import (SolverConfig, SolverRun, nash_moser_solve, resonance_gate,
                     schedule_for, validate_eps)

Array = NDArray[np.float64]

__all__ = [
    "ClosureResult",
    "DegenerateOrbitError",
    "ClosureConsistencyError",
    "OuterLoopError",
    "IntegrationError",
    "integrate_v",
    "galerkin_v",
    "solve_delta1",
    "hamiltonian_H",
]

_NODES = 33          # Chebyshev-Lobatto nodes per certificate segment
_SEGMENTS = 4        # segments per period the certificate starts from
_PICARD_TOL = 1e-15  # relative Picard update that accepts a segment
_MIN_SEGMENT = 1e-6  # shortest certificate segment, in periods
_M_X = 64      # x-collocation points of the slow equation's forcing
_M_X_H = 128   # x-collocation points of the Hamiltonian's potential term
_N_SAMPLES = 256           # tau grid the Galerkin slow solve's nodes are a quarter of
_MAX_OUTER = 10            # rounds of the closure loop
_TOL_OUTER = 1e-10         # settled delta_1 and w-update that end the loop
_DERIVATIVE_FLOOR = 1e-3   # smallest |shooting derivative|
_TOL_DEFECT = 1e-10        # a closed orbit's tangential defect is <= 10x this
_TOL_D = 1e-8              # ... its conormal defect d at most this
_TOL_H = 1e-8              # ... and its H-mismatch at most this


class DegenerateOrbitError(RuntimeError):
    """Non-degeneracy lost: failed monodromy test, singular or stalled
    Galerkin Jacobian, or shooting derivative along v_perp below its floor."""


class ClosureConsistencyError(RuntimeError):
    """d and the H-mismatch disagree with the invariance argument."""


class IntegrationError(RuntimeError):
    """The slow-equation integrator failed over one period."""


class OuterLoopError(RuntimeError):
    """The V <-> w alternation failed to converge; carries the history."""

    def __init__(self, message: str, history=()):
        super().__init__(message)
        self.history = tuple(history)


@lru_cache(maxsize=4)
def _picard_matrices(n: int) -> tuple[Array, Array, Array]:
    """Nodes s on [-1, 1], samples -> Chebyshev coefficients, and Q: (Q g)_k
    integrates g's interpolant from -1 to s_k; read-only, built lazily."""
    from numpy.polynomial import chebyshev
    s = np.cos(np.pi * np.arange(n - 1, -1, -1) / (n - 1))
    to_coeffs = np.linalg.inv(chebyshev.chebvander(s, n - 1))
    Q = (chebyshev.chebvander(s, n)
         @ chebyshev.chebint(np.eye(n), lbnd=-1) @ to_coeffs)
    for a in (s, to_coeffs, Q):
        a.flags.writeable = False
    return s, to_coeffs, Q


def integrate_v(starts: Sequence[PlanarState], w: SpaceTimeField,
                eps: float, model: Nonlinearity,
                period: float) -> tuple[Array, Array]:
    """Integrate the slow equation over one period from each start state.

    Chebyshev-Picard iteration (Clenshaw & Norton, Comput. J. 6, 1963; Bai
    & Junkins, J. Astronaut. Sci. 58, 2011) on segments of [0, period],
    first `_SEGMENTS`, each with `_NODES` Chebyshev-Lobatto nodes.  On
    [a, b] all nodes update at once, ``v_tau <- v_tau(a) + (b-a)/2 Q f~``,
    then ``v <- v(a) + (b-a)/2 Q v_tau`` (Q the integration matrix), the
    forcing of every node and start in one `collocate` call.  A segment is
    accepted once the update is `_PICARD_TOL` relative (or stalls below
    100x that) and its last two Chebyshev coefficients are at most 10x
    that relative; otherwise, or past the trust radius, it is halved.  A
    non-finite iterate or a segment below `_MIN_SEGMENT` periods raises
    `IntegrationError` (a `TrustRadiusError` there is re-raised).

    The starts are stacked and share segments and acceptance, so starts
    close together carry errors that largely cancel in their difference.
    Returns the node times ``tau`` (0 to exactly ``period``, shared by
    every start) and the states there, ``states[i] = (v, v_tau)`` of start
    i, each of shape (2, len(tau)): ``states[i][:, 0]`` is start i and
    ``states[i][:, -1]`` its end state V(period).
    """
    # w(tau, x_m) = cos_series(A, period, tau) on the _M_X-point x grid
    A = w.coeffs @ sin_synthesis_matrix(_M_X, w.band_x).T
    s, to_coeffs, Q = _picard_matrices(_NODES)
    floor = _MIN_SEGMENT * period
    y = np.array([[st.p, st.p_tau] for st in starts], float).T[..., None]
    taus, states = [np.zeros(1)], [y]
    a, h = 0.0, period / _SEGMENTS
    while a < period:
        b = period if a + h > period - floor else a + h
        half = 0.5 * (b - a)
        tau = a + half * (s + 1.0)
        tau[-1] = b
        w_nodes = cos_series(A, period, tau)
        Y, prev, accepted = np.repeat(y, _NODES, axis=2), np.inf, False
        for _ in range(64):
            if not np.all(np.isfinite(Y)):
                raise IntegrationError(
                    "slow-equation integration failed: non-finite iterate "
                    f"at tau = {a:.6g}")
            try:
                f = project_P(collocate(model, eps, Y[0], w_nodes, _M_X))
            except TrustRadiusError:
                if half < floor:
                    raise
                break
            v_tau = y[1] + half * (f - Y[0] / (1.0 + eps**2)) @ Q.T
            new = np.stack([y[0] + half * v_tau @ Q.T, v_tau])
            update, scale = np.abs(new - Y).max(), np.abs(new).max()
            Y = new
            if update <= _PICARD_TOL * scale or update >= prev:
                c = np.abs(Y @ to_coeffs.T)
                accepted = (update <= 100.0 * _PICARD_TOL * scale and
                            c[..., -2:].max() <= 10.0 * _PICARD_TOL * c.max())
                break
            prev = update
        if not accepted:
            if half < floor:
                raise IntegrationError(
                    "slow-equation integration failed: segment at tau = "
                    f"{a:.6g} fell below {_MIN_SEGMENT:.0e} periods")
            h = half
            continue
        taus.append(tau[1:])
        states.append(Y[:, :, 1:])
        y, a = Y[:, :, -1:], b
    states = np.concatenate(states, axis=2)
    return np.concatenate(taus), states.transpose(1, 0, 2)


def galerkin_v(a0: Array, w: SpaceTimeField, eps: float,
               model: Nonlinearity, period: float) -> tuple[Array, float]:
    """Cosine coefficients a[0..J] of the even periodic slow solution at frozen w.

    ``a0`` and w lie in the symmetry class (`check_class`), which the slow
    equation keeps: the odd cosines are collocated on (J + 1)/2 tau and
    `_M_X`/4 x quarter-wave nodes (the 2(J + 1), `_M_X` full grids'
    equivalent), and Newton from ``a0`` drives
    R_j = (1/omega^2 - (2 pi j/period)^2) a_j - (DCT-IV of P[collocate])_j
    to round-off; the Jacobian is that diagonal minus the cosine-Galerkin
    matrix of P[collocate(order=1) sin x].  Steps are halved until max|R|
    decreases (leaving the trust radius rejects a step).  The Jacobian is
    invertible exactly when the orbit has twist, so a singular or stalled
    one raises `DegenerateOrbitError`.  Returns a (zero at even j) and the
    final max|R|.
    """
    check_class(a0, w.coeffs)
    J = a0.shape[0] - 1
    n, m_x = (J + 1) // 2, _M_X // 4
    C = quarter_wave(n, J, 1)
    S = quarter_wave(m_x, w.band_x, 1, np.sin)
    w_values = quarter_wave(n, w.band_tau, 1) @ w.coeffs[1::2, 1::2] @ S.T
    sin_x = S[:, 0]
    lam = 1.0 / (1.0 + eps**2) - (2.0 * np.pi * np.arange(1, J + 1, 2) / period) ** 2

    def residual(a: Array) -> Array:
        forcing = collocate(model, eps, C @ a, w_values, sin_x) @ sin_x
        return lam * a - (4.0 / (n * m_x)) * (C.T @ forcing)

    a, R = a0[1::2], residual(a0[1::2])
    r = float(np.abs(R).max())
    for _ in range(16):
        if r <= 64.0 * np.finfo(float).eps * np.abs(lam * a).max():
            out = np.zeros(J + 1)
            out[1::2] = a
            return out, r
        q = collocate(model, eps, C @ a, w_values, sin_x, order=1) @ sin_x**2
        jac = np.diag(lam) - (4.0 / (n * m_x)) * (C.T @ (q[:, None] * C))
        try:
            step = np.linalg.solve(jac, -R)
        except np.linalg.LinAlgError as ex:
            raise DegenerateOrbitError(
                f"singular Galerkin Jacobian of the slow equation: {ex}") from ex
        alpha = 1.0
        for _ in range(9):
            try:
                R_try = residual(a + alpha * step)
            except TrustRadiusError:
                R_try = None
            if R_try is not None and np.abs(R_try).max() < r:
                a, R = a + alpha * step, R_try
                r = float(np.abs(R).max())
                break
            alpha *= 0.5
        else:
            break
    raise DegenerateOrbitError(
        f"Galerkin Newton on the slow equation stalled (max|R| = {r:.3e})")


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def hamiltonian_H(state: PlanarState, w_slice: Array, w_tau_slice: Array,
                  eps: float, model: Nonlinearity):
    """The conserved quantity of the coupled slow/fast system.

    Quadratic fast terms are summed exactly from sine coefficients
    (Parseval); the potential term integrates the scaled antiderivative of
    f by x-collocation.  ``w_slice``/``w_tau_slice`` are the sine
    coefficients k = 0..K >= 2 of the fast field and its tau-derivative at
    one tau.  A state of arrays, with one row each, gives an array of H.
    """
    w2 = 1.0 + eps**2
    H = 0.5 * state.p_tau**2 + state.p**2 / (2.0 * w2)
    b = np.asarray(w_slice, dtype=float)
    k = np.arange(b.shape[-1], dtype=float)
    H += 0.5 * np.sum(np.asarray(w_tau_slice, dtype=float)**2, axis=-1)
    H += (0.5 / eps**2) * np.sum((k**2 - 1.0 / w2) * b**2 * (k >= 2), axis=-1)
    xi = (np.multiply.outer(state.p, sin_synthesis_matrix(_M_X_H, 1)[:, 1])
          + (sin_synthesis_matrix(_M_X_H, b.shape[-1] - 1) @ b.T).T)
    H += (2.0 / (_M_X_H * w2)) * np.sum(model.scaled_antideriv(xi, eps), axis=-1)
    return float(H) if np.ndim(H) == 0 else H


def _H_at(tau, traj_state: PlanarState, w: SpaceTimeField, eps: float,
          model: Nonlinearity):
    return hamiltonian_H(traj_state, cos_series(w.coeffs, w.period, tau),
                         cos_series(w.coeffs, w.period, tau, order=1), eps, model)


# ---------------------------------------------------------------------------
# the closure loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureResult:
    eps: float
    amplitude: float
    delta1: float
    defect_t: float            # tangential component of V(p) - P0
    d: float                   # conormal component minus delta1
    H_mismatch: float          # |H(p) - H(0)| at the certificate's ends
    H_drift: float             # max |H(tau) - H(0)| over the certificate's nodes
    outer_iters: int
    closed: bool
    derivative: float          # finite-difference d(defect_t)/d(delta1)
    V_traj: VTrajectory
    run: SolverRun
    history: tuple
    conormal: tuple[float, float]     # unit shooting direction n_hat
    resonance_first: ResonanceReport  # gate verdict of round 1
    resonance_final: ResonanceReport  # ... and of the reported round

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "amplitude": self.amplitude,
            "delta1": self.delta1,
            "defect_t": self.defect_t,
            "d": self.d,
            "H_mismatch": self.H_mismatch,
            "H_drift": self.H_drift,
            "outer_iters": self.outer_iters,
            "closed": self.closed,
            "derivative": self.derivative,
            "history": [list(h) for h in self.history],
            "conormal": list(self.conormal),
            "resonance_first": self.resonance_first.to_json_dict(),
            "resonance_final": self.resonance_final.to_json_dict(),
            "solver": self.run.to_json_dict(),
        }


def _units(orbit: PlanarOrbit) -> tuple[PlanarState, Array, Array]:
    P0 = orbit.base_point
    t = np.array([orbit.tangent.p, orbit.tangent.p_tau])
    n = np.array([orbit.conormal.p, orbit.conormal.p_tau])
    return P0, t / np.linalg.norm(t), n / np.linalg.norm(n)


def solve_delta1(orbit: PlanarOrbit, eps: float, model: Nonlinearity,
                 solver: SolverConfig | None = None) -> ClosureResult:
    """Couple the slow equation with fast solves until the orbit closes.

    Alternates (a) `galerkin_v` at frozen w (w = 0 in round 1) on
    `_N_SAMPLES` tau samples, started from the seed orbit's series
    (``orbit.trajectory``) and then from the previous round, whose
    coefficients are the round's trajectory, with (b) fast-component
    solves on that trajectory, until delta_1 and the w-update (from w = 0
    in round 1) both move by at most `_TOL_OUTER`.

    This loop owns the resonance gate.  Round 1, and any round that can
    end the loop (delta moved by at most `_TOL_OUTER`), runs
    `resonance_gate` on its trajectory up to the final truncation's N
    (a resonant eps raises `ResonanceError` before the solve) and then
    solves cold; the rounds in between skip the gate and start Newton from
    their own averaged start plus the previous round's Newton correction
    (`SolverRun.correction`).  The run left when the loop exits is the
    reported one: a cold, gated `nash_moser_solve` on the reported
    trajectory ``V_traj``, the last Galerkin one, whose report is built
    only when read.  ``resonance_first`` and ``resonance_final`` are the
    verdicts of round 1 and of the reported round.

    One stacked Chebyshev-Picard pass (`integrate_v`) with the converged w
    certifies the result from two starts sharing its segments: the closed
    start point gives the return defects and, in one evaluation of H at
    the integrator's own nodes, the H-mismatch of its ends and the drift,
    and delta_1 + 1e-6 gives the shooting derivative by finite
    difference, checked against `_DERIVATIVE_FLOOR`.

    The orbit is ``closed`` when both return defects and the H-mismatch
    are small.  By invariance of H a conormal defect d above `_TOL_D` must
    change H by about |d| times the conormal H-gradient; a mismatch below
    a quarter of that raises `ClosureConsistencyError`, a logic error and
    not a tolerance issue.
    """
    eps = validate_eps(eps)
    if solver is None:
        solver = SolverConfig()
    if not monodromy(orbit).nondegenerate:
        raise DegenerateOrbitError(
            "seed orbit fails the non-degeneracy test; cannot shoot")
    P0, t_hat, n_hat = _units(orbit)
    base = np.array([P0.p, P0.p_tau])
    period = orbit.period

    K = schedule_for(eps, solver)[1][-1]
    w_field = SpaceTimeField.zeros(period, 0, 2)
    run: SolverRun | None = None
    coeffs = orbit.trajectory(_N_SAMPLES).cos_coeffs
    history: list[tuple] = []

    for outer in range(1, _MAX_OUTER + 1):
        # (a) the slow equation at frozen w; evenness puts V(0) on the
        # conormal line through the base point
        coeffs, r = galerkin_v(coeffs, w_field, eps, model, period)
        traj = VTrajectory(period, coeffs)
        delta = float((np.array(traj.start) - base) @ n_hat)
        # (b) fast solve on the updated trajectory; only a round whose delta
        # has settled may be the reported one, so it solves cold and gated
        ddelta = abs(delta - history[-1][0]) if history else abs(delta)
        cold = outer == 1 or ddelta <= _TOL_OUTER
        if cold:
            gate, _, _ = resonance_gate(traj, eps, model, K, solver.resonance)
            if outer == 1:
                first_gate = gate
        run = nash_moser_solve(traj, eps, solver, model,
                               w0=None if cold else run.correction)
        dw = (run.w - w_field).norm(1.0)
        history.append((delta, r, dw))
        w_field = run.w
        if outer >= 2 and dw <= _TOL_OUTER and ddelta <= _TOL_OUTER:
            break
    else:
        raise OuterLoopError(
            f"outer alternation did not converge in {_MAX_OUTER} rounds",
            history=history)

    # the certificate with the converged w, and the shooting derivative
    taus, (cert, pert) = integrate_v(
        [PlanarState(*(base + h * n_hat)) for h in (delta, delta + 1e-6)],
        w_field, eps, model, period)
    diff = cert[:, -1] - base
    t_fin = float(diff @ t_hat)
    d_val = float(diff @ n_hat) - delta
    t_pert = float((pert[:, -1] - base) @ t_hat)
    deriv = (t_pert - t_fin) / 1e-6
    if abs(deriv) < _DERIVATIVE_FLOOR:
        raise DegenerateOrbitError(
            f"shooting derivative {deriv:.3e} below floor "
            f"{_DERIVATIVE_FLOOR:.1e}")

    # Hamiltonian at the certificate's nodes, from tau = 0 (the start
    # state) to tau = period (the end state), in one evaluation
    H = _H_at(taus, PlanarState(*cert), w_field, eps, model)
    mismatch = float(abs(H[-1] - H[0]))
    drift = float(np.max(np.abs(H - H[0])))
    if abs(d_val) > _TOL_D:
        # the conormal H-gradient at the start state, by central difference
        Hp, Hm = (_H_at(0.0, PlanarState(*(base + (delta + h) * n_hat)),
                        w_field, eps, model) for h in (1e-6, -1e-6))
        grad = abs(Hp - Hm) / 2e-6
        if mismatch < 0.25 * abs(d_val) * grad:
            raise ClosureConsistencyError(
                f"conormal defect d = {d_val:.3e} with H-mismatch "
                f"{mismatch:.3e} < 0.25 |d| grad_H = "
                f"{0.25 * abs(d_val) * grad:.3e}: invariance argument violated")
    closed = bool(abs(t_fin) <= 10 * _TOL_DEFECT and abs(d_val) <= _TOL_D
                  and mismatch <= _TOL_H)
    return ClosureResult(eps=eps, amplitude=orbit.amplitude, delta1=delta,
                         defect_t=t_fin, d=d_val, H_mismatch=mismatch,
                         H_drift=drift, outer_iters=outer, closed=closed,
                         derivative=float(deriv), V_traj=traj, run=run,
                         history=tuple(history),
                         conormal=(float(n_hat[0]), float(n_hat[1])),
                         resonance_first=first_gate, resonance_final=gate)
