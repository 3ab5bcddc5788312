"""The slow equation, its closure, and the Hamiltonian check of the return map.

At frozen fast field w the slow equation v_tautau + v/omega^2 = f~(v, w) is
a periodic problem at the seed orbit's period p, solved by cosine Galerkin
(`galerkin_v`) alternating with full fast-component solves.  delta_1 is the
start point's offset along the conormal direction v_perp of the seed orbit.
A DOP853 integration from that start point certifies the closure: the
tangential return defect and the conormal defect d must vanish, the latter
by invariance of the Hamiltonian, and d and the H-mismatch are cross-checked.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import solve_ivp

from .divisors import ResonanceReport
from .fourier import (SpaceTimeField, cos_analyze, cos_synthesis_matrix,
                      project_P, sin_synthesis_matrix, x_grid)
from .nonlinearity import Nonlinearity, TrustRadiusError, collocate
from .planar import PlanarOrbit, PlanarState, VTrajectory, monodromy
from .solver import (SolverConfig, SolverRun, nash_moser_solve, newton_solve,
                     validate_eps)

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
    "check_closure",
]

_IVP_OPTS = dict(method="DOP853", rtol=1e-12, atol=1e-14)
_M_X = 64      # x-collocation points of the slow equation's forcing


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


def integrate_v(starts: Sequence[PlanarState], w: SpaceTimeField | None,
                eps: float, model: Nonlinearity | None, period: float,
                n_samples: int = 256,
                M_x: int = _M_X) -> list[tuple[VTrajectory, PlanarState]]:
    """Integrate the slow equation over one period from each start state.

    The starts are stacked into one DOP853 system, so they share one step
    control: its RMS error norm runs over every component, and starts close
    together take about the steps one of them would take alone, with
    integration errors that largely cancel in their difference.  With w as
    driving field, returns per start the sampled trajectory (uniform grid
    on [0, period)) and the exact end state V(period).
    """
    m = len(starts)
    # w(tau, x_m) = cos(omega tau) @ A on the M_x-point x grid
    A = omega = None
    if w is not None:
        A = w.coeffs @ sin_synthesis_matrix(M_x, w.band_x).T
        omega = 2.0 * np.pi * np.arange(w.band_tau + 1) / period

    def rhs(tau, y):
        v, v_tau = y[:m], y[m:]
        w_slice = None if A is None else np.cos(omega * tau) @ A
        return np.concatenate([v_tau, -v / (1.0 + eps**2)
                               + project_P(collocate(model, eps, v, w_slice, M_x))])

    grid = np.linspace(0.0, period, n_samples, endpoint=False)
    t_eval = np.append(grid, period)
    y0 = [s.p for s in starts] + [s.p_tau for s in starts]
    sol = solve_ivp(rhs, (0.0, period), y0, t_eval=t_eval, dense_output=False,
                    **_IVP_OPTS)
    if not sol.success:
        raise IntegrationError(f"slow-equation integration failed: {sol.message}")
    out = []
    for i, s in enumerate(starts):
        v, v_tau = sol.y[i], sol.y[m + i]
        end = PlanarState(float(v[-1]), float(v_tau[-1]))
        traj = VTrajectory(period=period, v_samples=v[:n_samples].copy(),
                           v_tau_samples=v_tau[:n_samples].copy(),
                           start=(s.p, s.p_tau), end=(end.p, end.p_tau))
        out.append((traj, end))
    return out


def galerkin_v(a0: Array, w: SpaceTimeField | None, eps: float,
               model: Nonlinearity | None, period: float) -> tuple[Array, float]:
    """Cosine coefficients a[0..J] of the even periodic slow solution at frozen w.

    Collocates on the 2(J + 1)-point tau grid of `VTrajectory` and drives
    R_j = (1/omega^2 - (2 pi j/period)^2) a_j - cos_analyze(P[collocate])_j
    to round-off by Newton from ``a0``; the Jacobian is that diagonal minus
    the cosine-Galerkin matrix of P[collocate(order=1) sin x].  Steps are
    halved until max|R| decreases (leaving the trust radius rejects a step).
    The Jacobian is invertible exactly when the orbit has twist, so a
    singular or stalled one raises `DegenerateOrbitError`.  Returns a and
    the final max|R|.
    """
    J = a0.shape[0] - 1
    n = 2 * (J + 1)
    C = cos_synthesis_matrix(n, J)
    w_values = None if w is None else w.values_grid(n, _M_X)
    sin_x = sin_synthesis_matrix(_M_X, 1)[:, 1]
    lam = 1.0 / (1.0 + eps**2) - (2.0 * np.pi * np.arange(J + 1) / period) ** 2

    def residual(a: Array) -> Array:
        forcing = project_P(collocate(model, eps, C @ a, w_values, _M_X))
        return lam * a - cos_analyze(forcing, J)

    a, R = a0, residual(a0)
    r = float(np.abs(R).max())
    for _ in range(16):
        if r <= 64.0 * np.finfo(float).eps * np.abs(lam * a).max():
            return a, r
        q = project_P(collocate(model, eps, C @ a, w_values, _M_X, order=1) * sin_x)
        jac = np.diag(lam) - cos_analyze((q[:, None] * C).T, J).T
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

def hamiltonian_H(state: PlanarState, w_slice, w_tau_slice, eps: float,
                  model: Nonlinearity | None, M_x: int = 128) -> float:
    """The conserved quantity of the coupled slow/fast system.

    Quadratic fast terms are summed exactly from sine coefficients
    (Parseval); the potential term integrates the scaled antiderivative of
    f by x-collocation.  ``w_slice``/``w_tau_slice`` are sine-coefficient
    arrays of the fast field and its tau-derivative at one tau (None = 0).
    """
    w2 = 1.0 + eps**2
    H = 0.5 * state.p_tau**2 + state.p**2 / (2.0 * w2)
    b = np.zeros(1) if w_slice is None else np.asarray(w_slice, dtype=float)
    bt = np.zeros(1) if w_tau_slice is None else np.asarray(w_tau_slice, dtype=float)
    k = np.arange(b.shape[0], dtype=float)
    H += 0.5 * float(np.sum(bt**2))
    H += (0.5 / eps**2) * float(np.sum((k**2 - 1.0 / w2) * b[0:]**2 * (k >= 2)))
    if model is not None:
        xs = x_grid(M_x)
        xi = state.p * np.sin(xs)
        if b.shape[0] > 2:
            xi = xi + sin_synthesis_matrix(M_x, b.shape[0] - 1) @ b
        H += (2.0 / (M_x * w2)) * float(np.sum(model.scaled_antideriv(xi, eps)))
    return H


def _H_at(tau: float, traj_state: PlanarState, w: SpaceTimeField | None,
          eps: float, model: Nonlinearity | None) -> float:
    if w is None:
        return hamiltonian_H(traj_state, None, None, eps, model)
    return hamiltonian_H(traj_state, w.slice_coeffs(tau),
                         w.dtau_slice_coeffs(tau), eps, model)


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
    H_start: float
    H_end: float
    H_drift: float             # max |H(tau) - H(0)| along the trajectory
    outer_iters: int
    closed: bool
    derivative: float          # finite-difference d(defect_t)/d(delta1)
    V_traj: VTrajectory
    end_state: PlanarState
    run: SolverRun | None
    history: tuple
    conormal: tuple[float, float]     # unit shooting direction n_hat
    resonance_first: ResonanceReport | None   # gate verdict of round 1

    @property
    def H_mismatch(self) -> float:
        return abs(self.H_end - self.H_start)

    @property
    def resonance_final(self) -> ResonanceReport | None:
        """Gate verdict of the reported round (on its trajectory)."""
        return None if self.run is None else self.run.resonance

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
            "resonance_first": _report_json(self.resonance_first),
            "resonance_final": _report_json(self.resonance_final),
            "solver": None if self.run is None else self.run.to_json_dict(),
        }


def _report_json(report: ResonanceReport | None) -> dict | None:
    return None if report is None else report.to_json_dict()


def _units(orbit: PlanarOrbit) -> tuple[PlanarState, Array, Array]:
    P0 = orbit.base_point
    t = np.array([orbit.tangent.p, orbit.tangent.p_tau])
    n = np.array([orbit.conormal.p, orbit.conormal.p_tau])
    return P0, t / np.linalg.norm(t), n / np.linalg.norm(n)


def solve_delta1(orbit: PlanarOrbit, eps: float, model: Nonlinearity,
                 solver: SolverConfig | None = None,
                 tol_defect: float = 1e-10, tol_outer: float = 1e-10,
                 max_outer: int = 10, derivative_floor: float = 1e-3,
                 n_samples: int = 256) -> ClosureResult:
    """Couple the slow equation with fast solves until the orbit closes.

    Alternates (a) `galerkin_v` at frozen w on ``n_samples`` tau samples,
    started from the seed orbit and then from the previous round, with (b)
    fast-component solves on the updated trajectory, until delta_1 and the
    w-update both move by at most ``tol_outer``.  Round 1 solves cold
    behind the resonance gate; the rounds in between start Newton from the
    previous round's w and skip the gate.  Both only need w, so they run
    `newton_solve` and build no report.  A round that can end the loop
    (round 2 on, delta moved by at most ``tol_outer``) runs the full
    `nash_moser_solve` cold and gated, with its conditioning records and
    certificate, so the reported run is always that solve on the reported
    trajectory ``V_traj``, the last Galerkin one.  One stacked DOP853 pass
    (`integrate_v`) with the converged w certifies the result from two
    starts sharing one step control: the closed start point gives the
    return defects, end state and Hamiltonian drift, and delta_1 + 1e-6
    gives the shooting derivative by finite difference, checked against
    ``derivative_floor``.
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

    w_field: SpaceTimeField | None = None
    run: SolverRun | None = None
    first_gate: ResonanceReport | None = None
    coeffs = orbit.trajectory(n_samples).cos_coeffs
    history: list[tuple] = []

    for outer in range(1, max_outer + 1):
        # (a) the slow equation at frozen w; evenness puts V(0) on the
        # conormal line through the base point
        coeffs, r = galerkin_v(coeffs, w_field, eps, model, period)
        traj = VTrajectory.from_cos_coeffs(period, coeffs)
        delta = float((np.array(traj.start) - base) @ n_hat)
        # (b) fast solve on the updated trajectory; only a round whose delta
        # has settled may be the reported one, so only it builds the report
        ddelta = abs(delta - history[-1][0]) if history else abs(delta)
        if outer >= 2 and ddelta <= tol_outer:
            fast = run = nash_moser_solve(traj, eps, solver, model)
        elif outer == 1:
            fast = newton_solve(traj, eps, solver, model)
            first_gate = fast.resonance
        else:
            fast = newton_solve(traj, eps,
                                replace(solver, check_resonance=False),
                                model, w0=fast.w)
        w_new = fast.w_physical
        dw = (w_new.norm(1.0) if w_field is None
              else (w_new - w_field).norm(1.0))
        history.append((delta, r, dw))
        w_field = w_new
        if outer >= 2 and dw <= tol_outer and ddelta <= tol_outer:
            break
    else:
        raise OuterLoopError(
            f"outer alternation did not converge in {max_outer} rounds",
            history=history)

    # DOP853 certificate with the converged w, and the shooting derivative
    start_state = PlanarState(*(base + delta * n_hat))
    (cert, end), (_, end_pert) = integrate_v(
        [start_state, PlanarState(*(base + (delta + 1e-6) * n_hat))],
        w_field, eps, model, period, n_samples=n_samples)
    diff = np.array([end.p, end.p_tau]) - base
    t_fin = float(diff @ t_hat)
    d_val = float(diff @ n_hat) - delta
    t_pert = float((np.array([end_pert.p, end_pert.p_tau]) - base) @ t_hat)
    deriv = (t_pert - t_fin) / 1e-6
    if abs(deriv) < derivative_floor:
        raise DegenerateOrbitError(
            f"shooting derivative {deriv:.3e} below floor "
            f"{derivative_floor:.1e}")

    # Hamiltonian along the certificate trajectory
    H0 = _H_at(0.0, start_state, w_field, eps, model)
    H1 = _H_at(period, end, w_field, eps, model)
    taus = np.linspace(0.0, period, 17)
    drift = 0.0
    for tt in taus[1:-1]:
        st = PlanarState(float(cert.v_at(tt)), float(cert.v_tau_at(tt)))
        drift = max(drift, abs(_H_at(tt, st, w_field, eps, model) - H0))
    drift = max(drift, abs(H1 - H0))

    closed = bool(abs(t_fin) <= 10 * tol_defect and abs(d_val) <= 1e-8
                  and abs(H1 - H0) <= 1e-8)
    return ClosureResult(eps=eps, amplitude=orbit.amplitude, delta1=delta,
                         defect_t=t_fin, d=d_val, H_start=H0, H_end=H1,
                         H_drift=drift, outer_iters=outer, closed=closed,
                         derivative=float(deriv), V_traj=traj, end_state=end,
                         run=run, history=tuple(history),
                         conormal=(float(n_hat[0]), float(n_hat[1])),
                         resonance_first=first_gate)


def _grad_H_conormal(result: ClosureResult, eps: float,
                     model: Nonlinearity | None, h: float = 1e-6) -> float:
    """|directional derivative of H along the conormal| at the start state."""
    base = np.array([result.end_state.p, result.end_state.p_tau])
    s = np.array(result.V_traj.start)
    n_hat = np.array(result.conormal)
    w = None if result.run is None else result.run.w_physical
    Hp = _H_at(0.0, PlanarState(*(s + h * n_hat)), w, eps, model)
    Hm = _H_at(0.0, PlanarState(*(s - h * n_hat)), w, eps, model)
    return abs(Hp - Hm) / (2.0 * h)


def check_closure(result: ClosureResult, eps: float,
                  model: Nonlinearity | None,
                  tol_d: float = 1e-8, tol_H: float = 1e-8,
                  endpoint_perturbation: float = 0.0) -> bool:
    """Closure verdict with the invariance cross-check.

    A nonzero conormal defect d must show up as an H-mismatch of at least
    ~|d|/2 times the conormal H-gradient; a large d with a matched H is a
    logic error (raises), not a tolerance issue.  ``endpoint_perturbation``
    shifts the end state along the conormal to exercise that check.
    """
    w = None if result.run is None else result.run.w_physical
    base_start = np.array(result.V_traj.start)
    end = np.array([result.end_state.p, result.end_state.p_tau])
    n_hat = np.array(result.conormal)
    if endpoint_perturbation:
        end = end + endpoint_perturbation * n_hat
    d_val = float((end - (base_start - result.delta1 * n_hat)) @ n_hat) - result.delta1
    H_end = _H_at(result.V_traj.period, PlanarState(*end), w, eps, model)
    mismatch = abs(H_end - result.H_start)
    grad = _grad_H_conormal(result, eps, model)
    closed = abs(d_val) <= tol_d and mismatch <= tol_H
    if abs(d_val) > tol_d and mismatch < 0.25 * abs(d_val) * grad:
        raise ClosureConsistencyError(
            f"conormal defect d = {d_val:.3e} with H-mismatch {mismatch:.3e} "
            f"< 0.25 |d| grad_H ({0.25 * abs(d_val) * grad:.3e}); "
            "invariance argument violated — investigate")
    return closed
