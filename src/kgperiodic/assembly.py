"""Undo the rescalings to produce u(x, t) and verify the headline claims.

The assembled solution is the double Fourier evaluator

    u(x, t) = eps [ v(eps omega x) sin(omega t)
                    + sum_{j,k} B[j,k] cos(2 pi j eps omega x / p) sin(k omega t) ],

periodic with t-period 2 pi / omega and x-period p / (eps omega), even in x
and odd in t by construction.  The wave-equation residual is evaluated by
exact term-wise differentiation of this evaluator (independent of the
solver's internal residual path), the tail norm reproduces the theorem's
Q-projection quantity in the original frame, and `epsilon_sweep` aggregates
the eps-uniform claims over a non-resonant grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .closure import (ClosureResult, DegenerateOrbitError, IntegrationError,
                      OuterLoopError, solve_delta1)
from .divisors import ResonanceError, _linear_fit
from .fourier import SpaceTimeField, cos_series
from .nonlinearity import Nonlinearity
from .planar import NoPeriodicOrbitError, PlanarOrbit, find_orbit
from .solver import NonConvergenceError, SolverConfig, validate_eps

Array = NDArray[np.float64]

__all__ = [
    "AssembledSolution",
    "AssemblyError",
    "SolvedPoint",
    "SweepRow",
    "SweepReport",
    "SOLVE_FAILURES",
    "assemble_u",
    "pde_residual",
    "tail_norm",
    "solve_point",
    "epsilon_sweep",
]

# The documented solve failures; a resonant eps (`ResonanceError`) is
# reported apart, and logic errors such as `AssemblyError` propagate.
SOLVE_FAILURES = (NonConvergenceError, OuterLoopError, DegenerateOrbitError,
                  NoPeriodicOrbitError, IntegrationError)
_TAIL_N_X = 128    # x samples of `tail_norm`
_PEAK_GRID = 192   # (x, t) samples a side of max|u|
_SYMMETRY_GRID = 32  # (x, t) samples a side of the symmetry defects


class AssemblyError(RuntimeError):
    """Symmetry or convention violation detected while assembling u."""


@dataclass(frozen=True)
class AssembledSolution:
    """Closed-form double Fourier evaluation of the constructed solution."""

    eps: float
    period: float              # p of the slow frame
    v_cos_coeffs: Array        # cosine coefficients of the slow profile v
    w: SpaceTimeField | None   # fast field in the physical frame
    model: Nonlinearity | None

    @property
    def omega(self) -> float:
        return math.sqrt(1.0 + self.eps**2)

    @property
    def t_period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def x_period(self) -> float:
        return self.period / (self.eps * self.omega)

    # -- evaluator and its exact derivatives --------------------------------

    def _parts(self, x: Array, t: Array):
        """Broadcast helpers: y/theta angles and basis matrices."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = self.eps * self.omega * x              # slow spatial angle
        theta = self.omega * t
        return x, t, y, theta

    def u_values(self, x: Array, t: Array) -> Array:
        """u on the tensor grid, shape (len(t), len(x))."""
        x, t, y, theta = self._parts(x, t)
        out = np.outer(np.sin(theta), cos_series(self.v_cos_coeffs, self.period, y))
        if self.w is not None:
            out = out + self._w_values(y, theta)
        return self.eps * out

    def _w_values(self, y: Array, theta: Array, y_order: int = 0,
                  t_factor: Array | None = None) -> Array:
        """The w series with its cosines in y differentiated ``y_order``
        times and its sin(k theta) scaled by ``t_factor[k]``, (n_t, n_x)."""
        S = np.sin(np.outer(theta, np.arange(self.w.band_x + 1)))
        if t_factor is not None:
            S = S * t_factor
        return S @ cos_series(self.w.coeffs, self.period, y, y_order).T

    def residual_values(self, x: Array, t: Array) -> Array:
        """u_tt - u_xx + u - f(u) by exact term-wise differentiation."""
        x, t, y, theta = self._parts(x, t)
        w2 = self.omega**2
        e = self.eps
        sin_t = np.sin(theta)
        u = np.outer(sin_t, cos_series(self.v_cos_coeffs, self.period, y))
        lin = -w2 * u \
            - (e * self.omega) ** 2 * np.outer(
                sin_t, cos_series(self.v_cos_coeffs, self.period, y, 2)) \
            + u
        if self.w is not None:
            k2 = (np.arange(self.w.band_x + 1, dtype=float) * self.omega) ** 2
            u_w = self._w_values(y, theta)
            lin += -self._w_values(y, theta, t_factor=k2) \
                - (e * self.omega) ** 2 * self._w_values(y, theta, y_order=2) \
                + u_w
            u = u + u_w
        res = e * lin
        if self.model is not None:
            res = res - self.model.eval(e * u)
        return res

    def symmetry_defects(self) -> tuple[float, float]:
        """(max |u(x,t) - u(-x,t)|, max |u(x,t) + u(x,-t)|) on a
        `_SYMMETRY_GRID`-point grid a side."""
        xs = np.linspace(-0.37 * self.x_period, 0.41 * self.x_period,
                         _SYMMETRY_GRID)
        ts = np.linspace(-0.43 * self.t_period, 0.39 * self.t_period,
                         _SYMMETRY_GRID)
        u1 = self.u_values(xs, ts)
        even = np.abs(u1 - self.u_values(-xs, ts)).max()
        odd = np.abs(u1 + self.u_values(xs, -ts)).max()
        return float(even), float(odd)


def assemble_u(closure: ClosureResult) -> AssembledSolution:
    """Build the evaluator from a converged closure and its fast field.

    Symmetries (even in x, odd in t) are asserted on a 32 x 32 sample grid;
    a violation indicates an upstream convention bug, not a tolerance issue.
    """
    run = closure.run
    traj = closure.V_traj
    sol = AssembledSolution(eps=closure.eps, period=traj.period,
                            v_cos_coeffs=traj.cos_coeffs.copy(),
                            w=run.w, model=run.model)
    even, odd = sol.symmetry_defects()
    scale = max(1.0, np.abs(traj.v_samples).max())
    if even > 1e-12 * scale or odd > 1e-12 * scale:
        raise AssemblyError(
            f"symmetry defects (even {even:.3e}, odd {odd:.3e}) exceed 1e-12")
    return sol


def pde_residual(sol: AssembledSolution, grid: tuple[int, int] = (128, 128)) -> float:
    """Sup-norm of u_tt - u_xx + u - f(u) on an (n_x, n_t) sample grid."""
    n_x, n_t = grid
    xs = np.linspace(0.0, sol.x_period, n_x, endpoint=False)
    ts = np.linspace(0.0, sol.t_period, n_t, endpoint=False)
    return float(np.abs(sol.residual_values(xs, ts)).max())


def tail_norm(sol: AssembledSolution, limit_orbit: PlanarOrbit) -> float:
    """sup_x of the C^0_t norm of Q_t[u(x, .)/eps - p(eps omega x)].

    Q_t projects onto span{sin(k omega t), k >= 2}; by construction the
    projection equals the assembled w contribution, and the value is
    cross-checked against the field's sup-norm in tests.
    """
    if sol.w is None:
        return 0.0
    K = sol.w.band_x
    M_t = max(64, 4 * (K + 2))
    ts = np.arange(M_t) * sol.t_period / M_t
    xs = np.linspace(0.0, sol.x_period, _TAIL_N_X, endpoint=False)
    u = sol.u_values(xs, ts) / sol.eps              # (M_t, n_x)
    y = sol.eps * sol.omega * xs
    # subtract the limit profile (constant in t per column)
    vt = cos_series(limit_orbit.cos_coeffs, limit_orbit.period, y)
    u = u - vt[None, :]
    # project each column onto sin(k omega t), k >= 2
    theta = sol.omega * ts
    S = np.sin(np.outer(theta, np.arange(K + 1)))   # (M_t, K+1)
    coef = (2.0 / M_t) * (S.T @ u)                  # (K+1, n_x)
    coef[:2, :] = 0.0
    proj = S @ coef                                  # (M_t, n_x)
    return float(np.abs(proj).max())


@dataclass(frozen=True)
class SolvedPoint:
    """One (amplitude, eps) point solved, assembled and measured."""

    orbit: PlanarOrbit
    closure: ClosureResult
    solution: AssembledSolution
    residual: float            # `pde_residual` on the requested grid
    max_u: float               # max|u| on the `_PEAK_GRID` square grid
    tail: float                # `tail_norm`

    @property
    def max_u_over_eps(self) -> float:
        return self.max_u / self.closure.eps

    @property
    def converged(self) -> bool:
        return bool(self.closure.closed and self.closure.run.converged)


def solve_point(model: Nonlinearity, amplitude: float, eps: float,
                solver_cfg: SolverConfig,
                residual_grid: tuple[int, int]) -> SolvedPoint:
    """Limit orbit, closure, assembly and the measurements at one point.

    Raises `ResonanceError` for a resonant eps and one of `SOLVE_FAILURES`
    when the solve fails; logic errors propagate.
    """
    orbit = find_orbit(model.f3, amplitude)
    closure = solve_delta1(orbit, eps, model, solver=solver_cfg)
    sol = assemble_u(closure)
    xs = np.linspace(0.0, sol.x_period, _PEAK_GRID, endpoint=False)
    ts = np.linspace(0.0, sol.t_period, _PEAK_GRID, endpoint=False)
    return SolvedPoint(orbit=orbit, closure=closure, solution=sol,
                       residual=pde_residual(sol, residual_grid),
                       max_u=float(np.abs(sol.u_values(xs, ts)).max()),
                       tail=tail_norm(sol, orbit))


# ---------------------------------------------------------------------------
# the epsilon sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    eps: float
    resonant_skip: bool
    converged: bool
    residual: float
    max_u_over_eps: float
    tail: float
    delta1: float
    w_physical_norm_1: float
    message: str = ""

    def csv_cells(self) -> list[str]:
        return [repr(self.eps), str(int(self.resonant_skip)),
                repr(self.residual), repr(self.max_u_over_eps),
                repr(self.tail), repr(self.delta1), str(int(self.converged))]


@dataclass(frozen=True)
class SweepReport:
    model_name: str
    amplitude: float
    rows: tuple[SweepRow, ...]
    tail_slope: float
    tail_r2: float
    w_slope: float
    w_r2: float
    delta1_slope: float
    amplitude_ratio: float
    fits_valid: bool
    n_converged: int

    def summary_json(self) -> dict:
        return {
            "model": self.model_name,
            "amplitude": self.amplitude,
            "n_rows": len(self.rows),
            "n_converged": self.n_converged,
            "tail_slope": self.tail_slope,
            "tail_r2": self.tail_r2,
            "w_norm_slope": self.w_slope,
            "w_norm_r2": self.w_r2,
            "delta1_slope": self.delta1_slope,
            "amplitude_ratio": self.amplitude_ratio,
            "fits_valid": self.fits_valid,
            "failures": [{"eps": r.eps, "message": r.message}
                         for r in self.rows if r.message],
        }


def _sweep_one(args) -> SweepRow:
    model, amplitude, eps, solver_cfg, residual_grid = args
    try:
        point = solve_point(model, amplitude, eps, solver_cfg, residual_grid)
    except (ResonanceError, *SOLVE_FAILURES) as ex:
        resonant = isinstance(ex, ResonanceError)
        return SweepRow(eps=eps, resonant_skip=resonant, converged=False,
                        residual=math.nan, max_u_over_eps=math.nan,
                        tail=math.nan, delta1=math.nan,
                        w_physical_norm_1=math.nan,
                        message=(str(ex) if resonant
                                 else f"{type(ex).__name__}: {ex}"))
    return SweepRow(eps=eps, resonant_skip=False, converged=point.converged,
                    residual=point.residual,
                    max_u_over_eps=point.max_u_over_eps, tail=point.tail,
                    delta1=point.closure.delta1,
                    w_physical_norm_1=point.solution.w.norm(1.0),
                    message=("" if point.converged
                             else "closure tolerances not met"))


def epsilon_sweep(model: Nonlinearity, amplitude: float, eps_list,
                  solver_cfg: SolverConfig | None = None,
                  residual_grid: tuple[int, int] = (96, 96),
                  workers: int = 1) -> SweepReport:
    """Run the full pipeline per eps and aggregate the theorem's fit laws.

    Each row is one `solve_point`.  Resonant entries are skipped with a
    report line; documented solve failures (`SOLVE_FAILURES`) become failed
    rows and the sweep continues, while logic errors such as
    `ClosureConsistencyError` propagate.  Every skipped or
    failed row says why in `SweepRow.message`, and `summary_json` lists
    those reasons under ``failures``.  Rows are deterministic and emitted
    sorted by eps regardless of parallel schedule.
    """
    solver_cfg = solver_cfg or SolverConfig()
    eps_sorted = sorted([validate_eps(e) for e in eps_list])
    tasks = [(model, amplitude, e, solver_cfg, residual_grid)
             for e in eps_sorted]
    workers = max(1, min(workers, len(tasks))) if tasks else 1
    if workers > 1:
        # imported here, so that `import kgperiodic` skips multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    rows.sort(key=lambda r: r.eps)

    conv = [r for r in rows if r.converged and not r.resonant_skip]
    inv_eps = np.array([1.0 / r.eps for r in conv])
    tail_slope = tail_r2 = w_slope = w_r2 = d_slope = math.nan
    amp_ratio = math.nan
    if len(conv) >= 2:
        tails = np.array([r.tail for r in conv])
        wn = np.array([r.w_physical_norm_1 for r in conv])
        d1 = np.array([abs(r.delta1) for r in conv])
        if np.all(tails > 0):
            tail_slope, tail_r2 = _linear_fit(inv_eps, np.log(tails))
        if np.all(wn > 0):
            w_slope, w_r2 = _linear_fit(inv_eps, np.log(wn))
        if np.all(d1 > 0):
            d_slope, _ = _linear_fit(inv_eps, np.log(d1))
        amps = np.array([r.max_u_over_eps for r in conv])
        amp_ratio = float(amps.max() / amps.min())

    return SweepReport(model_name=model.name, amplitude=amplitude,
                       rows=tuple(rows), tail_slope=tail_slope,
                       tail_r2=tail_r2, w_slope=w_slope, w_r2=w_r2,
                       delta1_slope=d_slope, amplitude_ratio=amp_ratio,
                       fits_valid=len(conv) >= 3,
                       n_converged=len(conv))
