"""Undo the rescalings to produce u(x, t) and verify the headline claims.

The assembled solution is the double Fourier evaluator

    u(x, t) = eps [ v(eps omega x) sin(omega t)
                    + sum_{j,k} B[j,k] cos(2 pi j eps omega x / p) sin(k omega t) ],

periodic with t-period 2 pi / omega and x-period p / (eps omega), even in x
and odd in t by construction: one series whose coefficients U[j, k] hold
v's in the k = 1 column and B in the columns k >= 2.  u and its
wave-equation residual (by exact term-wise differentiation, independent of
the solver's internal residual path) are one evaluation each, the tail
norm is max|w|, and `epsilon_sweep` aggregates the eps-uniform claims over
a non-resonant grid.
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
    """The constructed solution as one double Fourier series."""

    eps: float
    period: float              # p of the slow frame
    v_cos_coeffs: Array        # cosine coefficients of the slow profile v
    w: SpaceTimeField          # fast field in the physical frame
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

    # -- the series and its exact derivatives --------------------------------

    @property
    def _coeffs(self) -> Array:
        """U[j, k] of u/eps: column k = 1 holds the slow profile's cosine
        coefficients, columns k >= 2 the fast field's."""
        v, B = self.v_cos_coeffs, self.w.coeffs
        U = np.zeros((max(v.shape[0], B.shape[0]), B.shape[1]))
        U[:B.shape[0]] = B
        U[:v.shape[0], 1] = v
        return U

    def _series(self, U: Array, x: Array, t: Array) -> Array:
        """sum_{j,k} U[j,k] cos(2 pi j y / p) sin(k theta) on the tensor
        grid, shape (len(t), len(x)), with y = eps omega x, theta = omega t."""
        y = self.eps * self.omega * np.atleast_1d(np.asarray(x, dtype=float))
        theta = self.omega * np.atleast_1d(np.asarray(t, dtype=float))
        S = np.sin(np.outer(theta, np.arange(U.shape[1])))
        return S @ cos_series(U, self.period, y).T

    def u_values(self, x: Array, t: Array) -> Array:
        """u on the tensor grid, shape (len(t), len(x))."""
        return self.eps * self._series(self._coeffs, x, t)

    def residual_values(self, x: Array, t: Array) -> Array:
        """u_tt - u_xx + u - f(u) by exact term-wise differentiation: the
        mode (j, k) of u/eps is scaled by its dispersion factor
        1 - (k omega)^2 + (2 pi j eps omega / p)^2."""
        U = self._coeffs
        j = np.arange(U.shape[0], dtype=float)[:, None]
        k = np.arange(U.shape[1], dtype=float)
        factor = (1.0 - (k * self.omega) ** 2
                  + (2.0 * np.pi * j * self.eps * self.omega / self.period) ** 2)
        res = self.eps * self._series(U * factor, x, t)
        if self.model is not None:
            res = res - self.model.eval(self.u_values(x, t))
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
    scale = max(1.0, np.abs(traj.samples()[0]).max())
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


def tail_norm(sol: AssembledSolution) -> float:
    """sup_x of the C^0_t norm of Q_t[u(x, .)/eps - p(eps omega x)].

    Q_t projects onto span{sin(k omega t), k >= 2}.  The slow profile of
    u/eps rides on sin(omega t) and p is constant in t, so Q_t leaves w:
    the value is max|w| at `_TAIL_N_X` x and M_t = max(64, 4(K + 2)) t
    samples of one period each (`values_grid`'s x = theta - pi gives the
    same theta points, M_t being even).
    """
    M_t = max(64, 4 * (sol.w.band_x + 2))
    return float(np.abs(sol.w.values_grid(_TAIL_N_X, M_t)).max())


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
                       tail=tail_norm(sol))


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
