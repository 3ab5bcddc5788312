"""Batch command-line front end.

Subcommands take a JSON config file and write machine-readable artifacts
(JSON/CSV) into the configured output directory.  Numeric choices live in
the config, never in flags; every output embeds the fully resolved config
so a run can be reproduced from any one of its artifacts.

Exit codes:
    0  success
    1  invalid config (field-level message on stderr), or the model's
       series leaves its trust radius
    2  requested epsilon falls in a resonance window (window named), or the
       linearization's sigma_min enclosure collapses there (divisor named)
    3  degenerate or missing planar orbit
    4  solver non-convergence or failed slow-equation integration
       (diagnostics written), or selftest failure
    5  sweep finished with too few converged rows for the fit laws
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .assembly import SOLVE_FAILURES, epsilon_sweep, solve_point
from .closure import DegenerateOrbitError
from .divisors import (
    CoverageError,
    DivisorTable,
    HillSpectrum,
    ResonanceError,
    ResonanceParams,
)
from .nonlinearity import Nonlinearity, TrustRadiusError
from .planar import NoPeriodicOrbitError, find_orbit, monodromy
from .properties import DEFAULT_SEED, run_all
from .solver import SolverConfig, check_admissible, validate_eps

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_RESONANT = 2
EXIT_NO_ORBIT = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INSUFFICIENT_DATA = 5

# largest (k, j) table `divisors` writes; at the limit the CSV is ~70 MB
MAX_DIVISOR_PAIRS = 10**6
# largest orbit sampling `limit-orbit` writes (~4 MB of JSON) and largest
# `sweep` residual grid (n x n points, ~180 MB peak at the limit)
MAX_ORBIT_SAMPLES = 2**16
MAX_RESIDUAL_GRID = 1024
# largest solver truncations: N_cap and schedule entries (spatial), N_tau and
# N_tau_cap (temporal), and normal-form steps; a canonical solve at all the
# limits together peaks at ~420 MB RSS and takes ~3 s
MAX_SOLVER_N = 256
MAX_SOLVER_N_TAU = 128
MAX_NF_STEPS = 16
# largest `selftest` battery: about 0.3 ms per field, ~3 s at the limit
MAX_SELFTEST_FIELDS = 10**4
# largest `sweep`: worker processes, all forked at once, each peaking at
# ~70 MB RSS (~1.1 GB at the limit); and eps_list rows, each 0.01-0.15 s
# at the default solver settings and up to ~3 s at the solver limits
MAX_SWEEP_WORKERS = 16
MAX_SWEEP_ROWS = 1000


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as ex:
        raise ConfigError(f"cannot read config file {path!r}: {ex}") from ex
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ConfigError(f"config {path!r} is not valid JSON: {ex}") from ex
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return doc


def _reject_unknown(cfg: dict, allowed: set[str]) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")


def _get_number(cfg: dict, key: str, default, lo=None, hi=None,
                integer: bool = False):
    value = cfg.get(key, default)
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"field {key!r} must be a number, not null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:       # a JSON integer past the double range
        raise ConfigError(f"field {key!r} is past the double range") from None
    if not math.isfinite(number):
        raise ConfigError(f"field {key!r} must be finite, got {value}")
    if integer:
        if number != int(value):
            raise ConfigError(f"field {key!r} must be an integer")
        value = int(value)
    else:
        value = number
    if lo is not None and value < lo:
        raise ConfigError(f"field {key!r} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"field {key!r} must be <= {hi}, got {value}")
    return value


def _amplitude(cfg: dict, default: float | None) -> float:
    """The positive ``amplitude`` field; ``default=None`` makes it required."""
    amplitude = _get_number(cfg, "amplitude", default)
    if amplitude is None or amplitude <= 0.0:
        raise ConfigError("field 'amplitude' must be a positive number")
    return amplitude


def _eps_from(value, key: str) -> float:
    """An eps entry checked by `validate_eps`, failing as a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {key!r} must hold numbers in (0, 1)")
    try:
        return validate_eps(value)
    except ValueError as ex:
        raise ConfigError(f"field {key!r}: {ex}") from ex


def _model_from(cfg: dict) -> tuple[Nonlinearity, dict]:
    spec = cfg.get("model", {"model": "sine-gordon"})
    if isinstance(spec, str):
        spec = {"model": spec}
    if not isinstance(spec, dict):
        raise ConfigError("field 'model' must be a string or an object")
    try:
        return Nonlinearity.from_spec(spec), spec
    except (ValueError, TypeError) as ex:
        raise ConfigError(f"field 'model': {ex}") from ex


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out_dir", ".")
    if not isinstance(out, str):
        raise ConfigError("field 'out_dir' must be a string path")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resonance_params(cfg: dict) -> tuple[ResonanceParams, dict]:
    sub = cfg.get("resonance", {})
    if not isinstance(sub, dict):
        raise ConfigError("field 'resonance' must be an object")
    _reject_unknown(sub, {"alpha", "l"})
    alpha = _get_number(sub, "alpha", 0.25)
    ell = _get_number(sub, "l", 2.5)
    try:
        params = ResonanceParams(alpha=alpha, l=ell)
    except ValueError as ex:
        raise ConfigError(f"field 'resonance': {ex}") from ex
    return params, {"alpha": params.alpha, "l": params.l}


def _solver_config(cfg: dict, params: ResonanceParams) -> tuple[SolverConfig, dict]:
    try:
        check_admissible(params)
    except ValueError as ex:
        raise ConfigError(f"field 'resonance': {ex}") from ex
    sub = cfg.get("solver", {})
    if not isinstance(sub, dict):
        raise ConfigError("field 'solver' must be an object")
    allowed = {"residual_tol", "N_cap", "N_tau", "N_tau_cap", "nf_steps",
               "max_stage_iters", "schedule"}
    _reject_unknown(sub, allowed)
    kwargs = {
        "resonance": params,
        "residual_tol": _get_number(sub, "residual_tol", 1e-10, lo=0.0),
        "N_cap": _get_number(sub, "N_cap", 64, lo=2, hi=MAX_SOLVER_N,
                             integer=True),
        "N_tau_cap": _get_number(sub, "N_tau_cap", 40, lo=4,
                                 hi=MAX_SOLVER_N_TAU, integer=True),
        "nf_steps": _get_number(sub, "nf_steps", 2, lo=0, hi=MAX_NF_STEPS,
                                integer=True),
        "max_stage_iters": _get_number(sub, "max_stage_iters", 12, lo=1,
                                       integer=True),
    }
    n_tau = _get_number(sub, "N_tau", None, lo=4, hi=MAX_SOLVER_N_TAU,
                        integer=True)
    if n_tau is not None:
        kwargs["N_tau"] = n_tau
    schedule = sub.get("schedule")
    if schedule is not None:
        if (not isinstance(schedule, list)
                or not all(isinstance(n, int) for n in schedule)):
            raise ConfigError("field 'solver.schedule' must be a list of ints")
        if any(n > MAX_SOLVER_N for n in schedule):
            raise ConfigError(f"field 'solver.schedule' entries must be "
                              f"<= {MAX_SOLVER_N}, got {max(schedule)}")
        kwargs["schedule"] = tuple(schedule)
    try:
        solver = SolverConfig(**kwargs)
    except ValueError as ex:
        raise ConfigError(f"field 'solver': {ex}") from ex
    resolved = {
        "residual_tol": solver.residual_tol,
        "N_cap": solver.N_cap,
        "N_tau": solver.N_tau,
        "N_tau_cap": solver.N_tau_cap,
        "nf_steps": solver.nf_steps,
        "max_stage_iters": solver.max_stage_iters,
        "schedule": None if solver.schedule is None else list(solver.schedule),
    }
    return solver, resolved


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Path, doc: dict, indent: int | None = 1) -> None:
    """``doc`` as sorted-key JSON; ``indent=None`` writes one line through
    the json module's C encoder, for the large coefficient artifacts."""
    path.write_text(json.dumps(doc, sort_keys=True, indent=indent,
                               allow_nan=True, default=_json_default) + "\n")


def _write_csv(path: Path, resolved_config: dict, header: str,
               rows: Iterable[list[str]]) -> int:
    """Stream the config line, the header and the rows; returns the row count."""
    n = 0
    with path.open("w") as fh:
        fh.write(f"# config: {json.dumps(resolved_config, sort_keys=True)}\n{header}\n")
        for n, cells in enumerate(rows, 1):
            fh.write(",".join(cells) + "\n")
    return n


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_limit_orbit(cfg: dict) -> int:
    _reject_unknown(cfg, {"model", "amplitude", "tol", "n_samples", "out_dir"})
    model, model_spec = _model_from(cfg)
    amplitude = _amplitude(cfg, None)
    tol = _get_number(cfg, "tol", 1e-10, lo=0.0)
    n_samples = _get_number(cfg, "n_samples", 512, lo=16, hi=MAX_ORBIT_SAMPLES,
                            integer=True)
    out = _out_dir(cfg)
    resolved = {"command": "limit-orbit", "model": model_spec,
                "amplitude": amplitude, "tol": tol, "n_samples": n_samples,
                "out_dir": str(out)}

    try:
        orbit = find_orbit(model.f3, amplitude, tol=tol, n_samples=n_samples)
    except NoPeriodicOrbitError as ex:
        print(f"no periodic orbit: {ex}", file=sys.stderr)
        return EXIT_NO_ORBIT
    report = monodromy(orbit)
    doc = {"config": resolved, "orbit": orbit.to_json_dict(),
           "monodromy": report.to_json_dict()}
    _write_json(out / "orbit.json", doc)
    print(f"orbit: period {orbit.period!r}, energy {orbit.energy!r}, "
          f"nondegenerate {report.nondegenerate} -> {out / 'orbit.json'}")
    if not report.nondegenerate:
        print("orbit is degenerate (monodromy test failed)", file=sys.stderr)
        return EXIT_NO_ORBIT
    return EXIT_OK


def cmd_divisors(cfg: dict) -> int:
    _reject_unknown(cfg, {"k_max", "j_max", "period", "q_const", "resonance",
                          "out_dir"})
    k_max = _get_number(cfg, "k_max", None, integer=True)
    j_max = _get_number(cfg, "j_max", None, integer=True)
    if k_max is None or j_max is None:
        raise ConfigError("fields 'k_max' and 'j_max' are required")
    if k_max < 2:
        raise ConfigError("field 'k_max' must be >= 2 (Q-space starts at k = 2)")
    if j_max < 0:
        raise ConfigError("field 'j_max' must be >= 0")
    if (k_max - 1) * j_max > MAX_DIVISOR_PAIRS:
        raise ConfigError(f"fields 'k_max' and 'j_max' ask for {(k_max - 1) * j_max} "
                          f"(k, j) pairs; at most {MAX_DIVISOR_PAIRS} are tabulated")
    period = _get_number(cfg, "period", 2.0 * math.pi, lo=1e-6)
    q_const = _get_number(cfg, "q_const", 0.0)
    spectrum = HillSpectrum.flat(period, max(j_max, 16), q_const)
    if not np.all(np.diff(spectrum.eigenvalues) > 0.0):
        raise ConfigError("fields 'period' and 'q_const' leave the spectrum "
                          "(2 pi j / period)^2 + q_const not simple in double "
                          "precision")
    params, resolved_res = _resonance_params(cfg)
    out = _out_dir(cfg)
    resolved = {"command": "divisors", "k_max": k_max, "j_max": j_max,
                "period": period, "q_const": q_const,
                "resonance": resolved_res, "out_dir": str(out)}

    rows = iter(())
    if j_max >= 1:
        table = DivisorTable.build(spectrum, K_max=k_max, J_max=j_max)
        ks, js, centers, halfw = table.windows(params)
        order = np.lexsort((js, ks))
        rows = ([str(k), str(j), repr(float(c)), repr(float(c - h)), repr(float(c + h))]
                for k, j, c, h in zip(ks[order], js[order], centers[order], halfw[order]))
    n_rows = _write_csv(out / "divisors.csv", resolved, "k,j,eps_kj,window_lo,window_hi",
                        rows)
    print(f"divisors: {n_rows} tabulated resonances -> {out / 'divisors.csv'}")
    return EXIT_OK


def cmd_solve(cfg: dict) -> int:
    _reject_unknown(cfg, {"model", "amplitude", "eps", "resonance", "solver",
                          "out_dir"})
    model, model_spec = _model_from(cfg)
    amplitude = _amplitude(cfg, 0.9)
    eps = _eps_from(cfg.get("eps"), "eps")
    params, resolved_res = _resonance_params(cfg)
    solver_cfg, resolved_solver = _solver_config(cfg, params)
    out = _out_dir(cfg)
    resolved = {"command": "solve", "model": model_spec, "amplitude": amplitude,
                "eps": eps, "resonance": resolved_res,
                "solver": resolved_solver, "out_dir": str(out)}

    try:
        point = solve_point(model, amplitude, eps, solver_cfg, (128, 128))
    except ResonanceError as ex:
        print(f"resonant epsilon: {ex}", file=sys.stderr)
        return EXIT_RESONANT
    except NoPeriodicOrbitError as ex:
        print(f"no periodic orbit: {ex}", file=sys.stderr)
        return EXIT_NO_ORBIT
    except DegenerateOrbitError as ex:
        print(f"degenerate orbit: {ex}", file=sys.stderr)
        return EXIT_NO_ORBIT
    except SOLVE_FAILURES as ex:
        diag = {"config": resolved, "error": f"{type(ex).__name__}: {ex}"}
        stages = getattr(ex, "stages", None)
        if stages:
            diag["stages"] = [s.to_json_dict() for s in stages]
        history = getattr(ex, "history", None)
        if history:
            diag["history"] = [list(h) for h in history]
        _write_json(out / "diagnostics.json", diag)
        print(f"solver did not converge: {ex} "
              f"(diagnostics -> {out / 'diagnostics.json'})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    closure, sol = point.closure, point.solution
    doc = {
        "config": resolved,
        "closure": closure.to_json_dict(),
        "solution": {
            "omega": sol.omega,
            "t_period": sol.t_period,
            "x_period": sol.x_period,
            "pde_residual_128": point.residual,
            "max_u": point.max_u,
            "max_u_over_eps": point.max_u_over_eps,
            "tail_sup": point.tail,
            "symmetry_defects": sol.symmetry_defects,
        },
    }
    _write_json(out / "solve.json", doc)
    _write_json(out / "w_field.json", {"config": resolved,
                                       "field": sol.w.to_json_dict()},
                indent=None)
    traj = closure.V_traj
    v, v_tau = traj.samples()
    grid = traj.period * np.arange(v.size) / v.size
    _write_json(out / "v_traj.json", {
        "config": resolved,
        "delta1": closure.delta1,
        "trajectory": {
            "period": traj.period,
            "samples": np.column_stack([grid, v, v_tau]).tolist(),
        },
    }, indent=None)
    print(f"solve: eps {eps!r} converged {closure.run.converged} closed "
          f"{closure.closed} residual {point.residual!r} -> {out / 'solve.json'}")
    if not point.converged:
        print("pipeline finished without meeting the closure tolerances",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    _reject_unknown(cfg, {"model", "amplitude", "eps_list", "resonance",
                          "solver", "workers", "residual_grid", "out_dir"})
    model, model_spec = _model_from(cfg)
    amplitude = _amplitude(cfg, 0.9)
    eps_list = cfg.get("eps_list")
    if not isinstance(eps_list, list) or not eps_list:
        raise ConfigError("field 'eps_list' must be a non-empty list of "
                          "numbers in (0, 1)")
    if len(eps_list) > MAX_SWEEP_ROWS:
        raise ConfigError(f"field 'eps_list' must hold at most {MAX_SWEEP_ROWS} "
                          f"entries, got {len(eps_list)}")
    eps_list = [_eps_from(e, "eps_list") for e in eps_list]
    params, resolved_res = _resonance_params(cfg)
    solver_cfg, resolved_solver = _solver_config(cfg, params)
    workers = _get_number(cfg, "workers", 1, lo=1, hi=MAX_SWEEP_WORKERS,
                          integer=True)
    grid_n = _get_number(cfg, "residual_grid", 96, lo=16, hi=MAX_RESIDUAL_GRID,
                         integer=True)
    out = _out_dir(cfg)
    resolved = {"command": "sweep", "model": model_spec, "amplitude": amplitude,
                "eps_list": sorted(eps_list), "resonance": resolved_res,
                "solver": resolved_solver, "workers": workers,
                "residual_grid": grid_n, "out_dir": str(out)}

    # every row solves on the same orbit: without one the sweep stops here
    try:
        find_orbit(model.f3, amplitude)
    except NoPeriodicOrbitError as ex:
        print(f"no periodic orbit: {ex}", file=sys.stderr)
        return EXIT_NO_ORBIT
    report = epsilon_sweep(model, amplitude, eps_list, solver_cfg=solver_cfg,
                           residual_grid=(grid_n, grid_n), workers=workers)
    header = "eps,resonant_skip,residual,max_u_over_eps,tail,delta1,converged"
    _write_csv(out / "sweep.csv", resolved, header,
               [row.csv_cells() for row in report.rows])
    summary = {"config": resolved, **report.summary_json()}
    if report.n_converged < 3:
        summary["note"] = "insufficient data: fits need >= 3 converged rows"
    _write_json(out / "summary.json", summary)
    print(f"sweep: {len(report.rows)} rows, {report.n_converged} converged "
          f"-> {out / 'sweep.csv'}, {out / 'summary.json'}")
    if report.n_converged < 3:
        print("too few converged rows for the fit laws", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    return EXIT_OK


def cmd_selftest(cfg: dict) -> int:
    _reject_unknown(cfg, {"seed", "n_fields", "out_dir"})
    seed = _get_number(cfg, "seed", DEFAULT_SEED, lo=0, integer=True)
    n_fields = _get_number(cfg, "n_fields", 1000, lo=10, hi=MAX_SELFTEST_FIELDS,
                           integer=True)
    results = run_all(seed=seed, n_fields=n_fields)
    for row in results:
        print(row.line())
    ok = all(row.ok for row in results)
    if "out_dir" in cfg:
        out = _out_dir(cfg)
        _write_json(out / "selftest.json", {
            "config": {"command": "selftest", "seed": seed,
                       "n_fields": n_fields, "out_dir": str(out)},
            "results": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                        for r in results],
            "ok": ok,
        })
    print(f"selftest: {sum(r.ok for r in results)}/{len(results)} properties hold")
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_COMMANDS = {
    "limit-orbit": (cmd_limit_orbit, True),
    "divisors": (cmd_divisors, True),
    "solve": (cmd_solve, True),
    "sweep": (cmd_sweep, True),
    "selftest": (cmd_selftest, False),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kgperiodic",
        description="Periodic Klein-Gordon pipeline: planar limit orbit, "
                    "small divisors, Galerkin solve, sweep, selftest.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} stage")
        if needs_config:
            p.add_argument("config", help="path to a JSON config file")
        else:
            p.add_argument("config", nargs="?", default=None,
                           help="optional path to a JSON config file")
    args = parser.parse_args(argv)

    handler, needs_config = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config) if args.config is not None else {}
        return handler(cfg)
    except (ConfigError, CoverageError, TrustRadiusError) as ex:
        print(f"invalid config: {ex}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
