"""The kgperiodic layers the traced run measures, and their metrics.

Each traced function is a `Target`; the span name's prefix is the layer.
Every per-layer value is normalised per workload operation (one solve, one
sweep, one gate evaluation, one calibration), so runs of different length
compare directly.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from tracing import Target, function_totals, layer_self_times

LAYERS = ("planar", "normalform", "divisors", "solver", "closure",
          "assembly", "nonlinearity", "cli")


def _artifact_bytes(counts, args, kwargs, result):
    out = Path(args[0].get("out_dir", "."))
    if out.is_dir():
        counts["cli.artifact_bytes"] += sum(
            f.stat().st_size for f in out.iterdir() if f.is_file())


def _outer_iters(counts, args, kwargs, result):
    counts["closure.outer_iters"] += result.outer_iters


def _newton(counts, args, kwargs, result):
    counts["solver.newton_iters"] += sum(s.newton_iters for s in result.stages)
    counts["solver.N_requested_max"] = max(counts["solver.N_requested_max"],
                                           result.requested_schedule[-1])
    counts["solver.N_run_max"] = max(counts["solver.N_run_max"],
                                     result.effective_schedule[-1])


def _L_megabytes(counts, args, kwargs, result):
    counts["solver.assemble_L.mb"] += 8.0 * result.size / 1e6


def _lu_gigaflop(counts, args, kwargs, result):
    n = args[0].shape[0]
    counts["solver.lu_factor.gflop"] += (2.0 / 3.0) * n**3 / 1e9


def _admitted(counts, args, kwargs, result):
    counts["divisors.admitted"] += not result.resonant


def _nf_steps(counts, args, kwargs, result):
    counts["normalform.nf_steps"] += result.step


TARGETS = (
    Target("cli.cmd_solve", "cli.cmd_solve", _artifact_bytes),
    Target("assembly.epsilon_sweep", "assembly.epsilon_sweep"),
    Target("assembly.assemble_u", "assembly.assemble_u"),
    Target("assembly.pde_residual", "assembly.pde_residual"),
    Target("assembly.tail_norm", "assembly.tail_norm"),
    Target("closure.solve_delta1", "closure.solve_delta1", _outer_iters),
    Target("closure.integrate_v", "closure.integrate_v"),
    Target("solver.sigma_min_law_samples", "solver.sigma_min_law_samples"),
    Target("solver.nash_moser_solve", "solver.nash_moser_solve", _newton),
    Target("solver.resonance_gate", "solver.resonance_gate"),
    Target("solver.assemble_F", "solver.assemble_F"),
    Target("solver.assemble_L", "solver.assemble_L", _L_megabytes),
    Target("solver.lu_factor", "solver.lu_factor", _lu_gigaflop),
    Target("solver.lu_solve", "solver.lu_solve"),
    Target("solver.svdvals", "solver.svdvals"),
    Target("divisors.averaged_potential", "divisors.averaged_potential"),
    Target("divisors.hill_eigs", "divisors.hill_eigs"),
    Target("divisors.DivisorTable.build", "divisors.DivisorTable.build"),
    Target("divisors.is_resonant", "divisors.is_resonant", _admitted),
    Target("normalform.nf_sequence", "normalform.nf_sequence", _nf_steps),
    Target("nonlinearity.scaled_eval", "nonlinearity.Nonlinearity.scaled_eval"),
    Target("nonlinearity.scaled_deriv", "nonlinearity.Nonlinearity.scaled_deriv"),
    Target("planar.find_orbit", "planar.find_orbit"),
    Target("planar.monodromy", "planar.monodromy"),
)

# name -> (unit, better) for the values `per_layer_metrics` derives besides
# the per-function ".s"/".calls" pairs and per-layer ".self_s".
DERIVED = {
    "solver.newton_iters": ("count", "lower"),
    "solver.L_useful_ratio": ("ratio", "higher"),
    "solver.lu_factor.gflop": ("Gflop", "lower"),
    "solver.assemble_L.mb": ("MB", "lower"),
    "solver.N_requested_max": ("count", "lower"),
    "solver.N_run_max": ("count", "higher"),
    "divisors.accept_ratio": ("ratio", "higher"),
    "closure.outer_iters": ("count", "lower"),
    "normalform.nf_steps": ("count", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.untraced_op_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    specs = {}
    for t in TARGETS:
        specs[f"{t.name}.s"] = ("s", "lower")
        specs[f"{t.name}.calls"] = ("count", "lower")
    for layer in LAYERS:
        specs[f"{layer}.self_s"] = ("s", "lower")
    specs.update(DERIVED)
    return specs


def per_layer_metrics(spans, counts, n_ops: int, untraced_op_ms: float,
                      traced_op_ms: float) -> dict[str, float]:
    """Per-operation layer values from the spans of ``n_ops`` traced operations."""
    counts = defaultdict(float, counts)
    totals = function_totals(spans)
    selfs = layer_self_times(spans)
    values: dict[str, float] = {}
    for t in TARGETS:
        seconds, calls = totals.get(t.name, (0.0, 0))
        values[f"{t.name}.s"] = seconds / n_ops
        values[f"{t.name}.calls"] = calls / n_ops
    for layer in LAYERS:
        values[f"{layer}.self_s"] = selfs.get(layer, 0.0) / n_ops
    L_calls = totals.get("solver.assemble_L", (0.0, 0))[1]
    gate_queries = totals.get("divisors.is_resonant", (0.0, 0))[1]
    values.update({
        "solver.newton_iters": counts["solver.newton_iters"] / n_ops,
        "solver.L_useful_ratio": (counts["solver.newton_iters"] / L_calls
                                  if L_calls else 0.0),
        "solver.lu_factor.gflop": counts["solver.lu_factor.gflop"] / n_ops,
        "solver.assemble_L.mb": counts["solver.assemble_L.mb"] / n_ops,
        "solver.N_requested_max": counts["solver.N_requested_max"],
        "solver.N_run_max": counts["solver.N_run_max"],
        "divisors.accept_ratio": (counts["divisors.admitted"] / gate_queries
                                  if gate_queries else 0.0),
        "closure.outer_iters": counts["closure.outer_iters"] / n_ops,
        "normalform.nf_steps": counts["normalform.nf_steps"] / n_ops,
        "cli.artifact_bytes": counts["cli.artifact_bytes"] / n_ops,
        "trace.untraced_op_ms": untraced_op_ms,
        "trace.overhead_ms": traced_op_ms - untraced_op_ms,
    })
    return values
