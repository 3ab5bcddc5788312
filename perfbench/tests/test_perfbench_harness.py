"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import (Span, Target, Tracer, function_totals,  # noqa: E402
                     instrument, layer_self_times, self_times)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_name_grammar(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            names.append(m["name"])
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_declared_names_match_what_the_benchmark_emits(bench):
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.OPERATION_METRIC) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == layers.metric_specs()
    assert {t.name.split(".", 1)[0] for t in layers.TARGETS} == set(layers.LAYERS)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _tree():
    #   0 a.root   [0, 10]
    #   1 b.left   [1, 4]     child of 0
    #   2 c.leaf   [2, 3]     child of 1
    #   3 b.right  [3, 6]     child of 0, overlaps b.left on [3, 4]
    #   4 c.late   [8, 12]    child of 0, clipped to the parent's end
    return [Span(2, "c.leaf", 2.0, 3.0, 1), Span(1, "b.left", 1.0, 4.0, 0),
            Span(3, "b.right", 3.0, 6.0, 0), Span(4, "c.late", 8.0, 12.0, 0),
            Span(0, "a.root", 0.0, 10.0, None)]


def test_self_time_subtracts_the_union_of_children():
    own = self_times(_tree())
    assert own == {0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0}


def test_layer_self_times_sum_over_spans_of_the_layer():
    assert layer_self_times(_tree()) == {"a": 3.0, "b": 5.0, "c": 5.0}


def test_function_totals_do_not_double_count_reentry():
    spans = [Span(1, "x.f", 1.0, 2.0, 0), Span(2, "y.g", 2.5, 3.0, 0),
             Span(0, "x.f", 0.0, 4.0, None)]
    assert function_totals(spans) == {"x.f": (4.0, 2), "y.g": (0.5, 1)}


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

@pytest.fixture()
def fake_package(monkeypatch):
    """fakepkg.a defines f and class C; fakepkg.b imports f into a registry."""
    pkg, a, b = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))

    def f(x):
        return x + 1

    class C:
        @classmethod
        def build(cls, n):
            return [cls] * n

    a.f, a.C = f, C
    b.f, b.COMMANDS = f, {"run": (f, True)}
    for m in (pkg, a, b):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return a, b


def test_instrument_wraps_every_binding_and_restores(fake_package):
    a, b = fake_package
    f, build = a.f, a.C.__dict__["build"]
    seen = []
    targets = [Target("a.f", "a.f", lambda c, args, kw, r: seen.append(r)),
               Target("a.C.build", "a.C.build")]
    with instrument(Tracer(), targets, package="fakepkg") as tracer:
        assert b.f(1) == 2 and b.COMMANDS["run"][0](2) == 3 and a.f(3) == 4
        assert a.C.build(2) == [a.C, a.C]
    assert [s.name for s in tracer.spans] == ["a.f"] * 3 + ["a.C.build"]
    assert seen == [2, 3, 4]
    assert a.f is f and b.f is f and b.COMMANDS["run"] == (f, True)
    assert a.C.__dict__["build"] is build


def test_missing_binding_reports_zero_calls(fake_package, monkeypatch):
    a, _ = fake_package
    targets = [Target("a.gone", "a.no_such_function"),
               Target("a.C.gone", "a.C.no_such_method"),
               Target("z.f", "no_such_module.f"), Target("a.f", "a.f")]
    with instrument(Tracer(), targets, package="fakepkg") as tracer:
        a.f(0)
    totals = function_totals(tracer.spans)
    assert "a.gone" not in totals and totals["a.f"] == (totals["a.f"][0], 1)

    # a layer function deleted from the library: the run goes on, 0 calls
    from kgperiodic import solver
    monkeypatch.delattr(solver, "lu_factor")
    with instrument(Tracer(), layers.TARGETS) as tracer:
        pass
    values = layers.per_layer_metrics(tracer.spans, tracer.counts, 1, 1.0, 1.0)
    assert values["solver.lu_factor.calls"] == 0
    assert values["solver.lu_factor.s"] == 0.0


# ---------------------------------------------------------------------------
# miniature smoke runs of each workload
# ---------------------------------------------------------------------------

MINI = {
    "solve_canonical": {},
    "sweep_serial": dict(eps_list=(0.1175, 0.148, 0.193)),
    "gate_scan": dict(pass_size=4),
    "law_calibration": dict(n_samples=2),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_miniature_workload_runs_and_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path, **MINI[name])
    wl.setup()
    times, failed = worker.timed_loop(wl, seconds=0.0)
    assert len(times) == 1 and failed == 0


def test_miniature_traced_gate_scan(tmp_path, monkeypatch):
    from kgperiodic import solver
    gate = solver.resonance_gate
    monkeypatch.setattr(worker, "RESULTS", tmp_path)
    wl = workloads.GateScan(3, tmp_path, pass_size=4)
    wl.setup()
    res = worker.measure(wl, seconds=0.0, trace=1)
    assert res["failed"] == 0 and solver.resonance_gate is gate
    per_layer = res["per_layer"]
    assert set(per_layer) == set(layers.metric_specs())
    for span in ("solver.resonance_gate", "divisors.hill_eigs",
                 "divisors.averaged_potential", "divisors.DivisorTable.build",
                 "divisors.is_resonant"):
        assert per_layer[f"{span}.calls"] == 1.0, span
    assert per_layer["solver.assemble_L.calls"] == 0
    assert per_layer["closure.integrate_v.calls"] == 0
    spans = json.loads((ROOT / res["spans_file"]).read_text())
    assert {"id", "name", "start", "end", "parent"} <= set(spans[0])


def test_errors_and_failed_checks_count_as_failures():
    class Flaky:
        name = "flaky"

        def op(self, i):
            if i == 0:
                raise RuntimeError("boom")
            return i

        def check(self, out):
            return [] if out == 2 else ["wrong output"]

    times, failed = worker.timed_loop(Flaky(), seconds=0.01)
    assert len(times) > 3 and failed == len(times) - 1


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_result_line_carries_exactly_the_declared_metrics(bench):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, "--workload", "gate_scan", "--seed", "5",
                      "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in bench[group]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "gate_scan", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
