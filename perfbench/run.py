"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from ``src/`` in
child processes whose BLAS thread count is capped at the number of usable
cores.  Set-up time is the median of three processes, each importing the
package and building the workload fixture; the last of them goes on to
measure.  A detailed report (workload metrics under their own names, sample
counts, failures, environment) is printed and saved under
``perfbench/results/``; the last stdout line is the JSON result:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
DEADLINE_S = 170.0
SETUP_PROBES = 2
END_TO_END_UNITS = {"op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# Each workload's operation metric, named for what one operation is:
# (median name, tail name or None, unit, scale from seconds).
OPERATION_METRIC = {
    "solve_canonical": ("solve_s", None, "s", 1.0),
    "sweep_serial": ("sweep_s", None, "s", 1.0),
    "gate_scan": ("gate_ms_p50", "gate_ms_p95", "ms", 1e3),
    "law_calibration": ("law_s", None, "s", 1.0),
}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:             # no git program
        return None
    return proc.stdout.strip() or None


def operation_metrics(workload: str, op_s: list[float]) -> dict:
    """Median per operation, plus p95 where ten samples lie beyond it."""
    median_name, tail_name, unit, scale = OPERATION_METRIC[workload]
    values = [scale * t for t in op_s]
    out = {median_name: {"value": statistics.median(values), "unit": unit,
                         "n": len(values)}}
    if tail_name and len(values) >= 200:
        out[tail_name] = {"value": statistics.quantiles(values, n=20)[-1],
                          "unit": unit, "n": len(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPERATION_METRIC))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kgperiodic" / "__init__.py").is_file():
        print(f"no kgperiodic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setups = [run_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_worker(common + ["--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as ex:
        print(f"benchmark run failed: {ex}", file=sys.stderr)
        return 3
    setup_s = statistics.median(setups + [res["setup_s"]])

    if args.trace:
        from layers import metric_specs
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, (unit, _) in metric_specs().items()}
    else:
        values = {"op_ms_p50": 1e3 * statistics.median(res["op_s"]),
                  "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": res["seed_used"],
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one process, one operation at a time",
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s", "n": len(setups) + 1},
            **operation_metrics(args.workload, res["op_s"]),
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "fail_ratio": {"value": res["failed"] / res["attempted"],
                           "unit": "ratio", "n": res["attempted"]},
        },
        "environment": {**res["environment"], "git_commit": git_commit()},
    }
    if args.trace:
        report["per_layer"] = res["per_layer"]
        report["spans_file"] = res["spans_file"]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
