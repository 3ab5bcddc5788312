"""One benchmark process: set up a workload, run it in a closed loop, report.

Started by `run.py` with the BLAS thread count and ``PYTHONPATH`` already
in its environment.  Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
OP_SPAN = "bench.op"


def timed_loop(workload, seconds: float, tracer=None):
    """Run operations until the next one would end past ``seconds``.

    At least one operation runs.  Only ``op`` is timed; its check follows
    outside the timed region.  Returns (op seconds, failure count).
    """
    times: list[float] = []
    failed = 0
    start = perf_counter()
    i = 0
    while True:
        t = perf_counter()
        try:
            if tracer is None:
                out = workload.op(i)
            else:
                with tracer.span(OP_SPAN):
                    out = workload.op(i)
            problems = None
        except Exception:       # an error is a failed operation; keep measuring
            problems = [traceback.format_exc()]
        times.append(perf_counter() - t)
        if problems is None:
            try:
                problems = workload.check(out)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"{workload.name} op {i} failed: {problems}", file=sys.stderr)
        i += 1
        if perf_counter() - start + statistics.median(times) > seconds:
            return times, failed


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(wl, seconds: float, trace: int) -> dict:
    """Untraced loop; with ``trace`` the time is split with a traced loop."""
    budget = seconds / 2.0 if trace else seconds
    times, failed = timed_loop(wl, budget)
    result = {"op_s": times, "failed": failed, "attempted": len(times)}
    if trace:
        import layers
        from tracing import Tracer, instrument
        with instrument(Tracer(), layers.TARGETS) as tracer:
            # replay the untraced inputs, so the difference is the overhead
            traced, t_failed = timed_loop(wl, budget, tracer=tracer)
        result["failed"] += t_failed
        result["attempted"] += len(traced)
        result["per_layer"] = layers.per_layer_metrics(
            tracer.spans, tracer.counts, len(traced),
            untraced_op_ms=1e3 * statistics.median(times),
            traced_op_ms=1e3 * statistics.median(traced))
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"spans-{wl.name}-seed{wl.seed}.json"
        spans_file.write_text(json.dumps([s._asdict() for s in tracer.spans]))
        result["spans_file"] = os.path.relpath(spans_file, ROOT)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = perf_counter()
    import kgperiodic
    import workloads
    import_s = perf_counter() - t
    src = ROOT / "src"
    if src not in Path(kgperiodic.__file__).resolve().parents:
        print(f"kgperiodic imported from {kgperiodic.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work_root = ROOT / "perfbench" / "_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        t = perf_counter()
        wl.setup()
        result = {"setup_s": import_s + perf_counter() - t}
        if not args.setup_only:
            result.update(measure(wl, args.seconds, args.trace))
            result["environment"] = environment()
            result["seed_used"] = wl.seed_used
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
