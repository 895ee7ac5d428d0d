"""One benchmark process: set up, then run one workload in a closed loop.

Started by ``run.py``, never by hand.  One caller runs one operation at a
time; the loop runs whole cycles of the workload's pattern for about
``--seconds`` of the operations' own time.  Each operation is timed alone;
its output checks run after the clock stops.  The last line of stdout is one
JSON object.

``--setup-only`` stops after set-up: importing sesqc and one untimed
operation, measured from the ``--t0`` wall-clock time at which ``run.py``
started this process.

With ``--trace 1`` every input runs twice in a row: untraced, then with
every traced function wrapped (see ``spans.py``).  Per-layer metrics come
from the traced runs; the ratio of traced to untraced time over the same
inputs, taken moments apart, is the tracing overhead.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: unpinned OpenBLAS threads on a 2-core machine
# gave 20x latency outliers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MAX_LOOP_WALL_S = 120.0

sys.path.insert(0, str(HERE.parent / "src"))
import numpy as np  # noqa: E402

from workloads import WORKLOADS, inputs  # noqa: E402


def _timed(workload, inp):
    start = time.perf_counter()
    try:
        out, raised = workload.run(inp), None
    except Exception:
        out, raised = None, traceback.format_exc()
    return time.perf_counter() - start, out, raised


def run_loop(workload, seed: int, seconds: float, tracer=None):
    """Run whole cycles of the pattern for about ``seconds`` of operation time.

    Another cycle starts while the time so far plus half a mean cycle is
    short of ``seconds``, so runs end within half a cycle of it.

    With a ``tracer`` each input runs twice, untraced and then traced; the
    records and outputs are those of the traced runs, and ``plain`` sums the
    untraced times of the same inputs.
    """
    records = []
    busy = plain = 0.0
    cycle = 0
    wall_start = time.perf_counter()
    while (busy + plain + (busy + plain) / max(cycle, 1) / 2 < seconds
           and time.perf_counter() - wall_start < MAX_LOOP_WALL_S):
        for inp in inputs(workload, seed, cycle):
            if tracer is not None:
                plain += _timed(workload, inp)[0]
                tracer.op_id = len(records)
                tracer.install()
                try:
                    elapsed, out, raised = _timed(workload, inp)
                finally:
                    tracer.uninstall()
            else:
                elapsed, out, raised = _timed(workload, inp)
            busy += elapsed
            pulse_ns, nbytes = 0.0, 0
            if raised is not None:
                problems = [raised]
            else:
                try:
                    problems, pulse_ns, nbytes = workload.verify(inp, out)
                except Exception:
                    problems = ["check raised: " + traceback.format_exc()]
            if problems:
                print(f"{workload.name} {inp['kind']} n={inp['n']} cycle {cycle}: "
                      + "; ".join(problems), file=sys.stderr)
            records.append({"kind": inp["kind"], "n": inp["n"], "cycle": cycle, "seconds": elapsed,
                            "raised": raised is not None, "problems": len(problems),
                            "pulse_ns": pulse_ns, "schedule_bytes": nbytes})
        cycle += 1
    return records, busy, plain, cycle


def summary(records) -> dict:
    failed = sum(1 for r in records if r["problems"])
    return {
        "attempted": len(records),
        "failed": failed,
        "correct": not any(r["problems"] and not r["raised"] for r in records),
    }


def end_to_end(records, busy: float) -> dict:
    ok = [r for r in records if not r["problems"]]
    latency_ms = [r["seconds"] * 1e3 for r in records]
    return {
        "ops_per_s": len(ok) / busy,
        "latency_ms_p50": statistics.median(latency_ms),
        "latency_ms_p90": statistics.quantiles(latency_ms, n=10)[8],
        "pulse_ns_mean": statistics.fmean(r["pulse_ns"] for r in ok) if ok else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def clusters(records) -> list[dict]:
    """Median latency and share of operations of each (kind, n)."""
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r["kind"], r["n"]), []).append(r["seconds"] * 1e3)
    rows = [{"kind": k, "n": n, "share": len(v) / len(records), "median_ms": statistics.median(v)}
            for (k, n), v in groups.items()]
    return sorted(rows, key=lambda row: row["median_ms"])


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "cpus": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time.time() at which the process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT)
    kind, n = workload.PATTERN[0]
    workload.run(workload.make(kind, n, np.random.default_rng([args.seed, 2**32])))
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if not args.trace:
        records, busy, _, cycles = run_loop(workload, args.seed, args.seconds)
        per_cycle = [sum(r["seconds"] for r in records if r["cycle"] == c) for c in range(cycles)]
        result = {**summary(records), "setup_s": setup_s, "cycles": cycles, "cycle_s": per_cycle,
                  "metrics": end_to_end(records, busy), "clusters": clusters(records),
                  "machine": machine()}
        print(json.dumps(result))
        return 0

    from spans import Tracer, layer_metrics

    tracer = Tracer()
    records, traced, plain, cycles = run_loop(workload, args.seed, args.seconds, tracer)
    spans = tracer.spans
    metrics = layer_metrics(spans, len(records), sum(r["schedule_bytes"] for r in records))
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    print(json.dumps({**summary(records), "cycles": cycles, "spans": len(spans), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
