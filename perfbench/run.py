"""sesqc benchmark: compile, prepare and expect workloads.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30

With ``--workload`` this runs one workload and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` it runs every workload untraced and traced, prints
every metric by name with its unit, and writes ``perfbench/out/results.json``.

Each measurement runs in a fresh worker process (``worker.py``) that
imports sesqc from this checkout's ``src/``.  ``setup_s`` is the median of
SETUP_SAMPLES fresh processes, each timed from start to sesqc imported and
one untimed operation done.  Metric names and units come from
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run one worker process; return the JSON object on its last stdout line."""
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return worker([*base, "--trace", "1"], deadline)
    setups = [worker([*base, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = worker([*base, "--trace", "0"], deadline)
    result["metrics"]["setup_s"] = statistics.median(setups + [result["setup_s"]])
    return result


def result_line(result: dict, metric_spec: list[dict]) -> dict:
    """The result line: every metric of ``metric_spec`` with its unit, nothing else."""
    got = result["metrics"]
    want = [m["name"] for m in metric_spec]
    if sorted(got) != sorted(want):
        raise BenchError(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in metric_spec},
    }


def report(workload: str, trace: int, line: dict, result: dict) -> None:
    print(f"== {workload} ({'traced' if trace else 'untraced'}): {line['attempted']} attempted, "
          f"{line['failed']} failed, {result['cycles']} cycles, correct={line['correct']}")
    for name, metric in line["metrics"].items():
        print(f"   {name:36s} {metric['value']:14.6g} {metric['unit']}")
    if "cycle_s" in result:
        print("   cycle seconds " + " ".join(f"{c:.3f}" for c in result["cycle_s"]))
    for row in result.get("clusters", []):
        print(f"   cluster {row['kind']:>10s} n={row['n']:<3d} share {row['share']:.3f} "
              f"median {row['median_ms']:10.3f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sesqc benchmark")
    parser.add_argument("--workload", help="one workload; omit to run all, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None:
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
            result = measure(args.workload, args.seed, seconds, args.trace, deadline)
            line = result_line(result, bench["per_layer" if args.trace else "end_to_end"])
            report(args.workload, args.trace, line, result)
            print(json.dumps(line))
            return 0
        everything = {"seed": args.seed, "seconds": seconds, "workloads": {}}
        for name in names:
            for trace in (0, 1):
                result = measure(name, args.seed, seconds, trace, time.monotonic() + DEADLINE_S)
                line = result_line(result, bench["per_layer" if trace else "end_to_end"])
                report(name, trace, line, result)
                everything.setdefault("machine", result.get("machine"))
                everything["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = {
                    **line, "cycles": result["cycles"], "clusters": result.get("clusters")}
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / "results.json").write_text(json.dumps(everything, indent=1) + "\n")
        print(f"wrote {HERE / 'out' / 'results.json'}")
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
