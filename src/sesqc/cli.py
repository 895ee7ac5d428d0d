"""Command-line interface.

Subcommands: ``compile``, ``prepare``, ``simulate``, ``expect`` and
``bench-decompose``.  Exit codes:

* 0 — success
* 2 — parse error (bad JSON, malformed documents, bad arguments), or a
  document whose size needs more memory than can be allocated
* 3 — input matrix not unitary
* 4 — verification failure (compiled schedule does not reproduce its target)
* 5 — state not normalised (or density matrix invalid) beyond 1e-6
* 6 — input matrix not Hermitian

``simulate`` always prints JSON; the other subcommands print short text
reports unless ``--json`` is passed.  When ``--seed`` is omitted the
``SES_SEED`` environment variable, if set, supplies the default.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .decompose import aba_decompose, compile_unitary
from .errors import InvalidDensityMatrix, InvalidState, SesqcError
from .formats import (
    load_json,
    load_matrix,
    load_schedule,
    matrix_from_obj,
    save_schedule,
    state_from_obj,
)
from .linalg import global_phase_fidelity, random_unitary
from .observables import expectation_protocol, spectral_decompose
from .pulses import DEFAULT_GMAX_MHZ, DeviceParams
from .simulator import DensityMatrixState, measure, run_schedule
from .stateprep import SESState, prepare_state_schedule

NORM_GATE = 1e-6


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _resolve_seed(args) -> int | None:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return int(seed)
    raw = os.environ.get("SES_SEED")
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"SES_SEED must be an integer, got {raw!r}") from exc


def _pure_state(obj) -> SESState:
    amps = state_from_obj(obj)
    norm_err = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    if norm_err > NORM_GATE:
        raise InvalidState(f"state norm**2 deviates from 1 by {norm_err:.3e} (> {NORM_GATE})")
    return SESState.normalized(amps)


def _load_state_or_density(path) -> SESState | DensityMatrixState:
    obj = load_json(path)
    if isinstance(obj, dict) and "amplitudes" in obj:
        return _pure_state(obj)
    m = matrix_from_obj(obj)
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > NORM_GATE:
        raise InvalidDensityMatrix(f"density matrix trace deviates from 1 by {abs(trace - 1.0):.3e}")
    try:
        return DensityMatrixState(m / trace.real)
    except InvalidDensityMatrix as exc:
        raise InvalidDensityMatrix(f"invalid density matrix: {exc}") from exc


def cmd_compile(args) -> int:
    u = load_matrix(args.unitary_file)
    device = DeviceParams(g_max_mhz_over_2pi=args.gmax)
    schedule = compile_unitary(u, device)
    fidelity = global_phase_fidelity(schedule.unitary, u)
    save_schedule(args.out, schedule, source="compile")
    payload = {
        "n": schedule.n,
        "steps": len(schedule.steps),
        "labels": [s.label for s in schedule.steps],
        "total_theta": schedule.total_angle,
        "duration_ns": schedule.duration_ns,
        "fidelity": fidelity,
        "out": str(args.out),
    }
    _emit(args, payload, [
        f"compiled {schedule.n}x{schedule.n} unitary into {len(schedule.steps)} step(s): "
        + ", ".join(s.label for s in schedule.steps),
        f"total angle {schedule.total_angle:.6f} rad, duration {schedule.duration_ns:.4f} ns "
        f"at g_max/2pi = {args.gmax:g} MHz",
        f"round-trip fidelity {fidelity:.12f}",
        f"wrote {args.out}",
    ])
    return 0


def cmd_prepare(args) -> int:
    target = _pure_state(load_json(args.state_file))
    device = DeviceParams(g_max_mhz_over_2pi=args.gmax)
    mode = args.mode.replace("-", "_")
    schedule, plan = prepare_state_schedule(target, device, mode=mode)
    fidelity = float(abs(np.vdot(target.amplitudes, schedule.unitary[:, 0])) ** 2)
    save_schedule(args.out, schedule, source=f"prepare:{mode}")
    payload = {
        "n": schedule.n,
        "mode": mode,
        "reduction_moves": plan.m,
        "steps": len(schedule.steps),
        "total_theta": schedule.total_angle,
        "duration_ns": schedule.duration_ns,
        "fidelity": fidelity,
        "out": str(args.out),
    }
    _emit(args, payload, [
        f"prepared {schedule.n}-qubit target in {len(schedule.steps)} step(s) "
        f"({plan.m} reduction move(s), mode {mode})",
        f"total angle {schedule.total_angle:.6f} rad, duration {schedule.duration_ns:.4f} ns "
        f"at g_max/2pi = {args.gmax:g} MHz",
        f"preparation fidelity from |1): {fidelity:.12f}",
        f"wrote {args.out}",
    ])
    return 0


def cmd_simulate(args) -> int:
    schedule = load_schedule(args.schedule_file)
    schedule.unitary  # cached; an unallocatable product fails before any state is built
    raw = args.initial
    try:
        index = int(raw)
    except ValueError:
        initial = _pure_state(load_json(raw))
        if initial.n != schedule.n:
            raise ValueError(f"initial state is {initial.n}-dimensional, schedule is {schedule.n}")
        source = raw
    else:
        if not (1 <= index <= schedule.n):
            raise ValueError(f"--initial index must be in 1..{schedule.n}, got {index}")
        initial = SESState.basis(schedule.n, index - 1)
        source = f"|{index})"
    final = run_schedule(initial, schedule)
    seed = _resolve_seed(args)
    payload = {
        "n": schedule.n,
        "initial": source,
        "amplitudes": [[z.real, z.imag] for z in final.amplitudes],
        "probabilities": list(final.weights),
        "shots": args.shots,
        "counts": None,
        "seed": seed,
    }
    if args.shots is not None:
        record = measure(final, args.shots, seed)
        payload["counts"] = [int(c) for c in record.counts]
        payload["rng"] = record.rng_name
    print(json.dumps(payload, indent=2))
    return 0


def cmd_expect(args) -> int:
    obs_matrix = load_matrix(args.observable_file)
    obs = spectral_decompose(obs_matrix)
    state = _load_state_or_density(args.state_file)
    device = DeviceParams(g_max_mhz_over_2pi=args.gmax)
    shots = None if args.exact else args.shots
    if shots is None and not args.exact:
        raise ValueError("pass --shots N or --exact")
    seed = _resolve_seed(args)
    estimate = expectation_protocol(state, obs, device, shots=shots, seed=seed)
    payload = {
        "value": estimate.value,
        "std_error_bound": estimate.std_error_bound,
        "shots": estimate.shots,
        "probabilities": list(estimate.probabilities),
        "seed": seed,
    }
    mode = "exact" if shots is None else f"{shots} shots"
    _emit(args, payload, [
        f"<O> = {estimate.value:.12g} ({mode})",
        f"std error bound: {estimate.std_error_bound:.3e}",
    ])
    return 0


def cmd_bench_decompose(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--sizes must be comma-separated integers: {exc}") from exc
    if not sizes or min(sizes) < 2 or args.reps < 1:
        raise ValueError("--sizes needs integers >= 2 and --reps >= 1")
    rows = []
    for n in sizes:
        rng = np.random.default_rng(20_000 + n)
        targets = [random_unitary(n, rng) for _ in range(args.reps)]
        start = time.perf_counter()
        for u in targets:
            aba_decompose(u)
        rows.append({"n": n, "seconds_numpy": (time.perf_counter() - start) / args.reps})
    exponent = None
    if len(sizes) >= 2:
        logs_n = np.log([row["n"] for row in rows])
        logs_t = np.log([row["seconds_numpy"] for row in rows])
        exponent = float(np.polyfit(logs_n, logs_t, 1)[0])
    payload = {"backend": "numpy", "rows": rows, "fit_exponent": exponent}
    lines = [f"n={row['n']:<5d} numpy: {row['seconds_numpy'] * 1e3:9.3f} ms" for row in rows]
    if exponent is not None:
        lines.append(f"scaling fit (numpy): t ~ n^{exponent:.2f}")
    _emit(args, payload, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sesqc`` argument parser, built once per process and shared by
    every :func:`main` call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sesqc",
        description="Compile and simulate single-excitation-subspace pulse schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gmax=True):
        if gmax:
            p.add_argument("--gmax", type=float, default=DEFAULT_GMAX_MHZ,
                           help="coupling ceiling g_max/2pi in MHz (default %(default)s)")
        p.add_argument("--json", action="store_true", help="print machine-readable JSON")

    p = sub.add_parser("compile", help="compile a unitary matrix file into a pulse schedule")
    p.add_argument("unitary_file")
    p.add_argument("--out", default="schedule.json", help="output schedule path")
    add_common(p)

    p = sub.add_parser("prepare", help="compile a state-preparation schedule from |1)")
    p.add_argument("state_file")
    p.add_argument("--mode", choices=["linear", "three-step"], default="linear")
    p.add_argument("--out", default="schedule.json", help="output schedule path")
    add_common(p)

    p = sub.add_parser("simulate", help="run a schedule file and print the outcome as JSON")
    p.add_argument("schedule_file")
    p.add_argument("--initial", default="1",
                   help="1-based basis index or a state-file path (default: 1)")
    p.add_argument("--shots", type=int, default=None, help="also sample this many measurements")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(json=True)

    p = sub.add_parser("expect", help="estimate an observable's expectation value")
    p.add_argument("observable_file")
    p.add_argument("state_file", help="pure-state or density-matrix JSON file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--shots", type=int, default=None)
    group.add_argument("--exact", action="store_true", help="use exact probabilities")
    p.add_argument("--seed", type=int, default=None)
    add_common(p)

    p = sub.add_parser("bench-decompose", help="time the three-pulse decomposition")
    p.add_argument("--sizes", default="8,16,32,64", help="comma-separated matrix sizes")
    p.add_argument("--reps", type=int, default=3, help="repetitions per size")
    add_common(p, gmax=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a rebinding of a cmd_* name (a test's patch, a tracer) takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SesqcError as exc:
        prefix = "verification failed: " if exc.exit_code == 4 else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError, TypeError, OSError, MemoryError) as exc:  # incl. JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
