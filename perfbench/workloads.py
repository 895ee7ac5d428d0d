"""The three workloads: seeded inputs, and the timed call into sesqc.

Each workload cycles through a fixed ``PATTERN`` of (kind, n) slots.  The
input of slot ``j`` in cycle ``c`` is drawn from
``numpy.random.default_rng([seed, c, j])``, so a seed fixes every input and
sesqc receives only generated matrices and states.  No input has a
degenerate spectrum: Haar unitaries, their symmetric products ``V V^T``,
Gaussian Hermitian matrices and Wishart density matrices are all
non-degenerate with probability 1.

The patterns put each percentile inside one latency cluster (a kind at a
size) rather than on the edge between two; see README.md for where p50 and
p90 fall.

A workload has ``make`` (an input), ``run`` (the timed call) and ``verify``
(the untimed checks of ``checks.py``), which returns the problems found,
the duration of the emitted schedule in ns and the schedule bytes written.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import sesqc
import sesqc.cli
import sesqc.observables

SIMULATE_SHOTS = 1000
EXPECT_SHOTS = 4096


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix scaled to spectral radius 1."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _state(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a / np.linalg.norm(a)


class Compile:
    """Library ``compile_unitary`` / ``compile_hamiltonian``."""

    name = "compile"
    # kinds: haar -> three-pulse ABA path, sym -> one-pulse symmetric shortcut,
    # ham -> Hamiltonian path with t in [0.5, 2] on a unit spectral radius.
    PATTERN = [
        ("sym", 8), ("ham", 16), ("haar", 8), ("ham", 32), ("sym", 16),
        ("ham", 8), ("haar", 16), ("ham", 32), ("ham", 16), ("sym", 8),
        ("haar", 32), ("ham", 8), ("ham", 16), ("sym", 32), ("haar", 8),
        ("ham", 32), ("sym", 16), ("haar", 16), ("ham", 16), ("ham", 32),
    ]

    def __init__(self, workdir: Path):
        pass

    def make(self, kind: str, n: int, rng: np.random.Generator) -> dict:
        if kind == "ham":
            return {"kind": kind, "n": n, "h": _hermitian(n, rng), "t": float(rng.uniform(0.5, 2.0))}
        v = _haar(n, rng)
        return {"kind": kind, "n": n, "u": v @ v.T if kind == "sym" else v}

    def run(self, inp: dict):
        if inp["kind"] == "ham":
            return sesqc.compile_hamiltonian(inp["h"], inp["t"])
        return sesqc.compile_unitary(inp["u"])

    def verify(self, inp: dict, schedule) -> tuple[list[str], float, int]:
        import checks  # scipy loads after set-up is measured

        doc = checks.schedule_doc(schedule)
        target = checks.evolution(inp["h"], inp["t"]) if inp["kind"] == "ham" else inp["u"]
        problems = checks.check_unitary_schedule(doc, target, steps=1 if inp["kind"] == "sym" else None)
        return problems, doc["duration_ns"], 0


class Prepare:
    """``sesqc prepare`` then ``sesqc simulate``, in-process through ``sesqc.cli.main``."""

    name = "prepare"
    # Modes alternate op by op.
    PATTERN = [
        ("linear", 8), ("three-step", 16), ("linear", 32), ("three-step", 8),
        ("linear", 16), ("three-step", 8), ("linear", 8), ("three-step", 16),
        ("linear", 32), ("three-step", 8), ("linear", 16), ("three-step", 32),
        ("linear", 16), ("three-step", 8), ("linear", 32), ("three-step", 16),
        ("linear", 8), ("three-step", 8), ("linear", 16), ("three-step", 16),
    ]

    def __init__(self, workdir: Path):
        self.state_path = workdir / "state.json"
        self.schedule_path = workdir / "schedule.json"

    def make(self, kind: str, n: int, rng: np.random.Generator) -> dict:
        target = _state(n, rng)
        doc = {"n": n, "amplitudes": [[float(z.real), float(z.imag)] for z in target]}
        self.state_path.write_text(json.dumps(doc))
        return {"kind": kind, "n": n, "target": target, "seed": int(rng.integers(2**31))}

    def run(self, inp: dict) -> dict:
        out = {}
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            out["prepare_rc"] = sesqc.cli.main([
                "prepare", str(self.state_path), "--mode", inp["kind"],
                "--out", str(self.schedule_path),
            ])
            start = buf.tell()
            out["simulate_rc"] = sesqc.cli.main([
                "simulate", str(self.schedule_path),
                "--shots", str(SIMULATE_SHOTS), "--seed", str(inp["seed"]),
            ])
        out["simulate_stdout"] = buf.getvalue()[start:]
        return out

    def verify(self, inp: dict, out: dict) -> tuple[list[str], float, int]:
        import checks  # scipy loads after set-up is measured

        if out["prepare_rc"] != 0 or out["simulate_rc"] != 0:
            return [f"exit codes {out['prepare_rc']}, {out['simulate_rc']}"], 0.0, 0
        raw = self.schedule_path.read_bytes()
        doc = json.loads(raw)
        problems, u = checks.check_prep_schedule(doc, inp["target"], inp["kind"])
        if u is not None:
            problems += checks.check_simulation(json.loads(out["simulate_stdout"]), u, SIMULATE_SHOTS)
        return problems, float(doc["duration_ns"]), len(raw)


class Expect:
    """Library ``expectation_protocol``: mixed states read exactly, pure states sampled."""

    name = "expect"
    # kinds: rho -> Wishart density matrix, exact probabilities;
    # pure -> random pure state, EXPECT_SHOTS seeded shots.
    PATTERN = [
        ("rho", 8), ("pure", 16), ("rho", 16), ("pure", 8), ("rho", 32),
        ("pure", 8), ("rho", 8), ("pure", 16), ("rho", 16), ("pure", 8),
        ("rho", 8), ("pure", 8), ("rho", 16), ("pure", 16), ("rho", 8),
        ("pure", 8), ("rho", 16), ("pure", 16), ("rho", 8), ("pure", 8),
    ]

    def __init__(self, workdir: Path):
        self.schedules = []
        observables = sesqc.observables
        decompose = sesqc.decompose

        def tap(*args, **kwargs):
            # Keep the read-out schedule for the checks; the lookup through
            # the module lets a tracer wrap compile_unitary underneath.
            schedule = decompose.compile_unitary(*args, **kwargs)
            self.schedules.append(schedule)
            return schedule

        observables.compile_unitary = tap

    def make(self, kind: str, n: int, rng: np.random.Generator) -> dict:
        inp = {"kind": kind, "n": n, "o": _hermitian(n, rng)}
        if kind == "rho":
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = z @ z.conj().T
            inp["rho"] = rho / np.trace(rho).real
        else:
            inp["psi"] = _state(n, rng)
            inp["seed"] = int(rng.integers(2**31))
        return inp

    def run(self, inp: dict):
        self.schedules.clear()
        if inp["kind"] == "rho":
            return sesqc.expectation_protocol(inp["rho"], inp["o"])
        state = sesqc.SESState(inp["psi"])
        return sesqc.expectation_protocol(state, inp["o"], shots=EXPECT_SHOTS, seed=inp["seed"])

    def verify(self, inp: dict, estimate) -> tuple[list[str], float, int]:
        import checks  # scipy loads after set-up is measured

        if len(self.schedules) != 1:
            return [f"{len(self.schedules)} read-out schedules compiled, want 1"], 0.0, 0
        doc = checks.schedule_doc(self.schedules[0])
        problems = checks.check_rotation(doc, inp["o"])
        if inp["kind"] == "rho":
            problems += checks.check_expectation(estimate.value, inp["rho"], inp["o"], None)
        else:
            problems += checks.check_expectation(estimate.value, inp["psi"], inp["o"], EXPECT_SHOTS)
        return problems, doc["duration_ns"], 0


WORKLOADS = {w.name: w for w in (Compile, Prepare, Expect)}


def inputs(workload, seed: int, cycle: int):
    """The inputs of one cycle, each made when it is reached: a ``prepare``
    input writes the state file that its operation reads."""
    for slot, (kind, n) in enumerate(workload.PATTERN):
        rng = np.random.default_rng([seed, cycle, slot])
        yield workload.make(kind, n, rng)
