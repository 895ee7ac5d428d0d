"""Output checks made apart from sesqc.

Schedules are rebuilt with ``scipy.linalg.expm`` and compared with targets
built here from the inputs; nothing in this module calls into sesqc.  Each
check returns a list of problems, empty when the output is correct.
A schedule is the plain document sesqc writes to disk: ``{"n",
"g_max_mhz_over_2pi", "steps": [{"label", "theta", "K"}, ...],
"duration_ns"}`` with steps in execution order.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

MIN_FIDELITY = 1.0 - 1e-8
AMPLITUDE_TOL = 1e-8
K_TOL = 1e-9
DURATION_RTOL = 1e-9
EXACT_VALUE_TOL = 1e-8
SAMPLED_BOUND_FACTOR = 5.0


def schedule_doc(schedule) -> dict:
    """The plain document of an in-memory ``PulseSchedule`` (attributes only)."""
    return {
        "n": schedule.n,
        "g_max_mhz_over_2pi": schedule.device.g_max_mhz_over_2pi,
        "steps": [{"label": s.label, "theta": s.theta, "K": np.asarray(s.k)} for s in schedule.steps],
        "duration_ns": schedule.duration_ns,
    }


def rebuild(doc: dict) -> np.ndarray:
    """Net unitary of a schedule: ``expm(-1j*theta*K)`` applied in execution order."""
    u = np.eye(doc["n"], dtype=np.complex128)
    for step in doc["steps"]:
        k = np.asarray(step["K"], dtype=np.float64)
        u = scipy.linalg.expm(-1j * float(step["theta"]) * k) @ u
    return u


def evolution(h: np.ndarray, t: float) -> np.ndarray:
    """``expm(-1j*t*H)``, the target of a Hamiltonian compile."""
    return scipy.linalg.expm(-1j * t * h)


def fidelity(u: np.ndarray, w: np.ndarray) -> float:
    """Global-phase-insensitive overlap ``|tr(U^dagger W)| / n``."""
    return float(abs(np.trace(u.conj().T @ w)) / u.shape[0])


def check_pulses(doc: dict, saturated: bool = True) -> list[str]:
    """Standard form of every pulse, and the stated duration.

    Each K must be real symmetric with entries in [-1, 1].  With
    ``saturated`` the largest entry must reach magnitude 1 unless theta is
    0: pulses shaped for time optimality hold the coupling at g_max.  The
    fixed-angle pulses of the linear preparation protocol are not shaped
    that way and are checked with ``saturated=False``.
    """
    problems = []
    n = doc["n"]
    total = 0.0
    for index, step in enumerate(doc["steps"]):
        k = np.asarray(step["K"], dtype=np.float64)
        theta = float(step["theta"])
        total += theta
        if k.shape != (n, n):
            problems.append(f"step {index}: K has shape {k.shape}, want {(n, n)}")
            continue
        if not np.isfinite(theta) or theta < 0.0:
            problems.append(f"step {index}: theta {theta} is not finite and >= 0")
        if np.max(np.abs(k - k.T)) > K_TOL:
            problems.append(f"step {index}: K is not symmetric")
        peak = float(np.max(np.abs(k)))
        if peak > 1.0 + K_TOL:
            problems.append(f"step {index}: max|K| = {peak!r} exceeds 1")
        elif saturated and theta != 0.0 and abs(peak - 1.0) > K_TOL:
            problems.append(f"step {index}: max|K| = {peak!r} is not 1")
    ghz = float(doc["g_max_mhz_over_2pi"]) * 1e-3
    want = total / (2.0 * np.pi * ghz)
    got = float(doc["duration_ns"])
    if abs(got - want) > DURATION_RTOL * max(1.0, abs(want)):
        problems.append(f"duration_ns {got!r} != sum(theta)/(2 pi g_max) = {want!r}")
    return problems


def check_unitary_schedule(doc: dict, target: np.ndarray, steps: int | None) -> list[str]:
    """A compiled unitary: at most three pulses (exactly ``steps`` when given),
    standard form, and fidelity with ``target``."""
    count = len(doc["steps"])
    problems = check_pulses(doc)
    if count > 3 or (steps is not None and count != steps):
        problems.append(f"{count} pulses, want {steps if steps is not None else '<= 3'}")
    if not problems:
        f = fidelity(target, rebuild(doc))
        if f < MIN_FIDELITY:
            problems.append(f"fidelity {f!r} below {MIN_FIDELITY}")
    return problems


def check_prep_schedule(doc: dict, target: np.ndarray, mode: str) -> tuple[list[str], np.ndarray | None]:
    """A state preparation: pulse count of ``mode``, standard form, and the
    first column of the rebuilt unitary against the target state.

    Returns the problems and the rebuilt unitary (None if not rebuilt).
    """
    n = doc["n"]
    count = len(doc["steps"])
    problems = []
    if mode == "three-step":
        problems += check_pulses(doc)
        if count != 3:
            problems.append(f"three-step mode emitted {count} pulses")
    else:
        problems += check_pulses(doc, saturated=False)
        moves, odd = divmod(count - 2, 2)
        if odd or not 0 <= moves <= n - 1:
            problems.append(f"linear mode emitted {count} pulses, want 2m+2 with 0 <= m <= {n - 1}")
    if problems:
        return problems, None
    u = rebuild(doc)
    overlap = float(abs(np.vdot(target, u[:, 0])))
    if overlap < MIN_FIDELITY:
        problems.append(f"first column overlaps the target only {overlap!r}")
    return problems, u


def check_simulation(out: dict, u: np.ndarray, shots: int) -> list[str]:
    """``sesqc simulate`` from |1): amplitudes equal column 1 of ``u``; counts sum to shots."""
    problems = []
    amps = np.array([complex(re, im) for re, im in out["amplitudes"]])
    err = float(np.max(np.abs(amps - u[:, 0])))
    if err > AMPLITUDE_TOL:
        problems.append(f"simulated amplitudes differ from the rebuilt schedule by {err:.3e}")
    counts = out["counts"]
    if counts is None or sum(counts) != shots or min(counts) < 0:
        problems.append(f"counts {counts} do not sum to {shots} shots")
    return problems


def check_rotation(doc: dict, observable: np.ndarray) -> list[str]:
    """The read-out schedule maps each eigenvector of O, in ascending order of
    eigenvalue, onto the matching basis state."""
    problems = check_pulses(doc)
    if len(doc["steps"]) > 3:
        problems.append(f"{len(doc['steps'])} pulses, want <= 3")
    if problems:
        return problems
    _, vecs = np.linalg.eigh(observable)
    w = rebuild(doc)
    n = observable.shape[0]
    overlaps = np.abs(np.diagonal(w @ vecs))
    worst = float(overlaps.min())
    if worst < 1.0 - n * (1.0 - MIN_FIDELITY):
        problems.append(f"eigenvector mapped to its basis state with overlap only {worst!r}")
    return problems


def check_expectation(value: float, state: np.ndarray, observable: np.ndarray,
                      shots: int | None) -> list[str]:
    """Exact read-outs equal tr(rho O); sampled ones lie within five times the
    worst-case error bound sum|lambda| / (2 sqrt(shots)) of <psi|O|psi>."""
    if shots is None:
        want = float(np.trace(state @ observable).real)
        tol = EXACT_VALUE_TOL
    else:
        want = float(np.vdot(state, observable @ state).real)
        lam = np.linalg.eigvalsh(observable)
        tol = SAMPLED_BOUND_FACTOR * float(np.sum(np.abs(lam))) / (2.0 * np.sqrt(shots))
    if not abs(value - want) <= tol:
        return [f"<O> = {value!r}, want {want!r} within {tol:.3e}"]
    return []
