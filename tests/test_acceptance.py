"""Acceptance gate: one check per release criterion.

Each test prints a single ``ACCEPTANCE k: PASS/FAIL - detail`` line straight
to the terminal (bypassing capture) and then asserts, so a full run always
shows one verdict line per criterion.
"""

import time

import numpy as np
import pytest

import golden
from sesqc import cli
from sesqc.decompose import (
    aba_decompose,
    compile_unitary,
    kak_decompose,
    schedule_unitary,
)
from sesqc.errors import SesqcError
from sesqc.formats import (
    load_matrix,
    load_schedule,
    load_state,
    save_matrix,
    save_schedule,
    save_state,
)
from sesqc.linalg import (
    expm_generator,
    global_phase_fidelity,
    max_abs,
    random_unitary,
)
from sesqc.observables import expectation_exact, expectation_protocol
from sesqc.pulses import (
    DeviceParams,
    PulseSchedule,
    PulseStep,
    compile_symmetric_generator,
    optimal_shift,
    rotation_angle,
)
from sesqc.simulator import DensityMatrixState, run_schedule
from sesqc.stateprep import (
    SESState,
    compiled_prep_unitary,
    prepare_state_schedule,
    reduce_to_uniform,
)

_T0 = time.perf_counter()


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_state(n, rng):
    return SESState.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))


@pytest.fixture(scope="module")
def unitary_sample():
    """200 random unitaries per n in 2..16, shared by criteria 3 and 4."""
    rng = np.random.default_rng(20_260_825)
    return {n: [random_unitary(n, rng) for _ in range(200)] for n in range(2, 17)}


def test_criterion_01_reference_pulse_parameters(capsys):
    start = time.perf_counter()
    theta_a = rotation_angle(golden.GENERATOR_A, optimal_shift(golden.GENERATOR_A))
    theta_b = rotation_angle(golden.GENERATOR_B, optimal_shift(golden.GENERATOR_B))
    k_a = compile_symmetric_generator(golden.GENERATOR_A).k
    k_b = compile_symmetric_generator(golden.GENERATOR_B).k
    elapsed = time.perf_counter() - start
    checks = {
        "theta_a": abs(theta_a - golden.THETA_A) <= 5e-4,
        "theta_b": abs(theta_b - golden.THETA_B) <= 5e-4,
        "k_a_22": abs(k_a[1, 1] - (-1.0)) <= 1e-3,
        "k_a_44": abs(k_a[3, 3] - 1.0) <= 1e-3,
        "k_b_12": abs(k_b[0, 1] - 1.0) <= 1e-3,
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report(
        capsys, 1, ok,
        f"theta_a={theta_a:.5f} theta_b={theta_b:.5f} "
        f"K_a[1,1]={k_a[1, 1]:.4f} K_a[3,3]={k_a[3, 3]:.4f} K_b[0,1]={k_b[0, 1]:.4f} "
        f"({elapsed * 1e3:.1f} ms)",
    )
    assert ok, checks


def test_criterion_02_duration_formula(capsys):
    step = PulseStep(k=np.zeros((5, 5)), theta=golden.THETA_TOTAL)
    schedule = PulseSchedule(
        n=5, steps=(step,), device=DeviceParams(g_max_mhz_over_2pi=50.0)
    )
    ok = abs(schedule.duration_ns - golden.DURATION_NS) <= 0.1
    _report(
        capsys, 2, ok,
        f"theta_total={golden.THETA_TOTAL} at 50 MHz -> {schedule.duration_ns:.4f} ns "
        f"(want {golden.DURATION_NS} +/- 0.1)",
    )
    assert ok


def test_criterion_03_compile_round_trip(capsys, unitary_sample):
    start = time.perf_counter()
    total = 0
    failures = []
    for n, batch in unitary_sample.items():
        for i, u in enumerate(batch):
            total += 1
            try:
                schedule = compile_unitary(u)
                fidelity = global_phase_fidelity(schedule_unitary(schedule), u)
                if not fidelity >= 1 - 1e-8:
                    failures.append((n, i, fidelity))
            except SesqcError as exc:
                failures.append((n, i, repr(exc)))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        capsys, 3, ok,
        f"{total - len(failures)}/{total} round trips at fidelity >= 1-1e-8 "
        f"in {elapsed:.1f} s (budget 120 s)",
    )
    assert ok, (f"{elapsed:.1f} s", failures[:5])


def test_criterion_04_kak_validity(capsys, unitary_sample):
    rng = np.random.default_rng(4)
    extras = []
    g = rng.normal(size=(6, 6))
    extras.append(expm_generator(1.0, (g + g.T) / 2))  # symmetric unitary
    o, r = np.linalg.qr(rng.normal(size=(6, 6)))
    extras.append((o * np.sign(np.diagonal(r))).astype(np.complex128))  # real orthogonal
    o1, r1 = np.linalg.qr(rng.normal(size=(6, 6)))
    o2, r2 = np.linalg.qr(rng.normal(size=(6, 6)))
    d = np.array([0.7, 0.7, 0.7, -0.4, -0.4, 1.2])  # repeated half-angle phases
    extras.append(((o1 * np.sign(np.diagonal(r1))) * np.exp(-1j * d))
                  @ (o2 * np.sign(np.diagonal(r2))).T)

    failures = []
    total = 0
    for u in [u for batch in unitary_sample.values() for u in batch] + extras:
        total += 1
        try:
            kak = kak_decompose(u)
            n = u.shape[0]
            checks = [
                max_abs(kak.o1.T @ kak.o1 - np.eye(n)) <= 1e-8,
                max_abs(kak.o2.T @ kak.o2 - np.eye(n)) <= 1e-8,
                max_abs(kak.reconstruct() - u) <= 1e-8,
            ]
            if not all(checks):
                failures.append((n, checks))
        except SesqcError as exc:
            failures.append(repr(exc))
    ok = not failures
    _report(
        capsys, 4, ok,
        f"{total - len(failures)}/{total} decompositions orthogonal and "
        f"reconstructed to 1e-8 (incl. degenerate fixtures)",
    )
    assert ok, failures[:5]


def test_criterion_05_reference_state_preparation(capsys):
    target = SESState(golden.normalized_target())
    fidelities = {}
    for mode in ("linear", "three_step"):
        schedule, plan = prepare_state_schedule(target, mode=mode)
        final = run_schedule(SESState.basis(5, 0), schedule)
        fidelities[mode] = abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2
    u = compiled_prep_unitary(target)
    phase = np.vdot(u[:, 0], golden.TARGET_AMPLITUDES)
    column_err = float(
        np.max(np.abs(u[:, 0] * phase / abs(phase) - golden.TARGET_AMPLITUDES))
    )
    checks = {
        "linear": fidelities["linear"] >= 1 - 1e-8,
        "three_step": fidelities["three_step"] >= 1 - 1e-8,
        "column": column_err <= 5e-4,
        "moves": plan.m <= 4,
    }
    ok = all(checks.values())
    _report(
        capsys, 5, ok,
        f"fidelity linear={fidelities['linear']:.10f} three_step={fidelities['three_step']:.10f} "
        f"column_err={column_err:.2e} M={plan.m}",
    )
    assert ok, checks


def test_criterion_06_reduction_move_bound(capsys):
    rng = np.random.default_rng(6)
    violations = 0
    total = 0
    for n in range(2, 17):
        for _ in range(100):
            total += 1
            pairs, _ = reduce_to_uniform(random_state(n, rng))
            if len(pairs) > n - 1:
                violations += 1
    ok = violations == 0
    _report(capsys, 6, ok, f"{violations}/{total} targets exceeded n-1 reduction moves")
    assert ok


def test_criterion_07_angle_scaling(capsys):
    rng = np.random.default_rng(7)

    def mean_total_angle(n, reps=200):
        totals = []
        for _ in range(reps):
            schedule, _ = prepare_state_schedule(random_state(n, rng), mode="three_step")
            totals.append(schedule.total_angle)
        return float(np.mean(totals))

    sizes = [4, 8, 16, 32]
    means = [mean_total_angle(n) for n in sizes]
    mean5 = mean_total_angle(5)
    exponent = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    ok = 0.0 <= exponent <= 0.15 and 3.3 <= mean5 <= 5.5
    _report(
        capsys, 7, ok,
        f"mean(2*theta_a+theta_b) {[round(m, 3) for m in means]} for n={sizes}, "
        f"fit exponent {exponent:.3f} (band [0, 0.15]), n=5 mean {mean5:.3f} "
        f"(band [3.3, 5.5])",
    )
    assert ok


def test_criterion_08_expectation_protocol(capsys):
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = a @ a.conj().T
        rho = DensityMatrixState(m / np.trace(m).real)
        o = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pairs.append((rho, (o + o.conj().T) / 2))

    exact_failures = 0
    for rho, o in pairs:
        estimate = expectation_protocol(rho, o)
        if abs(estimate.value - expectation_exact(rho, o)) > 1e-8:
            exact_failures += 1

    shots = 10**6
    trials = 0
    sampled_failures = 0
    for idx, (rho, o) in enumerate(pairs):
        exact = expectation_exact(rho, o)
        for seed in range(40):
            trials += 1
            estimate = expectation_protocol(rho, o, shots=shots, seed=1000 * idx + seed)
            if abs(estimate.value - exact) > 5 * estimate.std_error_bound:
                sampled_failures += 1
    hit_rate = 1.0 - sampled_failures / trials
    ok = exact_failures == 0 and hit_rate >= 0.999
    _report(
        capsys, 8, ok,
        f"exact mode: {50 - exact_failures}/50 match trace to 1e-8; sampled mode: "
        f"{trials - sampled_failures}/{trials} within 5x error bound ({hit_rate:.2%})",
    )
    assert ok


def test_criterion_09_bench_report(capsys):
    code = cli.main(["bench-decompose", "--sizes", "8,16,32", "--reps", "2"])
    captured = capsys.readouterr()
    ok = code == 0 and "scaling fit" in captured.out
    fit_line = [line for line in captured.out.splitlines() if "scaling fit" in line]
    _report(
        capsys, 9, ok,
        f"informational only: {fit_line[0].strip() if fit_line else 'no fit reported'}",
    )
    assert ok


def test_criterion_10_runtime_and_round_trip(capsys, tmp_path):
    rng = np.random.default_rng(10)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    save_matrix(tmp_path / "m.json", m)
    bit_exact = np.array_equal(load_matrix(tmp_path / "m.json"), m)

    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    save_state(tmp_path / "s.json", a)
    bit_exact &= np.array_equal(load_state(tmp_path / "s.json"), a)

    schedule = compile_unitary(random_unitary(3, rng))
    save_schedule(tmp_path / "sched.json", schedule, source="compile")
    back = load_schedule(tmp_path / "sched.json")
    bit_exact &= all(
        np.array_equal(x.k, y.k) and x.theta == y.theta and x.label == y.label
        for x, y in zip(back.steps, schedule.steps)
    )

    elapsed = time.perf_counter() - _T0
    ok = bool(bit_exact) and elapsed < 600.0
    _report(
        capsys, 10, ok,
        f"formats bit-exact: {bool(bit_exact)}; acceptance module wall clock "
        f"{elapsed:.1f} s (budget 600 s)",
    )
    assert ok
