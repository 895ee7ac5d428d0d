"""Pure/mixed state evolution and measurement sampling tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sesqc.pulses
from sesqc.errors import DimensionMismatch, InvalidDensityMatrix
from sesqc.linalg import expm_generator, random_unitary
from sesqc.pulses import DeviceParams, PulseSchedule, PulseStep
from sesqc.simulator import (
    DensityMatrixState,
    MeasurementRecord,
    evolve_density,
    evolve_pure,
    measure,
    occupations,
    run_schedule,
)
from sesqc.stateprep import SESState, uniform_state


def random_step(n, rng, label=""):
    k = rng.normal(size=(n, n))
    k = (k + k.T) / 2
    k /= np.max(np.abs(k))
    return PulseStep(k=k, theta=float(rng.uniform(0.1, 2.0)), label=label)


def random_density(n, rng):
    """Random full-rank density matrix."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return DensityMatrixState(m / np.trace(m).real)


# ---------------------------------------------------------------------------
# density matrix container


def test_density_matrix_validation():
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrixState(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrixState(np.eye(2))  # trace 2
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrixState(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrixState(np.zeros((2, 3)))


def test_density_from_pure():
    s = SESState.normalized([1.0, 1j])
    rho = DensityMatrixState.from_pure(s)
    np.testing.assert_allclose(rho.matrix, np.outer(s.amplitudes, s.amplitudes.conj()))
    np.testing.assert_allclose(occupations(rho), s.weights)


def test_density_matrix_frozen():
    rho = DensityMatrixState.from_pure(SESState.basis(2))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def diagonal_density(lam_min):
    """Diagonal unit-trace matrix whose smallest eigenvalue is ``lam_min``."""
    return np.diag([0.5, 0.3, 0.2 - lam_min, lam_min])


def test_density_accepts_eigenvalue_above_floor():
    """Guard: -5e-10 is above the -1e-9 floor, as it was for the eigensolve."""
    rho = DensityMatrixState(diagonal_density(-5e-10))
    assert rho.matrix[3, 3] == -5e-10


def test_density_rejects_eigenvalue_below_floor():
    """Guard: the message still reports lambda_min."""
    with pytest.raises(InvalidDensityMatrix, match="negative eigenvalue -2.000e-09"):
        DensityMatrixState(diagonal_density(-2e-9))


def test_density_accepts_rank_one():
    """Guard: a pure state's rho has n - 1 zero eigenvalues."""
    rng = np.random.default_rng(45)
    a = SESState.normalized(rng.normal(size=6) + 1j * rng.normal(size=6)).amplitudes
    rho = DensityMatrixState(np.outer(a, a.conj()))
    np.testing.assert_allclose(occupations(rho), np.abs(a) ** 2, atol=1e-15)


def test_density_factorisation_failure_is_invalid(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(InvalidDensityMatrix, match="negative eigenvalue"):
        DensityMatrixState(np.eye(3) / 3)


def test_density_checks_make_no_eigensolve(eig_calls):
    rng = np.random.default_rng(46)
    rho = random_density(5, rng)
    DensityMatrixState(rho.matrix)
    DensityMatrixState.from_pure(SESState.normalized(rng.normal(size=5)))
    assert sum(eig_calls.values()) == 0


# ---------------------------------------------------------------------------
# evolution


def test_evolve_pure_matches_matrix_product():
    rng = np.random.default_rng(40)
    s = SESState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
    step = random_step(4, rng)
    out = evolve_pure(s, step)
    expected = expm_generator(step.theta, step.k) @ s.amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-13)


def test_evolve_density_matches_conjugation():
    rng = np.random.default_rng(41)
    rho = random_density(3, rng)
    step = random_step(3, rng)
    u = expm_generator(step.theta, step.k)
    out = evolve_density(rho, step)
    np.testing.assert_allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-13)


def test_evolve_dimension_mismatch():
    rng = np.random.default_rng(42)
    with pytest.raises(DimensionMismatch):
        evolve_pure(SESState.basis(3), random_step(4, rng))
    with pytest.raises(DimensionMismatch):
        evolve_density(random_density(3, rng), random_step(4, rng))


def test_run_schedule_order_and_types():
    rng = np.random.default_rng(43)
    steps = tuple(random_step(3, rng, label=f"s{i}") for i in range(3))
    schedule = PulseSchedule(n=3, steps=steps, device=DeviceParams())
    s = SESState.basis(3)
    expected = s.amplitudes
    for step in steps:
        expected = expm_generator(step.theta, step.k) @ expected
    out = run_schedule(s, schedule)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-13)
    with pytest.raises(TypeError):
        run_schedule(np.zeros(3), schedule)
    with pytest.raises(DimensionMismatch):
        run_schedule(SESState.basis(4), schedule)


def test_run_schedule_density_consistent_with_pure():
    rng = np.random.default_rng(44)
    steps = tuple(random_step(4, rng) for _ in range(4))
    schedule = PulseSchedule(n=4, steps=steps, device=DeviceParams())
    s = SESState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
    pure_out = run_schedule(s, schedule)
    rho_out = run_schedule(DensityMatrixState.from_pure(s), schedule)
    np.testing.assert_allclose(
        rho_out.matrix,
        np.outer(pure_out.amplitudes, pure_out.amplitudes.conj()),
        atol=1e-12,
    )


@st.composite
def schedules_and_states(draw):
    """A random schedule (possibly empty, possibly n = 1) and a pure state.

    Entries are multiples of 1/8 so that repeated and zero eigenvalues of K
    are common.
    """
    n = draw(st.integers(1, 5))
    entry = st.integers(-8, 8).map(lambda x: x / 8.0)
    steps = []
    for i in range(draw(st.integers(0, 5))):
        a = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
        theta = draw(st.floats(0.0, 10.0, allow_nan=False))
        steps.append(PulseStep(k=(a + a.T) / 2.0, theta=theta, label=f"s{i}"))
    amps = np.array(draw(st.lists(entry, min_size=2 * n, max_size=2 * n)))
    amps = amps[:n] + 1j * amps[n:]
    assume(np.any(amps))
    return PulseSchedule(n=n, steps=tuple(steps)), SESState.normalized(amps)


@settings(deadline=None, max_examples=60)
@given(schedules_and_states())
def test_run_schedule_matches_stepwise_evolution(case):
    schedule, state = case
    psi = state.amplitudes
    for step in schedule.steps:
        psi = expm_generator(step.theta, step.k) @ psi
    np.testing.assert_allclose(run_schedule(state, schedule).amplitudes, psi, rtol=0, atol=1e-12)
    rho = run_schedule(DensityMatrixState.from_pure(state), schedule)
    np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), rtol=0, atol=1e-12)


def test_run_schedule_rejects_nonunitary_product_on_density(monkeypatch):
    """The evolved density matrix skips its eigensolve only because U is
    unitary, so a non-unitary product is refused.  This one keeps
    ``U rho U†`` Hermitian with unit trace, so only that check can fire."""
    monkeypatch.setattr(sesqc.pulses, "expm_generator",
                        lambda theta, k: np.diag([np.sqrt(2.0), 0.0, 1.0, 1.0]))
    schedule = PulseSchedule(n=4, steps=(PulseStep(k=np.full((4, 4), 0.5), theta=1.0),))
    rho = DensityMatrixState(np.eye(4) / 4)
    with pytest.raises(InvalidDensityMatrix, match="unitarity"):
        run_schedule(rho, schedule)


def test_norm_preserved_over_long_schedule():
    """A hundred pulses leave the norm at 1 to near machine precision."""
    rng = np.random.default_rng(45)
    steps = tuple(random_step(5, rng) for _ in range(100))
    schedule = PulseSchedule(n=5, steps=steps, device=DeviceParams())
    out = run_schedule(SESState.basis(5), schedule)
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-11


def test_schedule_of_unitary_preserves_purity():
    rng = np.random.default_rng(46)
    u = random_unitary(4, rng)
    rho = random_density(4, rng)
    from sesqc.decompose import compile_unitary

    schedule = compile_unitary(u)
    out = run_schedule(rho, schedule)
    expected = u @ rho.matrix @ u.conj().T
    # conjugation kills the compiled schedule's global phase
    np.testing.assert_allclose(out.matrix, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# measurement


def test_occupations_pure_and_mixed():
    s = SESState.normalized([2.0, 1.0, 1.0])
    np.testing.assert_allclose(occupations(s), [4 / 6, 1 / 6, 1 / 6])
    np.testing.assert_allclose(occupations(DensityMatrixState.from_pure(s)), s.weights)


def test_measure_is_seeded():
    s = uniform_state(4)
    a = measure(s, shots=1000, seed=911)
    b = measure(s, shots=1000, seed=911)
    c = measure(s, shots=1000, seed=912)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.seed == 911 and a.rng_name == "numpy-pcg64"


def test_measure_counts_sum_to_shots():
    rng = np.random.default_rng(47)
    s = SESState.normalized(rng.normal(size=6) + 1j * rng.normal(size=6))
    record = measure(s, shots=12345, seed=0)
    assert int(record.counts.sum()) == 12345
    np.testing.assert_allclose(record.frequencies.sum(), 1.0)


def test_measure_frequencies_approach_weights():
    s = SESState.normalized([3.0, 2.0, 1.0])
    record = measure(s, shots=200_000, seed=7)
    np.testing.assert_allclose(record.frequencies, s.weights, atol=5e-3)


def test_measure_validates_shots():
    with pytest.raises(ValueError):
        measure(uniform_state(2), shots=0)


@pytest.mark.parametrize("shots", [2.5, 3.0, True, False, np.float64(4.0), "10"])
def test_measure_rejects_non_integer_shots(shots):
    with pytest.raises(ValueError, match="integer"):
        measure(uniform_state(3), shots=shots, seed=1)


def test_measure_accepts_numpy_integer_shots():
    record = measure(uniform_state(3), shots=np.int64(7), seed=1)
    assert record.shots == 7 and type(record.shots) is int
    assert np.array_equal(record.counts, measure(uniform_state(3), shots=7, seed=1).counts)


def test_measure_bounds_shots_by_int64():
    """The sampler counts in int64: one more shot is a ValueError, not an OverflowError."""
    with pytest.raises(ValueError, match="shots must be in"):
        measure(uniform_state(3), shots=2**63, seed=1)
    with pytest.raises(ValueError, match="shots must be in"):
        measure(uniform_state(3), shots=10**20, seed=1)
    record = measure(SESState.basis(3, 2), shots=2**63 - 1, seed=1)
    assert record.shots == 2**63 - 1 and record.counts[2] == 2**63 - 1


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True, "1", [1, 2]])
def test_measure_refuses_bad_seed(seed):
    """A seed is None or a non-negative integer, refused by name otherwise."""
    with pytest.raises(ValueError, match="seed must be None or a non-negative integer"):
        measure(uniform_state(3), shots=10, seed=seed)


def test_measure_accepts_numpy_integer_seed():
    assert np.array_equal(measure(uniform_state(3), shots=50, seed=np.uint32(4)).counts,
                          measure(uniform_state(3), shots=50, seed=4).counts)


def test_measurement_record_checks_totals():
    with pytest.raises(ValueError):
        MeasurementRecord(shots=10, counts=np.array([3, 3]), seed=None)


def test_basis_state_measures_deterministically():
    record = measure(SESState.basis(5, 3), shots=100, seed=1)
    assert record.counts[3] == 100
