"""Standard-form pulse compilation tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden
from sesqc.errors import DimensionMismatch, NotHermitian
from sesqc.linalg import expm_generator, max_abs
from sesqc.pulses import (
    DEFAULT_GMAX_MHZ,
    DeviceParams,
    PulseSchedule,
    PulseStep,
    compile_diagonal_phases,
    compile_symmetric_generator,
    optimal_shift,
    rotation_angle,
    schedule_duration_ns,
)


def expm_series(m, terms=60):
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# reference five-qubit example


def test_reference_rotation_angles():
    theta_a = rotation_angle(golden.GENERATOR_A, optimal_shift(golden.GENERATOR_A))
    theta_b = rotation_angle(golden.GENERATOR_B, optimal_shift(golden.GENERATOR_B))
    assert theta_a == pytest.approx(golden.THETA_A, abs=5e-4)
    assert theta_b == pytest.approx(golden.THETA_B, abs=5e-4)


def test_reference_shift_values():
    # midpoint of the extreme diagonal entries
    assert optimal_shift(golden.GENERATOR_A) == pytest.approx(-1.61395, abs=1e-9)
    assert optimal_shift(golden.GENERATOR_B) == pytest.approx(-3.6181, abs=1e-9)


def test_reference_k_matrices():
    step_a = compile_symmetric_generator(golden.GENERATOR_A)
    step_b = compile_symmetric_generator(golden.GENERATOR_B)
    np.testing.assert_allclose(step_a.k, golden.K_A, atol=1e-3)
    np.testing.assert_allclose(step_b.k, golden.K_B, atol=1e-3)
    # saturating entries
    assert step_a.k[1, 1] == pytest.approx(-1.0, abs=1e-3)
    assert step_a.k[3, 3] == pytest.approx(1.0, abs=1e-3)
    assert step_b.k[0, 1] == pytest.approx(1.0, abs=1e-3)


def test_reference_duration():
    """2*theta_A + theta_B at 50 MHz runs in about 13 ns."""
    steps = [
        compile_symmetric_generator(-golden.GENERATOR_A),
        compile_symmetric_generator(golden.GENERATOR_B),
        compile_symmetric_generator(golden.GENERATOR_A),
    ]
    schedule = PulseSchedule(n=5, steps=tuple(steps), device=DeviceParams())
    assert schedule.total_angle == pytest.approx(golden.THETA_TOTAL, abs=2e-4)
    assert schedule.duration_ns == pytest.approx(golden.DURATION_NS, abs=0.1)
    assert schedule_duration_ns(schedule) == schedule.duration_ns


# ---------------------------------------------------------------------------
# shift and angle


def test_optimal_shift_minimizes_angle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(2, 9)
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        c_star = optimal_shift(a)
        best = rotation_angle(a, c_star)
        for c in np.linspace(c_star - 2.0, c_star + 2.0, 41):
            assert best <= rotation_angle(a, c) + 1e-12


def test_rotation_angle_zero_for_identity_multiples():
    assert rotation_angle(3.7 * np.eye(4), 3.7) == 0.0


# ---------------------------------------------------------------------------
# compile_symmetric_generator


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(-10.0, 300.0))
def test_compiled_step_saturates(n, seed, exponent):
    """max|K| == 1 exactly, for generators at scales from 1e-10 to 1e300."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0.5, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)))
    a = (upper + np.triu(upper, 1).T) * 10.0**exponent
    step = compile_symmetric_generator(a)
    assert max_abs(step.k) == 1.0


def test_compiled_step_reproduces_generator():
    """exp(-i*theta*K) equals exp(-i*A) up to the shift's global phase."""
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 5))
    a = (a + a.T) / 2
    step = compile_symmetric_generator(a)
    u_step = expm_series(-1j * step.theta * step.k)
    u_a = expm_series(-1j * a)
    overlap = np.trace(u_step.conj().T @ u_a) / 5
    np.testing.assert_allclose(u_step * overlap / abs(overlap), u_a, atol=1e-12)


def test_identity_multiple_compiles_to_zero_step():
    step = compile_symmetric_generator(2.5 * np.eye(4), label="idle")
    assert step.theta == 0.0
    assert max_abs(step.k) == 0.0
    assert step.label == "idle"


# ---------------------------------------------------------------------------
# containers


def test_pulse_step_validation():
    with pytest.raises(NotHermitian):
        PulseStep(k=np.array([[0.0, 1.0], [0.5, 0.0]]), theta=1.0)
    with pytest.raises(ValueError):
        PulseStep(k=np.array([[0.0, 1.5], [1.5, 0.0]]), theta=1.0)
    with pytest.raises(ValueError):
        PulseStep(k=np.zeros((2, 2)), theta=-0.1)
    with pytest.raises(ValueError):
        PulseStep(k=np.zeros((2, 2)), theta=np.inf)


def test_pulse_step_clips_range_slack():
    k = np.array([[1.0 + 5e-10, 0.0], [0.0, -1.0]])
    step = PulseStep(k=k, theta=0.5)
    assert max_abs(step.k) == 1.0


def test_pulse_step_arrays_frozen():
    step = PulseStep(k=np.zeros((3, 3)), theta=0.0)
    with pytest.raises(ValueError):
        step.k[0, 0] = 1.0


def test_schedule_unitary_cached_and_read_only():
    rng = np.random.default_rng(12)
    ks = [rng.normal(size=(3, 3)) for _ in range(2)]
    steps = tuple(PulseStep(k=(k + k.T) / (2 * max_abs(k)), theta=0.7) for k in ks)
    schedule = PulseSchedule(n=3, steps=steps)
    u = schedule.unitary
    assert schedule.unitary is u
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    with pytest.raises(AttributeError):
        schedule.unitary = np.eye(3)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-13)
    empty = PulseSchedule(n=2, steps=())
    assert np.array_equal(empty.unitary, np.eye(2))


# ---------------------------------------------------------------------------
# closed-form products of diagonal and two-level pulses

K_KINDS = ("diag", "pair", "pair_diag", "dense")


def k_of_kind(kind, n, rng):
    """Coupling matrix with the nonzero pattern ``kind``; pairs need n >= 2."""
    k = np.zeros((n, n))
    if kind == "diag":
        k[np.diag_indices(n)] = rng.uniform(-1, 1, n) * (rng.random(n) < 0.7)
    elif kind == "dense":
        a = rng.uniform(-1, 1, (n, n))
        k = (a + a.T) / 2
    else:
        i, j = rng.choice(n, size=2, replace=False)
        k[i, j] = k[j, i] = rng.uniform(0.1, 1) * rng.choice([-1, 1])
        if kind == "pair_diag":
            d = rng.integers(n)
            k[d, d] = rng.uniform(0.1, 1)
    return k


@st.composite
def mixed_schedules(draw):
    """Schedules mixing diagonal, single-pair, pair-plus-diagonal and dense K."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for kind in draw(st.lists(st.sampled_from(K_KINDS), max_size=6)):
        if n == 1 and kind != "dense":
            kind = "diag"
        theta = draw(st.floats(0.0, 1e3, allow_nan=False))
        steps.append(PulseStep(k=k_of_kind(kind, n, rng), theta=theta, label=kind))
    return PulseSchedule(n=n, steps=tuple(steps))


@settings(deadline=None, max_examples=80)
@given(mixed_schedules())
def test_schedule_unitary_matches_dense_exponentials(schedule):
    u = np.eye(schedule.n, dtype=np.complex128)
    for step in schedule.steps:
        u = expm_generator(step.theta, step.k) @ u
    np.testing.assert_allclose(schedule.unitary, u, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(("diag", "pair", "dense")), min_size=1, max_size=6))
def test_schedule_unitary_reads_signed_zeros_as_zeros(expm_calls, n, seed, kinds):
    """-0.0 entries of K count as zeros: a diagonal or single-pair K holding
    them still takes its closed form (a 1x1 K is diagonal), and the product
    matches the dense exponentials to 1e-12 at the sizes of the linear
    protocol's schedules."""
    rng = np.random.default_rng(seed)
    steps = []
    for kind in kinds:
        k = k_of_kind("diag" if n == 1 and kind == "pair" else kind, n, rng)
        negative = np.triu(rng.random((n, n)) < 0.5)
        steps.append(PulseStep(k=np.where((k == 0.0) & (negative | negative.T), -0.0, k),
                               theta=rng.uniform(0.0, 10.0), label=kind))
    before = expm_calls["expm_generator"]
    u = PulseSchedule(n=n, steps=tuple(steps)).unitary
    assert expm_calls["expm_generator"] - before == (kinds.count("dense") if n > 1 else 0)
    want = np.eye(n, dtype=np.complex128)
    for step in steps:
        want = expm_generator(step.theta, step.k) @ want
    np.testing.assert_allclose(u, want, rtol=0, atol=1e-12)


def test_schedule_unitary_exponentiates_only_dense_steps(expm_calls):
    """Diagonal and single-pair K take the closed forms; a pair with a
    diagonal entry and a dense K are exponentiated."""
    rng = np.random.default_rng(31)
    steps = tuple(PulseStep(k=k_of_kind(kind, 6, rng), theta=0.9, label=kind)
                  for kind in ("diag", "pair", "pair_diag", "dense", "diag", "pair"))
    PulseSchedule(n=6, steps=steps).unitary
    assert expm_calls["expm_generator"] == 2


@pytest.mark.parametrize("theta", [1e6, 1e12])
@pytest.mark.parametrize("kind", ["diag", "pair"])
def test_closed_form_pulses_stay_unitary_at_large_angle(kind, theta):
    rng = np.random.default_rng(32)
    steps = tuple(PulseStep(k=k_of_kind(kind, 8, rng), theta=theta) for _ in range(10))
    u = PulseSchedule(n=8, steps=steps).unitary
    assert max_abs(u.conj().T @ u - np.eye(8)) <= 1e-13


@st.composite
def phase_vectors(draw):
    """Phases in [-4*pi, 4*pi]: arbitrary, all equal, one distinct, straddling
    0 = 2*pi, or 1e-15 apart."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["any", "equal", "one_distinct", "straddle", "close"]))
    value = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)
    if kind == "any":
        return np.array(draw(st.lists(value, min_size=n, max_size=n)))
    base = draw(value)
    if kind == "equal":
        return np.full(n, base)
    if kind == "one_distinct":
        p = np.full(n, base)
        p[draw(st.integers(0, n - 1))] = draw(value)
        return p
    if kind == "straddle":
        turns = np.array(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
        offsets = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
        return 2 * np.pi * turns + offsets
    return base + 1e-15 * np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))


@settings(deadline=None, max_examples=300)
@given(phase_vectors())
def test_compile_diagonal_phases_is_minimal(phases):
    n = phases.size
    step = compile_diagonal_phases(phases)
    assert np.array_equal(step.k, np.diag(np.diagonal(step.k)))
    assert step.theta == 0.0 or max_abs(step.k) == 1.0
    u = expm_generator(step.theta, step.k)
    ratio = np.diagonal(u) * np.exp(1j * phases)  # one global phase
    assert max_abs(u - np.diag(np.diagonal(u))) <= 1e-12
    assert max_abs(ratio - ratio[0]) <= 1e-12
    # the widest gap from each distinct phase to its nearest neighbour
    # counterclockwise; a second mod folds a rounded 2*pi onto 0
    p = np.unique(np.mod(np.mod(phases, 2 * np.pi), 2 * np.pi))
    ahead = np.mod(p[None, :] - p[:, None], 2 * np.pi)
    np.fill_diagonal(ahead, 2 * np.pi)
    widest = float(np.max(np.min(ahead, axis=1)))
    if step.theta > 0.0:
        assert step.theta == pytest.approx((2 * np.pi - widest) / 2, abs=1e-12)
    else:
        assert (2 * np.pi - widest) / 2 <= 1e-12
    assert step.theta <= np.pi * (1 - 1 / n) + 1e-12


def test_compile_diagonal_phases_examples():
    step = compile_diagonal_phases([0.0, 0.5, 2 * np.pi - 0.5], label="d")
    assert step.label == "d" and step.theta == pytest.approx(0.5)
    np.testing.assert_allclose(np.diagonal(step.k), [0.0, 1.0, -1.0], atol=1e-15)
    assert compile_diagonal_phases([3.0, 3.0 + 2 * np.pi]).theta == 0.0
    third = compile_diagonal_phases([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    assert third.theta == pytest.approx(2 * np.pi / 3)
    with pytest.raises(ValueError, match="phases"):
        compile_diagonal_phases([np.inf, 0.0])


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(g_max_mhz_over_2pi=0.0)
    assert DeviceParams().g_max_mhz_over_2pi == DEFAULT_GMAX_MHZ


def test_schedule_dimension_check():
    step = PulseStep(k=np.zeros((3, 3)), theta=0.0)
    with pytest.raises(DimensionMismatch):
        PulseSchedule(n=4, steps=(step,), device=DeviceParams())


def test_schedule_totals():
    steps = tuple(
        PulseStep(k=np.zeros((2, 2)), theta=t) for t in (0.5, 1.25, 0.0)
    )
    schedule = PulseSchedule(n=2, steps=steps, device=DeviceParams(g_max_mhz_over_2pi=100.0))
    assert schedule.total_angle == pytest.approx(1.75)
    # theta / (2*pi*g) with g in GHz
    assert schedule.duration_ns == pytest.approx(1.75 / (2 * np.pi * 0.1))
