"""State-preparation protocol tests (linear and three-pulse modes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from sesqc.errors import AlreadyUniform, IterationOverflow, NonUniformWeights
from sesqc.linalg import global_phase_fidelity, max_abs
from sesqc.simulator import evolve_pure, run_schedule
from sesqc.stateprep import (
    PrepPlan,
    SESState,
    compiled_prep_unitary,
    prepare_state_schedule,
    reduce_to_uniform,
    reduction_step,
    star_uniform_step,
    uniform_state,
    uniform_weight_phases_step,
)


def random_state(n, rng):
    return SESState.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))


# ---------------------------------------------------------------------------
# SESState


def test_state_validation():
    with pytest.raises(ValueError):
        SESState(np.array([1.0, 1.0]))  # not normalised
    with pytest.raises(ValueError):
        SESState(np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        SESState(np.array([]))
    with pytest.raises(ValueError):
        SESState.normalized(np.zeros(3))


def test_state_properties():
    s = SESState.normalized([1.0, -1j])
    np.testing.assert_allclose(s.weights, [0.5, 0.5])
    np.testing.assert_allclose(s.phases, [0.0, 1.5 * np.pi])
    assert s.n == 2


def test_state_basis():
    s = SESState.basis(4, 2)
    np.testing.assert_allclose(s.amplitudes, [0, 0, 1, 0])


def test_state_amplitudes_frozen():
    s = SESState.basis(3)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# star step


@pytest.mark.parametrize("n", [2, 4, 5, 16])
def test_star_step_reaches_uniform(n):
    step = star_uniform_step(n)
    assert step.theta == pytest.approx(np.pi / np.sqrt(n))
    out = evolve_pure(SESState.basis(n, 0), step)
    np.testing.assert_allclose(out.weights, np.full(n, 1.0 / n), atol=1e-12)
    # all amplitudes equal: the state is uniform up to one global phase
    np.testing.assert_allclose(out.amplitudes, out.amplitudes[0], atol=1e-12)


def test_star_step_requires_two_qubits():
    with pytest.raises(ValueError):
        star_uniform_step(1)


def test_star_step_coupling_layout():
    step = star_uniform_step(4)
    k = step.k
    assert k[0, 0] == 1.0
    np.testing.assert_allclose(k[0, 1:], 0.5)
    assert np.all(k[1:, 1:] == 0.0)


# ---------------------------------------------------------------------------
# diagonal phase step for uniform-weight targets


def test_uniform_weight_phases_step_exact_action():
    rng = np.random.default_rng(21)
    n = 6
    phases = rng.uniform(0, 2 * np.pi, size=n)
    target = SESState(np.exp(1j * phases) / np.sqrt(n))
    step = uniform_weight_phases_step(target)
    out = evolve_pure(uniform_state(n), step)
    np.testing.assert_allclose(out.amplitudes, target.amplitudes, atol=1e-9)


def test_uniform_weight_phases_step_rejects_nonuniform():
    with pytest.raises(NonUniformWeights):
        uniform_weight_phases_step(SESState.normalized([1.0, 2.0]))


# ---------------------------------------------------------------------------
# reduction moves


def test_reduction_step_reference_indices():
    """On the reference target the first move touches weights 0.07 and 0.30."""
    target = SESState(golden.normalized_target())
    u_diag, u_swap, nxt = reduction_step(target)
    touched = np.argwhere(np.abs(u_swap.k) > 0)
    assert sorted(set(touched.flatten().tolist())) == sorted(
        [golden.I_MIN_FIRST, golden.I_MAX_FIRST]
    )
    assert u_diag.theta == pytest.approx(3 * np.pi)
    assert nxt.weights[golden.I_MIN_FIRST] == pytest.approx(0.2, abs=1e-15)


def test_reduction_step_matches_evolution():
    """The bookkept next state equals the actual two-pulse evolution."""
    rng = np.random.default_rng(22)
    for n in (3, 5, 9):
        state = random_state(n, rng)
        u_diag, u_swap, nxt = reduction_step(state)
        evolved = evolve_pure(evolve_pure(state, u_diag), u_swap)
        np.testing.assert_allclose(evolved.amplitudes, nxt.amplitudes, atol=1e-12)


def test_reduction_step_pins_exactly():
    rng = np.random.default_rng(23)
    state = random_state(7, rng)
    _, _, nxt = reduction_step(state)
    i_min = int(np.argmin(state.weights))
    assert nxt.amplitudes[i_min] == 1.0 / np.sqrt(7)  # exact bookkeeping


def test_reduction_step_rejects_uniform():
    with pytest.raises(AlreadyUniform):
        reduction_step(uniform_state(5))


@pytest.mark.parametrize("n", range(2, 17))
def test_reduce_to_uniform_move_bound(n):
    """At most n-1 moves for random targets, and the pipeline ends uniform."""
    rng = np.random.default_rng(1000 + n)
    for _ in range(10):
        target = random_state(n, rng)
        pairs, w_diag = reduce_to_uniform(target)
        assert len(pairs) <= n - 1
        state = target
        for u_diag, u_swap in pairs:
            state = evolve_pure(evolve_pure(state, u_diag), u_swap)
        final = evolve_pure(state, w_diag)
        np.testing.assert_allclose(
            final.amplitudes, uniform_state(n).amplitudes, atol=1e-9
        )


@st.composite
def prep_targets(draw):
    """Normalised n = 2..16 targets: near a basis state, of uniform weight, or
    of drawn weights, each with drawn phases."""
    n = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(["near_basis", "uniform", "phased"]))
    phases = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n)))
    if kind == "near_basis":
        mags = np.array(draw(st.lists(st.floats(0.0, 1e-3), min_size=n, max_size=n)))
        mags[draw(st.integers(0, n - 1))] = 1.0
    elif kind == "uniform":
        mags = np.ones(n)
    else:
        mags = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return SESState.normalized(mags * np.exp(1j * phases))


@settings(deadline=None, max_examples=150)
@given(prep_targets())
def test_prep_move_bound_property(target):
    """At most n - 1 reduction moves, and the linear schedule is 2m + 2 pulses."""
    pairs, _ = reduce_to_uniform(target)
    assert len(pairs) <= target.n - 1
    schedule, plan = prepare_state_schedule(target, mode="linear")
    assert plan.m == len(pairs)
    assert len(schedule.steps) == 2 * plan.m + 2


def test_prep_plan_validates_move_count():
    target = SESState(golden.normalized_target())
    _, plan = prepare_state_schedule(target)
    with pytest.raises(IterationOverflow):
        PrepPlan(
            star_step=plan.star_step,
            reduction_steps=plan.reduction_steps,
            w_diag=plan.w_diag,
            m=5,
            compiled_u=plan.compiled_u,
        )


# ---------------------------------------------------------------------------
# full protocol


def test_reference_target_plan():
    target = SESState(golden.normalized_target())
    schedule, plan = prepare_state_schedule(target, mode="linear")
    assert plan.m == golden.M_MOVES
    assert len(schedule.steps) == 2 * plan.m + 2
    labels = [s.label for s in schedule.steps]
    assert labels[0] == "star" and labels[1] == "w_diag_dagger"
    assert labels.count("u_swap_dagger") == plan.m
    assert labels.count("u_diag_dagger") == plan.m


def test_reference_compiled_unitary_first_column():
    target = golden.normalized_target()
    u = compiled_prep_unitary(target)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    column = u[:, 0]
    phase = np.vdot(column, target)
    np.testing.assert_allclose(column * phase / abs(phase), target, atol=1e-12)


def test_reference_compiled_unitary_matches_recorded():
    u = compiled_prep_unitary(golden.normalized_target())
    overlap = np.trace(golden.COMPILED_U.conj().T @ u)
    aligned = u * np.conj(overlap) / abs(overlap)
    assert np.max(np.abs(aligned - golden.COMPILED_U)) < 5e-4


@pytest.mark.parametrize("mode", ["linear", "three_step"])
def test_reference_target_preparation_fidelity(mode):
    target = SESState(golden.normalized_target())
    schedule, _ = prepare_state_schedule(target, mode=mode)
    final = run_schedule(SESState.basis(5, 0), schedule)
    fidelity = abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2
    assert fidelity >= 1 - 1e-8


def test_three_step_mode_is_always_three_steps():
    rng = np.random.default_rng(31)
    for n in (2, 4, 8):
        schedule, _ = prepare_state_schedule(random_state(n, rng), mode="three_step")
        assert [s.label for s in schedule.steps] == ["a_dagger", "b", "a"]
    # even a real uniform target (symmetric net unitary) keeps three pulses
    schedule, _ = prepare_state_schedule(uniform_state(4), mode="three_step")
    assert len(schedule.steps) == 3


def test_three_step_reference_duration_band():
    target = SESState(golden.normalized_target())
    schedule, _ = prepare_state_schedule(target, mode="three_step")
    assert 6.0 <= schedule.duration_ns <= 26.0


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_random_targets_both_modes(n):
    rng = np.random.default_rng(1100 + n)
    for _ in range(5):
        target = random_state(n, rng)
        for mode in ("linear", "three_step"):
            schedule, plan = prepare_state_schedule(target, mode=mode)
            final = run_schedule(SESState.basis(n, 0), schedule)
            fidelity = abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2
            assert fidelity >= 1 - 1e-8, (mode, n)
            assert plan.m <= n - 1


def test_basis_target_round_trip():
    """Preparing |1) itself still verifies (weight already at index 0)."""
    target = SESState.basis(4, 0)
    schedule, _ = prepare_state_schedule(target, mode="linear")
    final = run_schedule(SESState.basis(4, 0), schedule)
    assert abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2 >= 1 - 1e-8


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("phase", [1, -1, 1j, -1j])
def test_three_step_prepares_every_basis_state(n, phase):
    """For (0, -1), U U.T of the eigenbasis that the KAK step splits is
    -i times a reflection, whose Hermitian part is ~0."""
    for index in range(n):
        amplitudes = np.zeros(n, dtype=complex)
        amplitudes[index] = phase
        target = SESState(amplitudes)
        schedule, _ = prepare_state_schedule(target, mode="three_step")
        final = run_schedule(SESState.basis(n, 0), schedule)
        assert abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2 >= 1 - 1e-8, index


def test_prepare_rejects_unknown_mode():
    with pytest.raises(ValueError):
        prepare_state_schedule(uniform_state(3), mode="compressed")


def test_prepare_rejects_single_qubit():
    with pytest.raises(ValueError):
        prepare_state_schedule(SESState.basis(1, 0))


def test_prepare_is_deterministic():
    rng = np.random.default_rng(32)
    target = random_state(6, rng)
    s1, _ = prepare_state_schedule(target, mode="three_step")
    s2, _ = prepare_state_schedule(target, mode="three_step")
    for a, b in zip(s1.steps, s2.steps):
        assert np.array_equal(a.k, b.k) and a.theta == b.theta


def test_three_step_prepare_checks_emitted_schedule(monkeypatch):
    import sesqc.stateprep
    from sesqc.errors import DecompositionError
    from sesqc.pulses import PulseStep

    aba_steps = sesqc.stateprep._aba_steps

    def corrupted(a, b, device):
        steps = aba_steps(a, b, device)
        steps[1] = PulseStep(k=steps[1].k, theta=steps[1].theta + 0.1, label=steps[1].label)
        return steps

    monkeypatch.setattr(sesqc.stateprep, "_aba_steps", corrupted)
    with pytest.raises(DecompositionError):
        prepare_state_schedule(golden.normalized_target(), mode="three_step")


def test_compiled_prep_unitary_equals_schedule_product():
    from sesqc.decompose import schedule_unitary

    rng = np.random.default_rng(33)
    target = random_state(5, rng)
    schedule, plan = prepare_state_schedule(target, mode="linear")
    assert global_phase_fidelity(schedule_unitary(schedule), plan.compiled_u) >= 1 - 1e-12


def _prep_targets():
    rng = np.random.default_rng(34)
    yield SESState(golden.normalized_target())
    yield uniform_state(4)
    yield SESState.basis(3, 2)
    for n in (2, 3, 5, 8, 16):
        for _ in range(4):
            yield random_state(n, rng)


@pytest.mark.parametrize("mode", ["linear", "three_step"])
def test_every_emitted_pulse_is_saturated(mode):
    """max|K| = 1 or theta = 0 for every pulse, as time optimality needs."""
    for target in _prep_targets():
        schedule, _ = prepare_state_schedule(target, mode=mode)
        for step in schedule.steps:
            assert step.theta == 0.0 or abs(max_abs(step.k) - 1.0) <= 1e-12, (target.n, step.label)


def test_linear_total_angle_bound():
    """Star pulse, then w_diag below pi, then per move a diagonal of at most
    2*pi/3 and a swap below pi/2."""
    for target in _prep_targets():
        schedule, plan = prepare_state_schedule(target, mode="linear")
        bound = np.pi / np.sqrt(target.n) + np.pi + 7 * np.pi / 6 * plan.m
        assert schedule.total_angle <= bound + 1e-12, (target.n, plan.m)


def test_emitted_steps_hold_no_negative_zero():
    """Daggered pulses negate K as 0.0 - K, so zero entries stay +0.0."""
    for target in _prep_targets():
        schedule, _ = prepare_state_schedule(target, mode="linear")
        for step in schedule.steps:
            assert not np.any(np.signbit(step.k[step.k == 0.0])), step.label
