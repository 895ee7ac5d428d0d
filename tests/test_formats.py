"""JSON document round-trip and validation tests."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sesqc.decompose import compile_unitary
from sesqc.formats import (
    load_json,
    load_matrix,
    load_schedule,
    load_state,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
    save_schedule,
    save_state,
    schedule_from_obj,
    schedule_to_obj,
    state_from_obj,
    state_to_obj,
)
from sesqc.linalg import random_unitary
from sesqc.pulses import DeviceParams, PulseSchedule, PulseStep
from sesqc.stateprep import SESState, prepare_state_schedule


def sample_schedule():
    rng = np.random.default_rng(55)
    return compile_unitary(random_unitary(4, rng), DeviceParams(g_max_mhz_over_2pi=75.0))


# ---------------------------------------------------------------------------
# round trips (bit-exact: JSON floats use repr, which is lossless)


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(50)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back, m)


def test_state_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(51)
    a = rng.normal(size=7) + 1j * rng.normal(size=7)
    path = tmp_path / "s.json"
    save_state(path, a)
    assert np.array_equal(load_state(path), a)


def test_schedule_round_trip_bit_exact(tmp_path):
    schedule = sample_schedule()
    path = tmp_path / "sched.json"
    save_schedule(path, schedule, source="compile", seed=9)
    back = load_schedule(path)
    assert back.n == schedule.n
    assert back.device.g_max_mhz_over_2pi == schedule.device.g_max_mhz_over_2pi
    assert len(back.steps) == len(schedule.steps)
    for a, b in zip(back.steps, schedule.steps):
        assert a.label == b.label
        assert a.theta == b.theta
        assert np.array_equal(a.k, b.k)


def test_schedule_metadata_fields(tmp_path):
    schedule = sample_schedule()
    path = tmp_path / "sched.json"
    save_schedule(path, schedule, source="prepare:linear", seed=3)
    doc = load_json(path)
    assert doc["metadata"] == {"source": "prepare:linear", "seed": 3}
    save_schedule(path, schedule, source="compile")
    doc = load_json(path)
    assert doc["metadata"] == {"source": "compile"}


def test_double_round_trip_is_stable(tmp_path):
    """Serialising a loaded schedule reproduces the same document."""
    schedule = sample_schedule()
    first = schedule_to_obj(schedule, source="compile")
    second = schedule_to_obj(schedule_from_obj(first), source="compile")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# ---------------------------------------------------------------------------
# the streaming schedule writer

K_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-310, 1.0, -1.0]),
                      st.floats(-1.0, 1.0))
LABELS = st.one_of(st.text(), st.text(alphabet='"\\\'/\n\t\x00\x7fé中\u2028\U0001f600'))


@st.composite
def pulse_step(draw, n):
    """A step whose K is diagonal, one symmetric pair or dense."""
    kind = draw(st.sampled_from(["diagonal", "pair", "dense"]))
    k = np.zeros((n, n))
    if kind == "diagonal":
        k[np.diag_indices(n)] = draw(st.lists(K_ENTRIES, min_size=n, max_size=n))
    elif kind == "pair" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k[i, j] = k[j, i] = draw(K_ENTRIES)
    else:
        upper = np.triu_indices(n)
        k[upper] = draw(st.lists(K_ENTRIES, min_size=upper[0].size, max_size=upper[0].size))
        k.T[upper] = k[upper]
    return PulseStep(k=k, theta=draw(st.floats(0.0, 10.0)), label=draw(LABELS))


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 8))
    device = DeviceParams(g_max_mhz_over_2pi=draw(st.floats(1e-3, 1e3)))
    return PulseSchedule(n=n, steps=tuple(draw(st.lists(pulse_step(n), max_size=4))), device=device)


@settings(deadline=None, max_examples=150)
@given(schedule=schedules(), source=LABELS, seed=st.none() | st.integers(-2**63, 2**64))
@example(schedule=PulseSchedule(n=1, steps=()), source="", seed=None)
def test_save_schedule_writes_json_dumps_of_obj(tmp_path_factory, schedule, source, seed):
    """One pulse at a time, the writer gives the bytes of the whole document."""
    path = tmp_path_factory.mktemp("stream") / "sched.json"
    save_schedule(path, schedule, source=source, seed=seed)
    want = json.dumps(schedule_to_obj(schedule, source, seed), separators=(",", ":")) + "\n"
    assert path.read_bytes() == want.encode()


class Tag(str):
    pass


@settings(deadline=None, max_examples=100)
@given(label=st.one_of(LABELS, st.builds(Tag, st.text()), st.binary(), st.integers(), st.floats(),
                       st.none(), st.lists(st.text(), max_size=2), st.builds(object)))
@example(label=b"x")
def test_save_schedule_leaves_no_partial_file(tmp_path_factory, label):
    """A step whose label is not a string is refused, so every schedule that
    can be built is written whole: save_schedule encodes steps mid-file."""
    try:
        step = PulseStep(k=np.eye(2), theta=1.0, label=label)
    except TypeError:
        assert not isinstance(label, str)
        return
    path = tmp_path_factory.mktemp("label") / "sched.json"
    save_schedule(path, PulseSchedule(n=2, steps=(step, step)))
    assert [s.label for s in load_schedule(path).steps] == [label, label]


def test_save_schedule_holds_one_pulse_at_a_time(tmp_path):
    """A linear n = 64 schedule is 128 dense 64x64 K: held whole as Python
    objects it peaked at 22.7 MB; encoded step by step it is ~0.4 MB."""
    rng = np.random.default_rng(64)
    a = rng.normal(size=64) + 1j * rng.normal(size=64)
    schedule, _ = prepare_state_schedule(SESState(a / np.linalg.norm(a)), mode="linear")
    tracemalloc.start()
    try:
        save_schedule(tmp_path / "sched.json", schedule, source="prepare:linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_obj_round_trips_without_files():
    rng = np.random.default_rng(52)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(matrix_from_obj(matrix_to_obj(m)), m)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.array_equal(state_from_obj(state_to_obj(a)), a)


def test_signed_zeros_and_subnormals_round_trip(tmp_path):
    """-0.0 and subnormals keep every bit, and the written text is fixed."""
    m = np.array([[complex(-0.0, 5e-324), complex(1e-310, -0.0)],
                  [complex(1.0, 0.0), complex(-2.5e-320, -1.5)]])
    a = np.array([complex(-0.0, -0.0), complex(4e-320, 0.5)])
    m_path, a_path = tmp_path / "m.json", tmp_path / "a.json"
    save_matrix(m_path, m)
    save_state(a_path, a)
    assert m_path.read_text() == (
        '{"n":2,"entries":[[[-0.0,5e-324],[1e-310,-0.0]],[[1.0,0.0],[-2.5e-320,-1.5]]]}\n'
    )
    assert a_path.read_text() == '{"n":2,"amplitudes":[[-0.0,-0.0],[4e-320,0.5]]}\n'
    assert load_matrix(m_path).tobytes() == m.tobytes()
    assert load_state(a_path).tobytes() == a.tobytes()


def test_loaders_reject_integers_beyond_float_range():
    huge = 10**400
    with pytest.raises(ValueError, match="beyond float range"):
        matrix_from_obj({"n": 1, "entries": [[[huge, 0]]]})
    with pytest.raises(ValueError, match="beyond float range"):
        state_from_obj({"n": 1, "amplitudes": [[0, -huge]]})
    one = schedule_to_obj(PulseSchedule(n=1, steps=(PulseStep(k=np.ones((1, 1)), theta=1.0),)))
    for key in ("g_max_mhz_over_2pi", "total_theta", "duration_ns"):
        with pytest.raises(ValueError, match=key):
            schedule_from_obj(dict(one, **{key: huge}))
    for theta, k in ((huge, [[1]]), (1.0, [[huge]])):
        doc = json.loads(json.dumps(one))
        doc["steps"][0].update(theta=theta, K=k)
        with pytest.raises(ValueError, match="beyond float range"):
            schedule_from_obj(doc)


# ---------------------------------------------------------------------------
# validation


def test_matrix_from_obj_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_obj([])
    with pytest.raises(ValueError):
        matrix_from_obj({"n": 2})
    with pytest.raises(ValueError):
        matrix_from_obj({"n": 2, "entries": [[[0.0, 0.0]]]})  # wrong row count
    with pytest.raises(ValueError):
        matrix_from_obj({"n": 1, "entries": [[[0.0]]]})  # entry not a pair
    with pytest.raises(ValueError):
        matrix_from_obj({"n": 0, "entries": []})
    # bool subclasses int, but JSON true/false are not numbers
    with pytest.raises(ValueError):
        matrix_from_obj({"n": 1, "entries": [[[True, False]]]})
    with pytest.raises(ValueError):
        matrix_from_obj({"n": True, "entries": [[[1.0, 0.0]]]})


def test_state_from_obj_rejects_malformed():
    with pytest.raises(ValueError):
        state_from_obj({"n": 2, "amplitudes": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        state_from_obj({"amplitudes": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        state_from_obj({"n": 1, "amplitudes": [["x", 0.0]]})
    with pytest.raises(ValueError):
        state_from_obj({"n": True, "amplitudes": [[1, 0]]})
    with pytest.raises(ValueError):
        state_from_obj({"n": 1, "amplitudes": [[1.0, False]]})


def test_schedule_from_obj_rejects_bad_steps():
    schedule = sample_schedule()
    doc = schedule_to_obj(schedule)

    broken = json.loads(json.dumps(doc))
    del broken["steps"][0]["theta"]
    with pytest.raises(ValueError):
        schedule_from_obj(broken)

    broken = json.loads(json.dumps(doc))
    broken["steps"][0]["K"][0][1] = 7.0  # asymmetric + out of range
    with pytest.raises(ValueError):
        schedule_from_obj(broken)

    broken = json.loads(json.dumps(doc))
    broken["steps"][0]["theta"] = -1.0
    with pytest.raises(ValueError):
        schedule_from_obj(broken)


def test_schedule_from_obj_checks_consistency():
    schedule = sample_schedule()

    doc = schedule_to_obj(schedule)
    doc["total_theta"] = doc["total_theta"] + 0.5
    with pytest.raises(ValueError):
        schedule_from_obj(doc)

    doc = schedule_to_obj(schedule)
    doc["duration_ns"] = doc["duration_ns"] * 2
    with pytest.raises(ValueError):
        schedule_from_obj(doc)

    doc = schedule_to_obj(schedule)
    doc["g_max_mhz_over_2pi"] = -5.0
    with pytest.raises(ValueError):
        schedule_from_obj(doc)

    # an empty schedule is consistent for any n and g_max, so only the
    # type checks can reject JSON true here
    empty = schedule_to_obj(PulseSchedule(n=1, steps=(), device=DeviceParams()))
    for key in ("n", "g_max_mhz_over_2pi"):
        with pytest.raises(ValueError):
            schedule_from_obj(dict(empty, **{key: True}))

    # a step of theta 1 and K = [[1]] is consistent with its totals, so JSON
    # true or numeric strings in its place are rejected by type alone
    one = schedule_to_obj(PulseSchedule(n=1, steps=(PulseStep(k=np.ones((1, 1)), theta=1.0),)))
    schedule_from_obj(one)
    for theta, k in ((True, [[True]]), (True, [[1.0]]), (1.0, [[True]]),
                     ("1.0", [[1.0]]), (1.0, [["1.0"]]), ("1.0", [["0.5"]])):
        doc = json.loads(json.dumps(one))
        doc["steps"][0].update(theta=theta, K=k)
        with pytest.raises(ValueError):
            schedule_from_obj(doc)
    # the same holds for the totals, and a label must be a string
    for key, value in (("total_theta", True), ("total_theta", "1.0"),
                       ("duration_ns", str(one["duration_ns"]))):
        with pytest.raises(ValueError, match=key):
            schedule_from_obj(dict(one, **{key: value}))
    doc = json.loads(json.dumps(one))
    doc["steps"][0]["label"] = [1, 2]
    with pytest.raises(ValueError, match="label"):
        schedule_from_obj(doc)


def test_schedule_from_obj_entry_types():
    """K entries must be JSON numbers: ints, floats and their subclasses such
    as ``np.float64`` pass, ``bool`` and every non-number type fail."""
    one = schedule_to_obj(PulseSchedule(n=2, steps=(PulseStep(k=np.eye(2), theta=1.0),)))
    for bad in (True, False, "1.0", None, [1.0]):
        doc = json.loads(json.dumps(one))
        doc["steps"][0]["K"][1][1] = bad
        with pytest.raises(ValueError, match="K must be"):
            schedule_from_obj(doc)
    for k in ([[1, 0], [0, 1]], [[1.0, 0], [0, 1.0]],
              [[np.float64(1.0), 0], [0.0, np.float64(1.0)]]):
        doc = json.loads(json.dumps(one))
        doc["steps"][0]["K"] = k
        step = schedule_from_obj(doc).steps[0]
        assert step.k.dtype == np.float64
        assert np.array_equal(step.k, np.eye(2))


def test_empty_schedule_round_trips():
    schedule = PulseSchedule(n=3, steps=(), device=DeviceParams())
    back = schedule_from_obj(schedule_to_obj(schedule))
    assert back.n == 3 and back.steps == ()


def test_zero_theta_step_round_trips():
    step = PulseStep(k=np.zeros((2, 2)), theta=0.0, label="idle")
    schedule = PulseSchedule(n=2, steps=(step,), device=DeviceParams())
    back = schedule_from_obj(schedule_to_obj(schedule))
    assert back.steps[0].theta == 0.0
