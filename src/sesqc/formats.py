"""JSON file formats.

Three document shapes, all plain JSON so doubles round-trip bit-exactly
(Python prints shortest-repr floats):

* matrix:   ``{"n": 2, "entries": [[[re, im], ...], ...]}`` — row-major,
  each entry a two-element [re, im] list.
* state:    ``{"n": 2, "amplitudes": [[re, im], ...]}``
* schedule: ``{"n", "g_max_mhz_over_2pi", "steps": [{"label", "theta",
  "K": [[...], ...]}, ...], "total_theta", "duration_ns", "metadata"}``
  with steps in execution order.  Angles are canonical; the stored
  duration is checked against the angles on load.  A schedule file is
  written one pulse at a time, in the bytes ``json.dumps`` gives for the
  whole document.  Each K is the text of an all-zero n×n K, made once per
  file, with the shortest repr of each entry whose bits are nonzero
  (``-0.0`` included) spliced in at its fixed offset; the linear
  protocol's K hold O(n) such entries, so the writer formats O(n) numbers
  per pulse, not n^2.  Reading still builds the whole document.

Every number is read by one rule: a JSON integer or float, never a
boolean, a string or ``null``, in nested lists of exactly the expected
shape.  Integers beyond float range are rejected too, so the
``*_from_obj`` readers raise :class:`ValueError` on malformed input and
nothing else.  An array is read by one scan of its nested lists, level by
level, that checks their lengths and collects the types of the leaves,
then one ``np.fromiter`` conversion of the leaves to float64, with no
object array.  Complex values are read and written as the trailing
``[re, im]`` axis of a float64 array, which keeps every bit, ``-0.0`` and
subnormals included.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .errors import SesqcError
from .pulses import DeviceParams, PulseSchedule, PulseStep, schedule_duration_ns

CONSISTENCY_RTOL = 1e-9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_size(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def _numbers(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a float64 array of ``shape``; every leaf must be a JSON number."""
    leaves = [value]
    for size in shape:  # one level of nested lists at a time, down to the leaves
        if not (all(map(isinstance, leaves, itertools.repeat((list, tuple))))
                and set(map(len, leaves)) == {size}):
            leaves = [None]  # a wrong shape, refused below as a leaf that is no number
            break
        leaves = list(itertools.chain.from_iterable(leaves))
    types = list(map(type, leaves))
    if types.count(float) < len(types):  # else every leaf is a float
        types = set(types)
        # bool subclasses int, but JSON true/false are not numbers
        if bool in types or not all(issubclass(t, (int, float)) for t in types):
            raise ValueError(f"{what} must be an array of numbers of shape {'x'.join(map(str, shape))}"
                             if shape else f"{what} must be a number")
    try:
        return np.fromiter(leaves, dtype=np.float64, count=len(leaves)).reshape(shape)
    except OverflowError as exc:
        raise ValueError(f"{what} holds a number beyond float range") from exc


def _complex(value, shape: tuple, what: str) -> np.ndarray:
    """Complex array of ``shape`` read from ``[re, im]`` pairs, bit for bit."""
    return _numbers(value, shape + (2,), what).view(np.complex128).reshape(shape)


def _pairs(a: np.ndarray) -> list:
    """Nested ``[re, im]`` lists of a complex array, the layout :func:`_complex` reads."""
    return np.stack((a.real, a.imag), -1).tolist()


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"n": int(m.shape[0]), "entries": _pairs(m)}


def matrix_from_obj(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "matrix document must be a JSON object")
    _require("n" in obj and "entries" in obj, "matrix document needs 'n' and 'entries'")
    n = obj["n"]
    _require(_is_size(n), "'n' must be a positive integer")
    return _complex(obj["entries"], (n, n), "'entries'")


def state_to_obj(amplitudes: np.ndarray) -> dict:
    a = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    return {"n": int(a.size), "amplitudes": _pairs(a)}


def state_from_obj(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "state document must be a JSON object")
    _require("n" in obj and "amplitudes" in obj, "state document needs 'n' and 'amplitudes'")
    n = obj["n"]
    _require(_is_size(n), "'n' must be a positive integer")
    return _complex(obj["amplitudes"], (n,), "'amplitudes'")


def _schedule_fields(schedule: PulseSchedule, source: str, seed: int | None) -> dict:
    """The schedule document in field order, with the :class:`PulseStep` tuple
    in place of its list of step objects."""
    metadata: dict = {"source": source}
    if seed is not None:
        metadata["seed"] = int(seed)
    return {
        "n": int(schedule.n),
        "g_max_mhz_over_2pi": float(schedule.device.g_max_mhz_over_2pi),
        "steps": schedule.steps,
        "total_theta": float(schedule.total_angle),
        "duration_ns": float(schedule.duration_ns),
        "metadata": metadata,
    }


def schedule_to_obj(schedule: PulseSchedule, source: str = "", seed: int | None = None) -> dict:
    obj = _schedule_fields(schedule, source, seed)
    obj["steps"] = [{"label": step.label, "theta": step.theta, "K": step.k.tolist()}
                    for step in schedule.steps]
    return obj


def schedule_from_obj(obj) -> PulseSchedule:
    _require(isinstance(obj, dict), "schedule document must be a JSON object")
    for key in ("n", "g_max_mhz_over_2pi", "steps", "total_theta", "duration_ns"):
        _require(key in obj, f"schedule document needs '{key}'")
    n = obj["n"]
    _require(_is_size(n), "'n' must be a positive integer")
    gmax = float(_numbers(obj["g_max_mhz_over_2pi"], (), "'g_max_mhz_over_2pi'"))
    _require(gmax > 0, "'g_max_mhz_over_2pi' must be positive")
    device = DeviceParams(g_max_mhz_over_2pi=gmax)
    steps = []
    _require(isinstance(obj["steps"], list), "'steps' must be a list")
    for idx, raw in enumerate(obj["steps"]):
        _require(isinstance(raw, dict), f"step {idx} must be an object")
        for key in ("label", "theta", "K"):
            _require(key in raw, f"step {idx} needs '{key}'")
        k = _numbers(raw["K"], (n, n), f"step {idx}: K")
        theta = float(_numbers(raw["theta"], (), f"step {idx}: 'theta'"))
        try:
            steps.append(PulseStep(k=k, theta=theta, label=raw["label"]))
        except (SesqcError, ValueError, TypeError) as exc:
            raise ValueError(f"step {idx} is invalid: {exc}") from exc
    schedule = PulseSchedule(n=n, steps=tuple(steps), device=device)
    total = float(_numbers(obj["total_theta"], (), "'total_theta'"))
    _require(
        abs(total - schedule.total_angle) <= CONSISTENCY_RTOL * max(1.0, abs(total)),
        "'total_theta' disagrees with the sum of step angles",
    )
    duration = float(_numbers(obj["duration_ns"], (), "'duration_ns'"))
    _require(
        abs(duration - schedule_duration_ns(schedule)) <= CONSISTENCY_RTOL * max(1.0, abs(duration)),
        "'duration_ns' disagrees with the stored angles and g_max",
    )
    return schedule


# json.dumps(obj, separators=(",", ":")) from one encoder, not a new one per call
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def save_json(path, obj: dict) -> None:
    Path(path).write_text(_dumps(obj) + "\n")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError("JSON document is nested too deeply") from exc


def save_matrix(path, m: np.ndarray) -> None:
    save_json(path, matrix_to_obj(m))


def load_matrix(path) -> np.ndarray:
    return matrix_from_obj(load_json(path))


def save_state(path, amplitudes: np.ndarray) -> None:
    save_json(path, state_to_obj(amplitudes))


def load_state(path) -> np.ndarray:
    return state_from_obj(load_json(path))


def _zero_k_text(n: int) -> str:
    """The text of an all-zero n×n K: entry (i, j) is the ``0.0`` at
    ``2 + i*(4n + 2) + 4j``."""
    row = "[" + ",".join(["0.0"] * n) + "]"
    return "[" + ",".join([row] * n) + "]"


def _k_text(k: np.ndarray, zero: str) -> str:
    """``_dumps(k.tolist())`` for a float64 K: its nonzero entries, -0.0
    found by its bits, spliced into ``zero``, the text of :func:`_zero_k_text`."""
    n = k.shape[0]
    flat = k.reshape(-1)
    nonzero = flat.view(np.int64).nonzero()[0]
    text, end = [], 0
    for f, value in zip(nonzero.tolist(), flat[nonzero].tolist()):
        start = 2 + 4 * f + 2 * (f // n)  # 2 + i*(4n + 2) + 4j for (i, j) = divmod(f, n)
        text += (zero[end:start], repr(value))
        end = start + 3
    text.append(zero[end:])
    return "".join(text)


def save_schedule(path, schedule: PulseSchedule, source: str = "", seed: int | None = None) -> None:
    """Write the bytes :func:`save_json` writes for :func:`schedule_to_obj`,
    encoding one step at a time: a dense K is n^2 numbers per pulse, and the
    whole document as Python objects is O(n^3)."""
    zero = _zero_k_text(schedule.n)
    with open(path, "w") as f:
        for i, (key, value) in enumerate(_schedule_fields(schedule, source, seed).items()):
            f.write(("," if i else "{") + _dumps(key) + ":")
            if key == "steps":
                f.write("[")
                for j, step in enumerate(value):
                    f.write(("," if j else "") + '{"label":' + _dumps(step.label) + ',"theta":'
                            + _dumps(step.theta) + ',"K":' + _k_text(step.k, zero) + "}")
                f.write("]")
            else:
                f.write(_dumps(value))
        f.write("}\n")


def load_schedule(path) -> PulseSchedule:
    return schedule_from_obj(load_json(path))
