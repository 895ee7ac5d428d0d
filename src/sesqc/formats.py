"""JSON file formats.

Three document shapes, all plain JSON so doubles round-trip bit-exactly
(Python prints shortest-repr floats):

* matrix:   ``{"n": 2, "entries": [[[re, im], ...], ...]}`` — row-major,
  each entry a two-element [re, im] list.
* state:    ``{"n": 2, "amplitudes": [[re, im], ...]}``
* schedule: ``{"n", "g_max_mhz_over_2pi", "steps": [{"label", "theta",
  "K": [[...], ...]}, ...], "total_theta", "duration_ns", "metadata"}``
  with steps in execution order.  Angles are canonical; the stored
  duration is checked against the angles on load.

All loaders raise :class:`ValueError` on malformed input.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SesqcError
from .pulses import DeviceParams, PulseSchedule, PulseStep, schedule_duration_ns

CONSISTENCY_RTOL = 1e-9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_number_type(t: type) -> bool:
    """JSON number type test; ``bool`` subclasses ``int`` but ``true``/``false`` are not numbers."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _is_number(x) -> bool:
    return _is_number_type(type(x))


def _is_size(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def _pairs_to_complex(rows, expect_len: int, what: str) -> np.ndarray:
    out = np.empty(len(rows), dtype=np.complex128)
    _require(len(rows) == expect_len, f"{what}: expected {expect_len} entries, got {len(rows)}")
    for i, pair in enumerate(rows):
        _require(
            isinstance(pair, (list, tuple)) and len(pair) == 2,
            f"{what}[{i}] must be a [re, im] pair",
        )
        re, im = pair
        _require(
            _is_number(re) and _is_number(im),
            f"{what}[{i}] must hold two numbers",
        )
        out[i] = complex(re, im)
    return out


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "n": int(m.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def matrix_from_obj(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "matrix document must be a JSON object")
    _require("n" in obj and "entries" in obj, "matrix document needs 'n' and 'entries'")
    n = obj["n"]
    _require(_is_size(n), "'n' must be a positive integer")
    rows = obj["entries"]
    _require(isinstance(rows, list) and len(rows) == n, f"'entries' must hold {n} rows")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        _require(isinstance(row, list), f"row {i} must be a list")
        out[i] = _pairs_to_complex(row, n, f"row {i}")
    return out


def state_to_obj(amplitudes: np.ndarray) -> dict:
    a = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    return {
        "n": int(a.size),
        "amplitudes": [[float(z.real), float(z.imag)] for z in a],
    }


def state_from_obj(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "state document must be a JSON object")
    _require("n" in obj and "amplitudes" in obj, "state document needs 'n' and 'amplitudes'")
    n = obj["n"]
    _require(_is_size(n), "'n' must be a positive integer")
    amps = obj["amplitudes"]
    _require(isinstance(amps, list), "'amplitudes' must be a list")
    return _pairs_to_complex(amps, n, "amplitudes")


def schedule_to_obj(schedule: PulseSchedule, source: str = "", seed: int | None = None) -> dict:
    metadata: dict = {"source": source}
    if seed is not None:
        metadata["seed"] = int(seed)
    return {
        "n": int(schedule.n),
        "g_max_mhz_over_2pi": float(schedule.device.g_max_mhz_over_2pi),
        "steps": [
            {
                "label": step.label,
                "theta": float(step.theta),
                "K": step.k.tolist(),
            }
            for step in schedule.steps
        ],
        "total_theta": float(schedule.total_angle),
        "duration_ns": float(schedule.duration_ns),
        "metadata": metadata,
    }


def schedule_from_obj(obj) -> PulseSchedule:
    _require(isinstance(obj, dict), "schedule document must be a JSON object")
    for key in ("n", "g_max_mhz_over_2pi", "steps", "total_theta", "duration_ns"):
        _require(key in obj, f"schedule document needs '{key}'")
    n = obj["n"]
    _require(_is_size(n), "'n' must be a positive integer")
    gmax = obj["g_max_mhz_over_2pi"]
    _require(_is_number(gmax) and gmax > 0, "'g_max_mhz_over_2pi' must be positive")
    device = DeviceParams(g_max_mhz_over_2pi=float(gmax))
    steps = []
    _require(isinstance(obj["steps"], list), "'steps' must be a list")
    for idx, raw in enumerate(obj["steps"]):
        _require(isinstance(raw, dict), f"step {idx} must be an object")
        for key in ("label", "theta", "K"):
            _require(key in raw, f"step {idx} needs '{key}'")
        k_rows = raw["K"]
        _require(
            isinstance(k_rows, list) and len(k_rows) == n
            and all(isinstance(r, list) and len(r) == n for r in k_rows)
            and all(map(_is_number_type, {type(x) for r in k_rows for x in r})),
            f"step {idx}: K must be an {n}x{n} array of numbers",
        )
        _require(_is_number(raw["theta"]), f"step {idx}: 'theta' must be a number")
        _require(isinstance(raw["label"], str), f"step {idx}: 'label' must be a string")
        try:
            steps.append(
                PulseStep(
                    k=np.asarray(k_rows, dtype=np.float64),
                    theta=float(raw["theta"]),
                    label=raw["label"],
                )
            )
        except (SesqcError, ValueError, TypeError) as exc:
            raise ValueError(f"step {idx} is invalid: {exc}") from exc
    schedule = PulseSchedule(n=n, steps=tuple(steps), device=device)
    for key in ("total_theta", "duration_ns"):
        _require(_is_number(obj[key]), f"'{key}' must be a number")
    total = float(obj["total_theta"])
    _require(
        abs(total - schedule.total_angle) <= CONSISTENCY_RTOL * max(1.0, abs(total)),
        "'total_theta' disagrees with the sum of step angles",
    )
    duration = float(obj["duration_ns"])
    _require(
        abs(duration - schedule_duration_ns(schedule)) <= CONSISTENCY_RTOL * max(1.0, abs(duration)),
        "'duration_ns' disagrees with the stored angles and g_max",
    )
    return schedule


def save_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, separators=(",", ":")) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_matrix(path, m: np.ndarray) -> None:
    save_json(path, matrix_to_obj(m))


def load_matrix(path) -> np.ndarray:
    return matrix_from_obj(load_json(path))


def save_state(path, amplitudes: np.ndarray) -> None:
    save_json(path, state_to_obj(amplitudes))


def load_state(path) -> np.ndarray:
    return state_from_obj(load_json(path))


def save_schedule(path, schedule: PulseSchedule, source: str = "", seed: int | None = None) -> None:
    save_json(path, schedule_to_obj(schedule, source=source, seed=seed))


def load_schedule(path) -> PulseSchedule:
    return schedule_from_obj(load_json(path))
