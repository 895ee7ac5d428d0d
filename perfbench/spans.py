"""In-memory span tracing of sesqc's public functions, from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper in every
``sesqc`` module namespace that binds it (``expm_generator`` is imported by
name into ``decompose``, ``stateprep`` and ``simulator``, so all three are
patched), and each traced method on its class.  Nothing under ``src/`` is
edited.  A span is ``(name, start_ns, end_ns, parent_index, op_id)``; spans
of one benchmark operation share ``op_id``.  :func:`layer_metrics` turns the
spans into the per-layer metrics listed in ``BENCHMARK.json``.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Traced callables per layer (module of ``src/sesqc``).  "Class.method" names
# a method; everything else is a module-level function.
TARGETS = {
    "linalg": [
        "symmetric_eig", "hermitian_eig", "expm_generator", "unitary_diagonalize",
        "simultaneous_diag", "require_real_symmetric", "require_hermitian",
        "require_unitary", "global_phase_fidelity",
    ],
    "decompose": [
        "kak_decompose", "aba_decompose", "compile_unitary", "compile_hamiltonian",
        "schedule_unitary",
    ],
    "pulses": [
        "compile_symmetric_generator", "optimal_shift", "rotation_angle",
        "schedule_duration_ns", "PulseStep.__post_init__", "PulseSchedule.__post_init__",
    ],
    "stateprep": [
        "prepare_state_schedule", "compiled_prep_unitary", "reduce_to_uniform",
        "reduction_step", "star_uniform_step", "uniform_weight_phases_step",
        "SESState.__post_init__",
    ],
    "simulator": [
        "run_schedule", "evolve_pure", "evolve_density", "measure",
        "DensityMatrixState.__post_init__",
    ],
    "observables": ["expectation_protocol", "expectation_exact", "spectral_decompose"],
    "formats": [
        "save_json", "load_json", "save_schedule", "load_schedule", "save_state",
        "load_state", "save_matrix", "load_matrix", "schedule_to_obj",
        "schedule_from_obj", "state_to_obj", "state_from_obj", "matrix_to_obj",
        "matrix_from_obj",
    ],
    "cli": ["main", "build_parser", "cmd_compile", "cmd_prepare", "cmd_simulate", "cmd_expect"],
}

EIG = ("linalg.symmetric_eig", "linalg.hermitian_eig")
EXPM = ("linalg.expm_generator",)
SPECTRAL = ("linalg.unitary_diagonalize", "linalg.simultaneous_diag")
VALIDATE = ("linalg.require_real_symmetric", "linalg.require_hermitian", "linalg.require_unitary")
VERIFY = ("decompose.schedule_unitary", "linalg.global_phase_fidelity")
EVOLVE = ("simulator.run_schedule", "simulator.evolve_pure", "simulator.evolve_density")
DUMP = ("formats.save_json", "formats.save_schedule", "formats.save_state", "formats.save_matrix",
        "formats.schedule_to_obj", "formats.state_to_obj", "formats.matrix_to_obj")
LOAD = ("formats.load_json", "formats.load_schedule", "formats.load_state", "formats.load_matrix",
        "formats.schedule_from_obj", "formats.state_from_obj", "formats.matrix_from_obj")


def _names(layer: str) -> tuple[str, ...]:
    return tuple(f"{layer}.{attr}" for attr in TARGETS[layer])


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def install(self) -> None:
        """Wrap every target wherever a ``sesqc`` namespace binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sesqc" or key.startswith("sesqc."))]
        for layer, attrs in TARGETS.items():
            home = sys.modules[f"sesqc.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self.wrap(name, vars(cls)[meth]))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _inclusive_ns(spans, group) -> int:
    """Total duration of spans in ``group`` that have no ancestor in ``group``."""
    total = 0
    for span in spans:
        if span[0] not in group:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in group:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def layer_metrics(spans, ops: int, schedule_bytes: int = 0) -> dict[str, float]:
    """Per-operation layer metrics (ms, counts, kB) from the spans of ``ops`` operations."""
    selfs = self_times_ns(spans)

    def count(group):
        return sum(1 for s in spans if s[0] in group) / ops

    def incl_ms(group):
        return _inclusive_ns(spans, group) / 1e6 / ops

    def self_ms(group):
        return sum(t for s, t in zip(spans, selfs) if s[0] in group) / 1e6 / ops

    return {
        "linalg.eig_calls_per_op": count(EIG),
        "linalg.eig_ms_per_op": incl_ms(EIG),
        "linalg.expm_calls_per_op": count(EXPM),
        "linalg.expm_ms_per_op": incl_ms(EXPM),
        "linalg.spectral_ms_per_op": self_ms(SPECTRAL),
        "linalg.validate_ms_per_op": self_ms(VALIDATE),
        "decompose.kak_ms_per_op": self_ms(("decompose.kak_decompose",)),
        "decompose.aba_ms_per_op": self_ms(("decompose.aba_decompose",)),
        "decompose.verify_calls_per_op": count(VERIFY),
        "decompose.verify_ms_per_op": incl_ms(VERIFY),
        "pulses.shape_ms_per_op": self_ms(_names("pulses")),
        "pulses.steps_per_op": count(("pulses.PulseStep.__post_init__",)),
        "stateprep.reduce_ms_per_op": incl_ms(("stateprep.reduce_to_uniform",)),
        "stateprep.moves_per_op": count(("stateprep.reduction_step",)),
        "stateprep.self_ms_per_op": self_ms(_names("stateprep")),
        "simulator.evolve_ms_per_op": incl_ms(EVOLVE),
        "simulator.measure_ms_per_op": incl_ms(("simulator.measure",)),
        "simulator.density_checks_per_op": count(("simulator.DensityMatrixState.__post_init__",)),
        "simulator.density_check_ms_per_op": incl_ms(("simulator.DensityMatrixState.__post_init__",)),
        "observables.spectral_ms_per_op": incl_ms(("observables.spectral_decompose",)),
        "observables.self_ms_per_op": self_ms(_names("observables")),
        "formats.dump_ms_per_op": incl_ms(DUMP),
        "formats.load_ms_per_op": incl_ms(LOAD),
        "formats.schedule_kb_per_op": schedule_bytes / 1e3 / ops,
        "cli.self_ms_per_op": self_ms(_names("cli")),
    }
