"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sesqc  # noqa: E402
import sesqc.formats  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, _inclusive_ns, layer_metrics, self_times_ns  # noqa: E402
from workloads import _haar  # noqa: E402


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=HERE.parent,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec_names(kind: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", ["compile", "prepare", "expect"])
def test_smoke_untraced(workload):
    line = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 20
    assert set(line["metrics"]) == _spec_names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_smoke_traced_prepare():
    line = _bench("--workload", "prepare", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert line["correct"] is True and line["failed"] == 0
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert set(metrics) == _spec_names("per_layer")
    assert metrics["stateprep.moves_per_op"] > 0
    assert metrics["formats.schedule_kb_per_op"] > 0
    assert metrics["cli.self_ms_per_op"] > 0
    assert metrics["simulator.density_checks_per_op"] == 0


def _compiled_doc(n: int = 6) -> tuple[dict, np.ndarray]:
    u = _haar(n, np.random.default_rng(7))
    return checks.schedule_doc(sesqc.compile_unitary(u)), u


def test_checks_accept_a_compiled_schedule():
    doc, u = _compiled_doc()
    assert checks.check_unitary_schedule(doc, u, steps=None) == []


def test_checks_reject_a_sign_flipped_k_entry():
    doc, u = _compiled_doc()
    bad = copy.deepcopy(doc)
    k = np.array(bad["steps"][1]["K"])
    k[0, 1] = -k[0, 1]
    bad["steps"][1]["K"] = k
    assert any("not symmetric" in p for p in checks.check_unitary_schedule(bad, u, steps=None))
    k[1, 0] = -k[1, 0]
    assert any("fidelity" in p for p in checks.check_unitary_schedule(bad, u, steps=None))


def test_checks_reject_a_perturbed_theta():
    doc, u = _compiled_doc()
    bad = copy.deepcopy(doc)
    bad["steps"][0]["theta"] += 1e-3
    assert any("duration_ns" in p for p in checks.check_unitary_schedule(bad, u, steps=None))
    bad["duration_ns"] = sum(s["theta"] for s in bad["steps"]) / (2 * np.pi * 0.05)
    assert [p for p in checks.check_unitary_schedule(bad, u, steps=None) if "fidelity" in p]


def test_checks_reject_a_corrupted_prepare_file(tmp_path):
    rng = np.random.default_rng(11)
    target = rng.normal(size=5) + 1j * rng.normal(size=5)
    target /= np.linalg.norm(target)
    schedule, _ = sesqc.prepare_state_schedule(target, mode="linear")
    path = tmp_path / "schedule.json"
    sesqc.formats.save_schedule(path, schedule)
    doc = json.loads(path.read_text())
    assert checks.check_prep_schedule(doc, target, "linear")[0] == []
    doc["steps"][2]["theta"] += 1e-3
    doc["duration_ns"] = sum(s["theta"] for s in doc["steps"]) / (2 * np.pi * 0.05)
    problems, _ = checks.check_prep_schedule(doc, target, "linear")
    assert any("overlaps" in p for p in problems)


def test_self_time_on_a_hand_built_tree():
    spans = [
        ("a", 0, 100, -1, 0),
        ("b", 10, 40, 0, 0),
        ("c", 20, 30, 1, 0),
        ("b", 50, 90, 0, 0),
        ("c", 60, 75, 3, 0),
        ("c", 70, 80, 3, 0),  # overlaps its sibling: covered time is the union
    ]
    assert self_times_ns(spans) == [30, 20, 10, 20, 15, 10]
    assert _inclusive_ns(spans, {"b", "c"}) == 70
    assert _inclusive_ns(spans, {"c"}) == 35


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        ("linalg.expm_generator", 0, 4_000_000, -1, 0),
        ("linalg.symmetric_eig", 1_000_000, 3_000_000, 0, 0),
        ("linalg.require_real_symmetric", 1_000_000, 1_500_000, 1, 0),
        ("linalg.expm_generator", 5_000_000, 6_000_000, -1, 1),
    ]
    metrics = layer_metrics(spans, ops=2, schedule_bytes=3000)
    assert metrics["linalg.expm_calls_per_op"] == 1.0
    assert metrics["linalg.expm_ms_per_op"] == 2.5
    assert metrics["linalg.eig_calls_per_op"] == 0.5
    assert metrics["linalg.eig_ms_per_op"] == 1.0
    assert metrics["linalg.validate_ms_per_op"] == 0.25
    assert metrics["formats.schedule_kb_per_op"] == 1.5


def test_tracer_wraps_every_binding_and_restores_them():
    original = sesqc.linalg.expm_generator
    tracer = Tracer()
    tracer.install()
    try:
        for module in (sesqc, sesqc.linalg, sesqc.decompose, sesqc.stateprep, sesqc.simulator):
            assert module.expm_generator is not original
        sesqc.compile_unitary(_haar(4, np.random.default_rng(1)))
    finally:
        tracer.uninstall()
    assert sesqc.decompose.expm_generator is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "decompose.compile_unitary" and tracer.spans[0][3] == -1
    assert "linalg.expm_generator" in names and "pulses.PulseStep.__post_init__" in names
    assert all(s[3] >= 0 for s in tracer.spans[1:])
