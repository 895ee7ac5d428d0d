"""End-to-end CLI tests: exit codes, JSON payloads, file handoff."""

import json

import numpy as np
import pytest

import golden
import sesqc.pulses
from sesqc.cli import main
from sesqc.formats import load_schedule, save_matrix, save_schedule, save_state
from sesqc.linalg import global_phase_fidelity, random_unitary
from sesqc.observables import expectation_exact
from sesqc.pulses import PulseSchedule
from sesqc.simulator import DensityMatrixState
from sesqc.stateprep import SESState


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_unitary(tmp_path, n=4, seed=60):
    path = tmp_path / "u.json"
    save_matrix(path, random_unitary(n, np.random.default_rng(seed)))
    return path


def write_target(tmp_path):
    path = tmp_path / "target.json"
    save_state(path, golden.normalized_target())
    return path


# ---------------------------------------------------------------------------
# compile


def test_compile_writes_verified_schedule(tmp_path, capsys):
    u_path = write_unitary(tmp_path)
    out = tmp_path / "sched.json"
    code, stdout, _ = run_cli(capsys, "compile", str(u_path), "--out", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["n"] == 4
    assert payload["labels"] == ["a_dagger", "b", "a"]
    assert payload["fidelity"] >= 1 - 1e-8

    from sesqc.decompose import schedule_unitary
    from sesqc.formats import load_matrix

    schedule = load_schedule(out)
    assert global_phase_fidelity(schedule_unitary(schedule), load_matrix(u_path)) >= 1 - 1e-8


def test_compile_text_report(tmp_path, capsys):
    u_path = write_unitary(tmp_path)
    out = tmp_path / "sched.json"
    code, stdout, _ = run_cli(capsys, "compile", str(u_path), "--out", str(out))
    assert code == 0
    assert "round-trip fidelity" in stdout
    assert str(out) in stdout


def test_compile_gmax_scales_duration(tmp_path, capsys):
    u_path = write_unitary(tmp_path)
    out = tmp_path / "s.json"
    _, out50, _ = run_cli(capsys, "compile", str(u_path), "--out", str(out), "--json")
    _, out100, _ = run_cli(
        capsys, "compile", str(u_path), "--out", str(out), "--json", "--gmax", "100"
    )
    d50 = json.loads(out50)["duration_ns"]
    d100 = json.loads(out100)["duration_ns"]
    assert d100 == pytest.approx(d50 / 2)


def test_compile_rejects_nonunitary(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_matrix(path, np.diag([1.0, 0.3]))
    code, _, err = run_cli(capsys, "compile", str(path))
    assert code == 3
    assert "error" in err


def test_compile_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "compile", str(path))
    assert code == 2


def test_compile_rejects_boolean_entries(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"n": 1, "entries": [[[true, false]]]}')
    code, _, _ = run_cli(capsys, "compile", str(path), "--out", str(tmp_path / "s.json"))
    assert code == 2


def test_compile_unsaturated_pulse_exits_4(tmp_path, capsys, monkeypatch):
    true_angle = sesqc.pulses.rotation_angle
    monkeypatch.setattr(sesqc.pulses, "rotation_angle", lambda a, c: 2.0 * true_angle(a, c))
    out = tmp_path / "s.json"
    code, _, err = run_cli(capsys, "compile", str(write_unitary(tmp_path)), "--out", str(out))
    assert code == 4
    assert "error" in err


def test_compile_counts_eigensolves(tmp_path, capsys, eig_calls):
    """Two for the ABA generators; the pulses are exponentiated without one."""
    u_path = write_unitary(tmp_path, n=5)
    code, _, _ = run_cli(capsys, "compile", str(u_path), "--out", str(tmp_path / "s.json"))
    assert code == 0
    assert sum(eig_calls.values()) == 2


def test_compile_missing_file(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "compile", str(tmp_path / "absent.json"))
    assert code == 2


# ---------------------------------------------------------------------------
# prepare


@pytest.mark.parametrize("mode", ["linear", "three-step"])
def test_prepare_reference_target(tmp_path, capsys, mode):
    target_path = write_target(tmp_path)
    out = tmp_path / "prep.json"
    code, stdout, _ = run_cli(
        capsys, "prepare", str(target_path), "--mode", mode, "--out", str(out), "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["fidelity"] >= 1 - 1e-8
    assert payload["reduction_moves"] == golden.M_MOVES
    expected_steps = 3 if mode == "three-step" else 2 * golden.M_MOVES + 2
    assert payload["steps"] == expected_steps


def test_prepare_linear_counts_eigensolves(tmp_path, capsys, eig_calls):
    """The 2m+2 pulses are exponentiated without an eigensolve, for check and report alike."""
    out = tmp_path / "prep.json"
    code, _, _ = run_cli(
        capsys, "prepare", str(write_target(tmp_path)), "--mode", "linear", "--out", str(out), "--json"
    )
    assert code == 0
    assert sum(eig_calls.values()) == 0


def test_prepare_linear_counts_dense_exponentials(tmp_path, capsys, expm_calls):
    """Only the star pulse is exponentiated densely, when the schedule is
    prepared and again when its file is simulated; the diagonal and
    partial-swap pulses are applied in closed form."""
    out = tmp_path / "prep.json"
    code, _, _ = run_cli(capsys, "prepare", str(write_target(tmp_path)), "--mode", "linear", "--out", str(out))
    assert code == 0
    assert expm_calls["expm_generator"] == 1
    expm_calls.clear()
    code, _, _ = run_cli(capsys, "simulate", str(out))
    assert code == 0
    assert expm_calls["expm_generator"] == 1


def test_prepare_rejects_unnormalized_state(tmp_path, capsys):
    path = tmp_path / "raw.json"
    save_state(path, golden.TARGET_AMPLITUDES)  # squared norm is 1.0000256
    code, _, err = run_cli(capsys, "prepare", str(path))
    assert code == 5
    assert "norm" in err


# ---------------------------------------------------------------------------
# simulate


def test_prepare_then_simulate_reaches_target(tmp_path, capsys):
    target_path = write_target(tmp_path)
    sched_path = tmp_path / "prep.json"
    run_cli(capsys, "prepare", str(target_path), "--mode", "three-step", "--out", str(sched_path))
    code, stdout, _ = run_cli(capsys, "simulate", str(sched_path), "--initial", "1")
    assert code == 0
    payload = json.loads(stdout)
    amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    fidelity = abs(np.vdot(golden.normalized_target(), amps)) ** 2
    assert fidelity >= 1 - 1e-8
    assert payload["counts"] is None


def test_simulate_rejects_boolean_theta(tmp_path, capsys):
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({
        "n": 1, "g_max_mhz_over_2pi": 50.0,
        "steps": [{"label": "", "theta": True, "K": [[True]]}],
        "total_theta": 1.0, "duration_ns": 1.0 / (2 * np.pi * 0.05),
    }))
    code, _, err = run_cli(capsys, "simulate", str(sched_path))
    assert code == 2
    assert "theta" in err or "K" in err


def test_simulate_rejects_string_totals_and_labels(tmp_path, capsys):
    doc = {
        "n": 1, "g_max_mhz_over_2pi": 50.0,
        "steps": [{"label": "", "theta": 1.0, "K": [[1.0]]}],
        "total_theta": 1.0, "duration_ns": 1.0 / (2 * np.pi * 0.05),
    }
    sched_path = tmp_path / "s.json"
    for key, value in (("total_theta", "1.0"), ("duration_ns", str(doc["duration_ns"]))):
        sched_path.write_text(json.dumps(dict(doc, **{key: value})))
        code, _, err = run_cli(capsys, "simulate", str(sched_path))
        assert code == 2
        assert key in err
    doc["steps"][0]["label"] = [1, 2]
    sched_path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "simulate", str(sched_path))
    assert code == 2
    assert "label" in err


def test_simulate_accepts_state_file_initial(tmp_path, capsys):
    target_path = write_target(tmp_path)
    sched_path = tmp_path / "prep.json"
    run_cli(capsys, "prepare", str(target_path), "--out", str(sched_path))
    initial = tmp_path / "start.json"
    save_state(initial, SESState.basis(5, 0).amplitudes)
    code, stdout, _ = run_cli(capsys, "simulate", str(sched_path), "--initial", str(initial))
    assert code == 0
    assert json.loads(stdout)["initial"] == str(initial)


def test_simulate_shots_are_seeded(tmp_path, capsys):
    target_path = write_target(tmp_path)
    sched_path = tmp_path / "prep.json"
    run_cli(capsys, "prepare", str(target_path), "--out", str(sched_path))
    _, out1, _ = run_cli(
        capsys, "simulate", str(sched_path), "--shots", "500", "--seed", "17"
    )
    _, out2, _ = run_cli(
        capsys, "simulate", str(sched_path), "--shots", "500", "--seed", "17"
    )
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["counts"] == p2["counts"]
    assert sum(p1["counts"]) == 500
    assert p1["seed"] == 17
    assert p1["rng"] == "numpy-pcg64"


def test_simulate_honours_ses_seed_env(tmp_path, capsys, monkeypatch):
    target_path = write_target(tmp_path)
    sched_path = tmp_path / "prep.json"
    run_cli(capsys, "prepare", str(target_path), "--out", str(sched_path))
    monkeypatch.setenv("SES_SEED", "99")
    _, out1, _ = run_cli(capsys, "simulate", str(sched_path), "--shots", "200")
    payload = json.loads(out1)
    assert payload["seed"] == 99
    monkeypatch.setenv("SES_SEED", "not-a-number")
    code, _, _ = run_cli(capsys, "simulate", str(sched_path), "--shots", "200")
    assert code == 2


def test_shots_beyond_int64_exit_2(tmp_path, capsys):
    sched_path = tmp_path / "prep.json"
    run_cli(capsys, "prepare", str(write_target(tmp_path)), "--out", str(sched_path))
    obs_path, _ = make_observable(tmp_path, n=5)
    for argv in (("simulate", str(sched_path)),
                 ("expect", str(obs_path), str(write_target(tmp_path)))):
        code, _, err = run_cli(capsys, *argv, "--shots", str(10**20), "--seed", "1")
        assert code == 2
        assert "shots must be in" in err


def test_integers_beyond_float_range_exit_2(tmp_path, capsys):
    """JSON integers too large for a double are malformed input in every subcommand."""
    huge = 10**400
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"n": 1, "entries": [[[huge, 0]]]}))
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"n": 1, "amplitudes": [[1, huge]]}))
    empty = tmp_path / "empty.json"
    save_schedule(empty, PulseSchedule(n=1, steps=()))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({
        "n": 1, "g_max_mhz_over_2pi": 50.0,
        "steps": [{"label": "", "theta": huge, "K": [[1]]}],
        "total_theta": 1.0, "duration_ns": 1.0,
    }))
    good_obs, good_state = tmp_path / "obs.json", tmp_path / "good.json"
    save_matrix(good_obs, np.eye(1))
    save_state(good_state, [1.0])
    out = str(tmp_path / "out.json")
    for argv in (("compile", str(matrix), "--out", out),
                 ("prepare", str(state), "--out", out),
                 ("simulate", str(sched)),
                 ("simulate", str(empty), "--initial", str(state)),
                 ("expect", str(matrix), str(good_state), "--exact"),
                 ("expect", str(good_obs), str(state), "--exact"),
                 ("expect", str(good_obs), str(matrix), "--exact")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error" in err


def test_simulate_rejects_bad_initial_index(tmp_path, capsys):
    target_path = write_target(tmp_path)
    sched_path = tmp_path / "prep.json"
    run_cli(capsys, "prepare", str(target_path), "--out", str(sched_path))
    for bad in ("0", "6"):
        code, _, _ = run_cli(capsys, "simulate", str(sched_path), "--initial", bad)
        assert code == 2


# ---------------------------------------------------------------------------
# expect


def make_observable(tmp_path, n=4, seed=61):
    rng = np.random.default_rng(seed)
    o = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    o = (o + o.conj().T) / 2
    path = tmp_path / "obs.json"
    save_matrix(path, o)
    return path, o


def test_expect_exact_matches_trace(tmp_path, capsys):
    obs_path, o = make_observable(tmp_path)
    rng = np.random.default_rng(62)
    state = SESState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
    state_path = tmp_path / "state.json"
    save_state(state_path, state.amplitudes)
    code, stdout, _ = run_cli(
        capsys, "expect", str(obs_path), str(state_path), "--exact", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] == pytest.approx(expectation_exact(state, o), abs=1e-8)
    assert payload["shots"] is None


def test_expect_accepts_density_matrix(tmp_path, capsys):
    obs_path, o = make_observable(tmp_path)
    rng = np.random.default_rng(63)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    rho = m / np.trace(m).real
    rho_path = tmp_path / "rho.json"
    save_matrix(rho_path, rho)
    code, stdout, _ = run_cli(
        capsys, "expect", str(obs_path), str(rho_path), "--exact", "--json"
    )
    assert code == 0
    expected = expectation_exact(DensityMatrixState(rho), o)
    assert json.loads(stdout)["value"] == pytest.approx(expected, abs=1e-8)


def test_expect_sampled_mode(tmp_path, capsys):
    obs_path, o = make_observable(tmp_path)
    state = SESState.basis(4, 1)
    state_path = tmp_path / "state.json"
    save_state(state_path, state.amplitudes)
    code, stdout, _ = run_cli(
        capsys,
        "expect", str(obs_path), str(state_path),
        "--shots", "200000", "--seed", "3", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    exact = expectation_exact(state, o)
    assert abs(payload["value"] - exact) <= 5 * payload["std_error_bound"]


def test_expect_requires_a_mode(tmp_path, capsys):
    obs_path, _ = make_observable(tmp_path)
    state_path = tmp_path / "state.json"
    save_state(state_path, SESState.basis(4).amplitudes)
    code, _, _ = run_cli(capsys, "expect", str(obs_path), str(state_path))
    assert code == 2


def test_expect_rejects_nonhermitian_observable(tmp_path, capsys):
    path = tmp_path / "obs.json"
    save_matrix(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
    state_path = tmp_path / "state.json"
    save_state(state_path, SESState.basis(2).amplitudes)
    code, _, _ = run_cli(capsys, "expect", str(path), str(state_path), "--exact")
    assert code == 6


def test_expect_rejects_invalid_density(tmp_path, capsys):
    obs_path, _ = make_observable(tmp_path, n=2, seed=64)
    rho_path = tmp_path / "rho.json"
    save_matrix(rho_path, np.diag([1.5, -0.5]))
    code, _, _ = run_cli(capsys, "expect", str(obs_path), str(rho_path), "--exact")
    assert code == 5


# ---------------------------------------------------------------------------
# bench


def test_bench_decompose_reports(capsys):
    code, stdout, _ = run_cli(
        capsys, "bench-decompose", "--sizes", "4,8", "--reps", "1", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["backend"] == "numpy"
    assert [row["n"] for row in payload["rows"]] == [4, 8]
    assert payload["fit_exponent"] is not None


def test_bench_decompose_rejects_bad_sizes(capsys):
    assert run_cli(capsys, "bench-decompose", "--sizes", "abc")[0] == 2
    assert run_cli(capsys, "bench-decompose", "--sizes", "1,2")[0] == 2
