"""End-to-end CLI tests: exit codes, JSON payloads, file handoff."""

import json

import numpy as np
import pytest

import golden
import sesqc.cli
import sesqc.pulses
from sesqc import errors
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


def test_compile_rejects_deeply_nested_json(tmp_path, capsys):
    """JSON nested beyond the parser's recursion limit is malformed input, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, _, err = run_cli(capsys, "compile", str(path), "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


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


@pytest.mark.parametrize("error, code, prefix", [
    (errors.DimensionMismatch, 2, ""),
    (errors.NotUnitary, 3, ""),
    (errors.DecompositionError, 4, "verification failed: "),
    (errors.CommutatorViolation, 4, "verification failed: "),
    (errors.NonUniformWeights, 4, "verification failed: "),
    (errors.SesqcError, 4, "verification failed: "),
    (errors.InvalidState, 5, ""),
    (errors.InvalidDensityMatrix, 5, ""),
    (errors.NotHermitian, 6, ""),
])
def test_each_error_type_owns_its_exit_code(tmp_path, capsys, monkeypatch, error, code, prefix):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(sesqc.cli, "compile_unitary", fail)
    got, _, err = run_cli(capsys, "compile", str(write_unitary(tmp_path)), "--out", str(tmp_path / "s.json"))
    assert (got, err) == (code, f"error: {prefix}boom\n")


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


def test_prepare_three_step_minus_basis_state(tmp_path, capsys):
    """(0, -1) takes the KAK step through -i times a reflection, whose Hermitian part is ~0."""
    path = tmp_path / "state.json"
    save_state(path, np.array([0.0, -1.0], dtype=complex))
    out = tmp_path / "prep.json"
    code, stdout, err = run_cli(capsys, "prepare", str(path), "--mode", "three-step", "--out", str(out), "--json")
    assert code == 0, err
    assert json.loads(stdout)["fidelity"] >= 1 - 1e-8


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


def test_simulate_unallocatable_schedule_exits_2(tmp_path, capsys):
    """An empty schedule whose n x n product (1.42 PiB) cannot be allocated exits 2."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10_000_000, "g_max_mhz_over_2pi": 50.0, "steps": [],
                                "total_theta": 0.0, "duration_ns": 0.0}))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


@pytest.mark.parametrize("lam_min, expected", [(-5e-10, 0), (-2e-9, 5)])
def test_expect_density_eigenvalue_floor(tmp_path, capsys, lam_min, expected):
    """Guard: the -1e-9 floor on lambda_min(rho) holds through the CLI."""
    obs_path, _ = make_observable(tmp_path)
    rho_path = tmp_path / "rho.json"
    save_matrix(rho_path, np.diag([0.5, 0.3, 0.2 - lam_min, lam_min]))
    code, _, _ = run_cli(capsys, "expect", str(obs_path), str(rho_path), "--exact")
    assert code == expected


def test_expect_accepts_observable_in_physical_units(tmp_path, capsys):
    """The spectral residual bound scales with max|O|."""
    rng = np.random.default_rng(1)
    o = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    o = 1e6 * (o + o.conj().T) / 2
    obs_path = tmp_path / "obs.json"
    save_matrix(obs_path, o)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = a @ a.conj().T
    rho = m / np.trace(m).real
    rho_path = tmp_path / "rho.json"
    save_matrix(rho_path, rho)
    code, stdout, _ = run_cli(
        capsys, "expect", str(obs_path), str(rho_path), "--exact", "--json"
    )
    assert code == 0
    value = json.loads(stdout)["value"]
    assert abs(value - np.trace(rho @ o).real) <= 1e-9 * np.max(np.abs(o))


def write_scaled_observable(tmp_path, s, defect):
    """8x8 O from default_rng(1) times s, each entry times (1 + 1e-15 noise),
    with ``defect`` max|O| added to one off-diagonal entry."""
    rng = np.random.default_rng(1)
    o = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    o = s * (o + o.conj().T) / 2 * (1 + 1e-15 * rng.normal(size=(8, 8)))
    o[2, 5] += defect * np.max(np.abs(o))
    obs_path = tmp_path / "obs.json"
    save_matrix(obs_path, o)
    rho_path = tmp_path / "rho.json"
    save_matrix(rho_path, np.eye(8) / 8)
    return o, obs_path, rho_path


@pytest.mark.parametrize("s", [1e8, 1e12])
def test_expect_accepts_rounding_asymmetry_in_physical_units(tmp_path, capsys, s):
    """The Hermitian bound scales with max|O|."""
    o, obs_path, rho_path = write_scaled_observable(tmp_path, s, defect=0.0)
    code, stdout, _ = run_cli(
        capsys, "expect", str(obs_path), str(rho_path), "--exact", "--json"
    )
    assert code == 0
    value = json.loads(stdout)["value"]
    assert abs(value - np.trace(o).real / 8) <= 1e-9 * np.max(np.abs(o))


@pytest.mark.parametrize("s", [1e-12, 1e-6, 1.0, 1e8])
def test_expect_rejects_asymmetric_observable_at_any_scale(tmp_path, capsys, s):
    """One entry off by 1e-3 max|O| exits 6 however small O is."""
    _, obs_path, rho_path = write_scaled_observable(tmp_path, s, defect=1e-3)
    code, _, _ = run_cli(capsys, "expect", str(obs_path), str(rho_path), "--exact")
    assert code == 6


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


# ---------------------------------------------------------------------------
# many commands in one process


def test_repeated_main_calls_match_first_runs(tmp_path, capsys):
    """The parser is built once per process, so a call that follows others,
    an argparse error among them, must print and write what it does as the
    first call on a newly built parser."""
    u_path = write_unitary(tmp_path)
    state_path = write_target(tmp_path)
    obs_path, _ = make_observable(tmp_path, n=5)
    outs = [tmp_path / f"s{i}.json" for i in range(3)]
    commands = [  # (argv, the schedule file it writes)
        (["compile", str(u_path), "--out", str(outs[0]), "--json"], outs[0]),
        (["prepare", str(state_path), "--mode", "linear", "--out", str(outs[1]), "--json"], outs[1]),
        (["prepare", str(state_path), "--mode", "three-step", "--out", str(outs[2])], outs[2]),
        (["simulate", str(outs[1]), "--shots", "100", "--seed", "5"], None),
        (["simulate", str(outs[2]), "--initial", str(state_path)], None),
        (["expect", str(obs_path), str(state_path), "--exact", "--json"], None),
    ]
    first = []
    for argv, out in commands:
        sesqc.cli.build_parser.cache_clear()
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        first.append((stdout, out and out.read_bytes()))

    parser = sesqc.cli.build_parser()
    for out in outs:
        out.unlink()
    for _ in range(2):  # the second pass overwrites the files of the first
        for (argv, out), (stdout, written) in zip(commands, first):
            with pytest.raises(SystemExit) as exc:
                main(["prepare", str(state_path), "--mode", "bogus"])
            assert exc.value.code == 2
            capsys.readouterr()
            assert run_cli(capsys, *argv)[:2] == (0, stdout)
            assert (out and out.read_bytes()) == written
    assert sesqc.cli.build_parser() is parser


def test_dispatch_follows_a_rebound_command(tmp_path, capsys, monkeypatch):
    """A cmd_* patched after the parser is built is the one that runs."""
    sesqc.cli.build_parser()
    seen = []
    monkeypatch.setattr(sesqc.cli, "cmd_simulate", lambda args: seen.append(args.schedule_file) or 7)
    assert main(["simulate", "sched.json"]) == 7
    assert seen == ["sched.json"]
