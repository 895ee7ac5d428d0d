"""KAK / three-pulse decomposition and unitary compiler tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import sesqc.linalg
from sesqc.decompose import (
    SYMMETRIC_SHORTCUT_TOL,
    _aba_steps,
    aba_decompose,
    compile_hamiltonian,
    compile_unitary,
    kak_decompose,
    schedule_unitary,
)
from sesqc.errors import DecompositionError, NotHermitian, NotUnitary
from sesqc.linalg import (
    expm_generator,
    global_phase_fidelity,
    hermitian_eig,
    max_abs,
    random_unitary,
    unitary_diagonalize,
)
from sesqc.pulses import (
    DeviceParams,
    PulseSchedule,
    PulseStep,
    compile_diagonal_phases,
    optimal_shift,
    rotation_angle,
)


def expm_series(m, terms=60):
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def random_orthogonal(n, rng):
    o, r = np.linalg.qr(rng.normal(size=(n, n)))
    return o * np.sign(np.diagonal(r))


def with_defect(u, rng, defect):
    """``u`` plus Gaussian noise scaled to max|U†U - I| ~ ``defect``."""
    n = u.shape[0]
    e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    probe = u + 1e-6 * e
    return u + 1e-6 * e * (defect / max_abs(probe.conj().T @ probe - np.eye(n)))


def near_unitary(n, seed, defect):
    """Haar U plus Gaussian noise scaled to max|U†U - I| ~ ``defect``."""
    rng = np.random.default_rng(seed)
    return with_defect(random_unitary(n, rng), rng, defect)


def assert_valid_kak(u, kak, atol=1e-8):
    n = u.shape[0]
    np.testing.assert_allclose(kak.o1.T @ kak.o1, np.eye(n), atol=atol)
    np.testing.assert_allclose(kak.o2.T @ kak.o2, np.eye(n), atol=atol)
    assert kak.o1.dtype == np.float64 and kak.o2.dtype == np.float64
    assert np.all(kak.d > -np.pi / 2) and np.all(kak.d <= np.pi / 2)
    np.testing.assert_allclose(kak.reconstruct(), u, atol=atol)


# ---------------------------------------------------------------------------
# kak_decompose


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_kak_random_unitary(n):
    rng = np.random.default_rng(500 + n)
    u = random_unitary(n, rng)
    assert_valid_kak(u, kak_decompose(u))


def test_kak_phase_gate():
    u = np.diag([1.0, 1j])
    kak = kak_decompose(u)
    assert_valid_kak(u, kak, atol=1e-12)
    # chi = diag(1, -1), so the half-angles are 0 and pi/2 in some order
    np.testing.assert_allclose(np.sort(kak.d), [0.0, np.pi / 2], atol=1e-12)


def test_kak_identity():
    kak = kak_decompose(np.eye(4))
    assert max_abs(kak.d) == 0.0
    assert_valid_kak(np.eye(4), kak, atol=1e-12)


def test_kak_real_orthogonal_input():
    """chi = I is totally degenerate; O2 must absorb the whole rotation."""
    rng = np.random.default_rng(501)
    u = random_orthogonal(6, rng).astype(np.complex128)
    kak = kak_decompose(u)
    assert max_abs(kak.d) <= 1e-12
    assert_valid_kak(u, kak, atol=1e-10)


def test_kak_symmetric_unitary():
    rng = np.random.default_rng(502)
    g = rng.normal(size=(5, 5))
    g = (g + g.T) / 2
    u = expm_generator(1.0, g)  # symmetric unitary
    kak = kak_decompose(u)
    assert_valid_kak(u, kak, atol=1e-9)


def test_kak_repeated_half_angles():
    """Degenerate e^{-2iD} phases: O1 must be a real basis of each eigenspace."""
    rng = np.random.default_rng(503)
    o1 = random_orthogonal(6, rng)
    o2 = random_orthogonal(6, rng)
    d = np.array([0.4, 0.4, 0.4, -1.1, -1.1, 0.9])
    u = (o1 * np.exp(-1j * d)) @ o2.T
    kak = kak_decompose(u)
    assert_valid_kak(u, kak, atol=1e-9)
    np.testing.assert_allclose(np.sort(kak.d), np.sort(d), atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_kak_accepts_near_unitary_input(n, seed):
    """U U^T has about twice U's unitarity defect, so forming it from U
    itself refused most U at a 9e-9 defect that require_unitary accepts."""
    u = near_unitary(n, seed, 9e-9)
    assert_valid_kak(u, kak_decompose(u))


def test_kak_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        kak_decompose(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# aba_decompose


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_aba_round_trip(n):
    rng = np.random.default_rng(600 + n)
    for _ in range(10):
        u = random_unitary(n, rng)
        aba = aba_decompose(u)
        assert max_abs(aba.a - aba.a.T) <= 1e-12
        assert max_abs(aba.b - aba.b.T) <= 1e-12
        assert global_phase_fidelity(aba.reconstruct(), u) >= 1 - 1e-8


@pytest.mark.parametrize("n", [3, 6])
def test_aba_generators_negative_semidefinite(n):
    """Phases are read on non-positive branches, so A, B <= 0."""
    rng = np.random.default_rng(610 + n)
    for _ in range(10):
        u = random_unitary(n, rng)
        aba = aba_decompose(u)
        assert np.linalg.eigvalsh(aba.a).max() <= 1e-12
        assert np.linalg.eigvalsh(aba.b).max() <= 1e-12


def test_aba_identity():
    aba = aba_decompose(np.eye(5))
    assert max_abs(aba.a) <= 1e-12
    assert max_abs(aba.b) <= 1e-12


def test_aba_reference_unitary():
    """The five-qubit reference pair reconstructs its tabulated unitary.

    Both sides carry four-decimal rounding, so neither passes a strict
    unitarity gate; compare entrywise after aligning the global phase.
    """
    u_a = expm_series(-1j * golden.GENERATOR_A)
    u_b = expm_series(-1j * golden.GENERATOR_B)
    rebuilt = u_a @ u_b @ u_a.conj().T
    phase = np.trace(rebuilt.conj().T @ golden.COMPILED_U)
    aligned = rebuilt * phase / abs(phase)
    assert max_abs(aligned - golden.COMPILED_U) <= 5e-4


# ---------------------------------------------------------------------------
# schedule execution order


def test_schedule_unitary_applies_first_step_first():
    k1 = np.zeros((2, 2))
    k1[0, 1] = k1[1, 0] = 1.0
    k2 = np.diag([1.0, -1.0])
    s1 = PulseStep(k=k1, theta=0.7)
    s2 = PulseStep(k=k2, theta=0.4)
    schedule = PulseSchedule(n=2, steps=(s1, s2), device=DeviceParams())
    expected = expm_generator(0.4, k2) @ expm_generator(0.7, k1)
    np.testing.assert_allclose(schedule_unitary(schedule), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# compile_unitary


@pytest.mark.parametrize("n", [2, 4, 7])
def test_compile_unitary_three_steps(n):
    rng = np.random.default_rng(700 + n)
    u = random_unitary(n, rng)
    schedule = compile_unitary(u)
    assert [s.label for s in schedule.steps] == ["a_dagger", "b", "a"]
    assert global_phase_fidelity(schedule_unitary(schedule), u) >= 1 - 1e-8


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_first_aba_pulse_inverts_the_last(n, seed, density):
    """a_dagger holds the angle of a and exactly -K, with +0.0 for its zeros,
    for dense and sparse generators."""
    rng = np.random.default_rng(seed)
    a, b = (np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < density)) for _ in range(2))
    first, _, last = _aba_steps(a + np.triu(a, 1).T, b + np.triu(b, 1).T)
    assert (first.label, last.label) == ("a_dagger", "a")
    assert first.theta == last.theta
    assert np.array_equal(first.k, -last.k)
    assert not np.any(np.signbit(first.k) & (first.k == 0.0))


def test_each_generator_is_validated_once(validate_calls):
    """require_real_symmetric calls per n = 8 compile: one per compiled
    generator (two, a and b, or the two phase-branch candidates), one per
    PulseStep's K, one per dense pulse exponential, and one in each real
    eigensolve of unitary_diagonalize (the KAK's U U.T, or a symmetric U)."""
    rng = np.random.default_rng(709)
    u = random_unitary(8, rng)
    h = rng.normal(size=(8, 8))
    counts = []
    for compile_ in (lambda: compile_unitary(u), lambda: compile_unitary(u @ u.T),
                     lambda: compile_hamiltonian((h + h.T) / 2, 1.3)):
        validate_calls.clear()
        compile_()
        counts.append(validate_calls["require_real_symmetric"])
    assert counts == [9, 6, 5]


def test_compile_unitary_symmetric_one_step():
    rng = np.random.default_rng(701)
    g = rng.normal(size=(6, 6))
    g = (g + g.T) / 2
    u = expm_generator(1.0, g)
    schedule = compile_unitary(u)
    assert len(schedule.steps) == 1
    assert schedule.steps[0].label == "symmetric"
    assert global_phase_fidelity(schedule_unitary(schedule), u) >= 1 - 1e-8


def symmetric_unitary_with_asymmetry(n, rng, asym):
    """O diag(e^{-i lam}) O.T times a real rotation of one index pair, its
    angle set so that max|U - U.T| = asym (linear in the angle this small)."""
    o = random_orthogonal(n, rng)
    sym = (o * np.exp(-1j * rng.uniform(-np.pi, np.pi, size=n))) @ o.T

    def rotated(angle):
        r = np.eye(n)
        r[[0, 0, 1, 1], [0, 1, 0, 1]] = np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)
        return sym @ r

    probe = rotated(1e-6)
    return rotated(1e-6 * asym / max_abs(probe - probe.T))


def structured_unitary(kind, n, rng):
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    if kind in ("fourier", "fourier_conj"):
        jk = np.outer(np.arange(n), np.arange(n))
        f = np.exp(2j * np.pi * jk / n) / np.sqrt(n)
        return f if kind == "fourier" else f.conj()
    if kind == "branch_cut":
        edge = np.pi - np.array([0.0, 2e-16, 1e-12])
        return np.diag(np.exp(1j * rng.choice(np.concatenate([edge, -edge]), size=n)))
    if kind == "minus_identity":
        return -np.eye(n)
    if kind == "repeated_phases":
        v = random_unitary(n, rng)
        return (v * np.exp(-1j * rng.choice([0.4, -2.9, np.pi], size=n))) @ v.conj().T
    if kind == "i_reflection":  # Hermitian part (U + U†)/2 ~0
        v = random_unitary(n, rng)
        return 1j * (v * rng.choice([-1.0, 1.0], size=n)) @ v.conj().T
    return symmetric_unitary_with_asymmetry(n, rng, {"asym_below": 0.5e-10, "asym_above": 2e-10}[kind])


STRUCTURED_KINDS = ("permutation", "fourier", "fourier_conj", "branch_cut", "minus_identity",
                    "repeated_phases", "i_reflection", "asym_below", "asym_above")


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(STRUCTURED_KINDS), st.sampled_from([2, 3, 4, 5, 8, 16]),
       st.integers(0, 2**32 - 1), st.floats(-np.pi, np.pi),
       st.one_of(st.just(0.0), st.floats(1e-10, 9e-9)))
def test_compile_unitary_round_trips_structured_targets(kind, n, seed, phase, defect):
    """Degenerate spectra, the +-pi branch cut and both sides of the
    symmetric-shortcut threshold compile at full fidelity with bounded
    angles, also with a unitarity defect up to 9e-9."""
    rng = np.random.default_rng(seed)
    u = np.exp(1j * phase) * structured_unitary(kind, n, rng)
    if defect:
        u = with_defect(u, rng, defect)
    schedule = compile_unitary(u)
    assert global_phase_fidelity(schedule_unitary(schedule), u) >= 1 - 1e-8
    assert len(schedule.steps) == (1 if max_abs(u - u.T) <= SYMMETRIC_SHORTCUT_TOL else 3)
    assert all(step.theta <= np.pi + 1e-12 for step in schedule.steps)
    if kind.startswith("asym") and not defect:  # noise moves max|U - U.T| off its set value
        assert len(schedule.steps) == (1 if kind == "asym_below" else 3)


@pytest.mark.parametrize("phase", [3e-9, 1e-8])
def test_compile_unitary_cyclic_permutation_near_degenerate(phase):
    """Re(U) of a 3-cycle times e^{i phase} has two eigenvalues ~1.7 phase
    apart, just outside a degenerate cluster: split by Re(U) alone, their
    vectors leave Im(U) a cross term of 2-3.5e-8, above the 1e-8 bound."""
    u = np.exp(1j * phase) * np.eye(3)[[1, 2, 0]]
    schedule = compile_unitary(u)
    assert global_phase_fidelity(schedule_unitary(schedule), u) >= 1 - 1e-8


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_compile_unitary_accepts_near_unitary_input(n, seed):
    """A 9e-9 unitarity defect passes require_unitary.  The Hermitian parts
    of such a U do not commute (max|[h1, h2]| ~ defect / 2), so a spectral
    form built by diagonalising them jointly refused most of these."""
    u = near_unitary(n, seed, 9e-9)
    schedule = compile_unitary(u)
    assert global_phase_fidelity(schedule_unitary(schedule), u) >= 1 - 1e-8


def principal_branch_angle(v, lam):
    """Pulse angle of the real generator V diag(lam) V† for the phases as given."""
    g = ((v * lam) @ v.conj().T).real
    g = (g + g.T) / 2.0
    return rotation_angle(g, optimal_shift(g))


def test_one_pulse_compiles_take_the_shorter_phase_branch():
    """Phases -3 and 3 lie 2 pi - 6 apart across the branch cut: the
    principal branch needs theta = 3, the shortest arc pi - 3."""
    for schedule in (compile_unitary(np.diag(np.exp([3j, -3j]))),
                     compile_hamiltonian(np.diag([-3.0, 3.0]), 1.0)):
        assert len(schedule.steps) == 1
        assert schedule.steps[0].theta == pytest.approx(np.pi - 3.0, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_one_pulse_angle_is_at_most_the_principal_branch(n, seed, t):
    """Symmetric unitaries and real Hamiltonians compile to one pulse no
    longer than the principal-branch generator's, and diagonal ones to the
    shortest-arc angle of :func:`compile_diagonal_phases`."""
    rng = np.random.default_rng(seed)
    o = random_orthogonal(n, rng)
    u = (o * np.exp(-1j * rng.uniform(-np.pi, np.pi, size=n))) @ o.T
    u = (u + u.T) / 2.0  # symmetric bit for bit: the compiler eigensolves this same matrix
    schedule = compile_unitary(u)
    assert len(schedule.steps) == 1
    assert schedule.steps[0].theta <= principal_branch_angle(*unitary_diagonalize(u))

    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2.0
    v, w = hermitian_eig(h)
    lam = t * w
    lam = np.where(np.abs(lam) <= np.pi, lam, -np.angle(np.exp(-1j * lam)))
    schedule = compile_hamiltonian(h, t)
    assert len(schedule.steps) == 1
    assert schedule.steps[0].theta <= principal_branch_angle(v, lam)

    phases = rng.uniform(-np.pi, np.pi, size=n)
    shortest = compile_diagonal_phases(phases).theta
    assert compile_unitary(np.diag(np.exp(-1j * phases))).total_angle == pytest.approx(shortest, abs=1e-12)
    assert compile_hamiltonian(np.diag(phases / t), t).total_angle == pytest.approx(shortest, abs=1e-12)


def test_compile_unitary_identity_zero_angle():
    schedule = compile_unitary(np.eye(5))
    assert schedule.total_angle == 0.0


def test_compile_unitary_custom_device():
    rng = np.random.default_rng(702)
    u = random_unitary(3, rng)
    fast = compile_unitary(u, DeviceParams(g_max_mhz_over_2pi=100.0))
    slow = compile_unitary(u, DeviceParams(g_max_mhz_over_2pi=25.0))
    assert fast.total_angle == pytest.approx(slow.total_angle)
    assert fast.duration_ns == pytest.approx(slow.duration_ns / 4.0)


def test_compile_unitary_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        compile_unitary(np.diag([1.0, 0.5]))


# ---------------------------------------------------------------------------
# compile_hamiltonian


def test_compile_hamiltonian_zero():
    schedule = compile_hamiltonian(np.zeros((4, 4)), t=2.0)
    assert schedule.total_angle == 0.0


def test_compile_hamiltonian_real_symmetric_one_step():
    rng = np.random.default_rng(800)
    h = rng.normal(size=(5, 5))
    h = (h + h.T) / 2
    schedule = compile_hamiltonian(h, t=0.9)
    assert len(schedule.steps) == 1
    target = expm_series(-1j * 0.9 * h)
    assert global_phase_fidelity(schedule_unitary(schedule), target) >= 1 - 1e-8


@pytest.mark.parametrize("t", [0.3, 1.3, 4.7])
def test_compile_hamiltonian_complex(t):
    rng = np.random.default_rng(801)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (h + h.conj().T) / 2
    schedule = compile_hamiltonian(h, t=t)
    assert len(schedule.steps) == 3
    target = expm_series(-1j * t * h)
    assert global_phase_fidelity(schedule_unitary(schedule), target) >= 1 - 1e-8


@pytest.mark.parametrize("t", [0.0, 1e-12, 1.0, 1e3, 1e9, 1e12])
def test_compile_hamiltonian_angle_bounded_in_t(t):
    """Phases t*lambda are wrapped, so the angle does not grow with t.

    The target is built from the same spectrum the compiler uses: at
    t = 1e12 a 1e-15 relative change of an eigenvalue moves its phase by
    1e-3 rad, so a target from another eigensolver would not be comparable.
    """
    rng = np.random.default_rng(802)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    real = rng.normal(size=(6, 6))
    # a real H compiles to one pulse whose generator has spectrum in [-pi, pi]
    for h, steps, bound in (((h + h.conj().T) / 2, 3, 3 * np.pi), ((real + real.T) / 2, 1, np.pi)):
        v, w = hermitian_eig(h)
        target = (v * np.exp(-1j * t * w)) @ v.conj().T
        schedule = compile_hamiltonian(h, t=t)
        assert len(schedule.steps) == steps
        assert global_phase_fidelity(schedule_unitary(schedule), target) >= 1 - 1e-8
        assert schedule.total_angle <= bound
        if t == 0.0:
            assert schedule.total_angle == 0.0


def test_compile_hamiltonian_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        compile_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), t=1.0)


@pytest.mark.parametrize("complex_", [False, True])
def test_compile_hamiltonian_rejects_wrong_eigendecomposition(monkeypatch, complex_):
    """The fidelity check compares against a target built from the same
    eigendecomposition, so a wrong one is caught by its residual; at
    max|H| ~ 1e-3 that residual is below an absolute 1e-8."""
    rng = np.random.default_rng(803)
    h = rng.normal(size=(5, 5)) + (1j * rng.normal(size=(5, 5)) if complex_ else 0)
    h = (h + h.conj().T) / 2
    jacobi = sesqc.linalg._jacobi

    def off_by_1e_6(m):
        w, v = jacobi(m)
        return w * (1 + 1e-6), v

    monkeypatch.setattr(sesqc.linalg, "_jacobi", off_by_1e_6)
    with pytest.raises(DecompositionError, match="spectral residual"):
        compile_hamiltonian(1e-3 * h, t=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("imag", [0.0, 1.0])
def test_compile_hamiltonian_refuses_overflowing_phases(imag):
    """t = 1e308 is finite, but t * 10 is not: refused before any phase is formed."""
    h = np.diag([10.0, -10.0, 3.0]).astype(complex)
    h[0, 1], h[1, 0] = 1j * imag, -1j * imag
    with pytest.raises(ValueError, match=r"t \* spectrum of H overflows"):
        compile_hamiltonian(h, t=1e308)


def test_compile_hamiltonian_rejects_bad_time():
    with pytest.raises(ValueError):
        compile_hamiltonian(np.eye(3), t=np.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", ["1", None, True, 1j, [1.0], np.array(1.0), float("nan")])
def test_compile_hamiltonian_refuses_non_real_time(t):
    """t must be a finite real number: a string, a bool, a complex number or
    an array is refused by name, not by a numpy TypeError."""
    with pytest.raises(ValueError, match="t must be a finite real number"):
        compile_hamiltonian(np.eye(2), t)


@pytest.mark.parametrize("t", [2, np.float64(2.0), np.int32(2)])
def test_compile_hamiltonian_accepts_real_number_types(t):
    h = np.diag([0.5, -0.5])
    assert compile_hamiltonian(h, t).total_angle == compile_hamiltonian(h, 2.0).total_angle
