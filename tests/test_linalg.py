"""Validator, eigensolver and decomposition service tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sesqc.linalg
from sesqc.decompose import compile_hamiltonian, compile_unitary
from sesqc.errors import (
    CommutatorViolation,
    DecompositionError,
    DimensionMismatch,
    NotHermitian,
    NotUnitary,
)
from sesqc.linalg import (
    SYMMETRY_TOL,
    _GOLDEN,
    _fix_column_signs,
    _mean_with_mirror,
    expm_generator,
    global_phase_fidelity,
    hermitian_eig,
    max_abs,
    random_unitary,
    require_hermitian,
    require_real_symmetric,
    require_unitary,
    simultaneous_diag,
    symmetric_eig,
    unitary_diagonalize,
)
from sesqc.observables import spectral_decompose
from sesqc.pulses import (
    PulseSchedule,
    PulseStep,
    compile_diagonal_phases,
    compile_symmetric_generator,
    optimal_shift,
)
from sesqc.simulator import run_schedule
from sesqc.stateprep import SESState


def expm_series(m, terms=60):
    """Scaling-free Taylor-series matrix exponential (test oracle)."""
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# validators


def test_require_real_symmetric_symmetrizes():
    a = np.array([[1.0, 2.0 + 1e-12], [2.0, -1.0]])
    m = require_real_symmetric(a)
    assert m.dtype == np.float64
    assert max_abs(m - m.T) == 0.0


def test_require_real_symmetric_rejects_complex():
    with pytest.raises(NotHermitian):
        require_real_symmetric(np.array([[1.0, 1j], [-1j, 1.0]]))


def test_require_real_symmetric_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        require_real_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int8, np.uint16])
def test_require_real_symmetric_real_path_matches_complex_path(dtype):
    """Real input skips the complex128 round trip and returns the same bits."""
    rng = np.random.default_rng(31)
    a = rng.integers(0, 100, size=(7, 7)).astype(dtype)
    if a.dtype.kind == "f":
        a = a + rng.normal(size=(7, 7)).astype(dtype)
    a = a + a.T
    if a.dtype == np.float64:
        a[2, 5] += 1e-12
    direct = require_real_symmetric(a)
    via_complex = require_real_symmetric(a.astype(np.complex128))
    assert direct.dtype == np.float64 and direct.flags.c_contiguous
    assert direct.tobytes() == via_complex.tobytes()


def test_require_real_symmetric_checks_imaginary_parts():
    a = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=np.complex128)
    a[0, 0] += 1e-12j
    assert require_real_symmetric(a).tobytes() == require_real_symmetric(a.real).tobytes()
    a[0, 0] += 1e-9j
    with pytest.raises(NotHermitian, match="imaginary"):
        require_real_symmetric(a)


def test_require_real_symmetric_real_path_keeps_checks():
    with pytest.raises(ValueError):
        require_real_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        require_real_symmetric(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(NotHermitian):
        require_real_symmetric(np.array([[0, 1], [0, 0]]))


# Subnormals, signed zeros and magnitudes up to 1.5e308, beyond half the float range
ENTRIES = st.one_of(
    st.floats(-1.5e308, 1.5e308),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e308, -1.5e308]),
)


@st.composite
def mirrored(draw):
    """A matrix equal to its transpose by value; each zero's sign is drawn on
    either side of the diagonal, so most draws are bit-symmetric and some hold
    a 0.0 mirroring -0.0."""
    n = draw(st.integers(1, 6))
    upper = np.triu_indices(n)
    a = np.zeros((n, n))
    a[upper] = draw(st.lists(ENTRIES, min_size=upper[0].size, max_size=upper[0].size))
    a.T[upper] = a[upper]
    flip = draw(arrays(np.bool_, (n, n))) & (a == 0.0)
    a[flip] = -a[flip]
    return a


@settings(deadline=None, max_examples=300)
@given(mirrored(), st.booleans())
@example(np.array([[1.0, 0.0], [-0.0, 2.0]]), False)
@example(np.array([[-0.0, -0.0], [-0.0, 1.5e308]]), True)
@example(np.array([[1.5e308, 0.0], [-0.0, 1.0]]), False)
def test_require_real_symmetric_returns_the_mean_of_mirrored_input(a, complex_):
    """Bit-symmetric input skips the averaging, so it must give the averaged bytes."""
    want = _mean_with_mirror(a, a.T, SYMMETRY_TOL, "K", "symmetric")
    got = require_real_symmetric(a.astype(np.complex128) if complex_ else a)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == np.ascontiguousarray(got.T).tobytes()
    assert not np.shares_memory(got, a)


def test_require_hermitian_accepts_and_rejects():
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    out = require_hermitian(h)
    assert max_abs(out - out.conj().T) == 0.0
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("s", [1e-12, 1e-6, 1.0, 1e8, 1e12])
def test_validator_bounds_are_relative(s):
    """Rounding-level asymmetry passes and a 1e-3 relative defect fails at any scale."""
    rng = np.random.default_rng(1)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = s * (h + h.conj().T) / 2
    r = h.real.copy()
    noise = 1 + 1e-15 * rng.normal(size=(8, 8))
    require_hermitian(h * noise)
    require_real_symmetric(r * noise)
    require_real_symmetric((r + 1e-15j * max_abs(r)) * noise)
    h[0, 3] += 1e-3 * max_abs(h)
    r[0, 3] += 1e-3 * max_abs(r)
    with pytest.raises(NotHermitian):
        require_hermitian(h)
    with pytest.raises(NotHermitian):
        require_real_symmetric(r)
    with pytest.raises(NotHermitian, match="imaginary"):
        require_real_symmetric(r.T + 1e-9j * max_abs(r))


def test_require_unitary():
    require_unitary(np.eye(3))
    with pytest.raises(NotUnitary):
        require_unitary(np.eye(3) * 1.001)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_require_unitary_rejects_overflowing_product():
    """Finite entries near 1e308 overflow U†U to NaN, which must not pass as a zero defect."""
    with pytest.raises(NotUnitary, match="nan"):
        require_unitary(np.array([[1e308 + 1e308j, 0.5], [0.5, 1.0]]))


def test_nonsquare_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        require_real_symmetric(np.zeros((2, 3)))


EMPTY = np.zeros((0, 0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: compile_unitary(EMPTY), DimensionMismatch, id="compile_unitary"),
    pytest.param(lambda: compile_hamiltonian(EMPTY, 1.0), DimensionMismatch, id="compile_hamiltonian"),
    pytest.param(lambda: compile_symmetric_generator(EMPTY), DimensionMismatch,
                 id="compile_symmetric_generator"),
    pytest.param(lambda: optimal_shift(EMPTY), DimensionMismatch, id="optimal_shift"),
    pytest.param(lambda: global_phase_fidelity(EMPTY, EMPTY), DimensionMismatch,
                 id="global_phase_fidelity"),
    pytest.param(lambda: compile_diagonal_phases([]), ValueError, id="compile_diagonal_phases"),
])
def test_zero_size_input_is_refused(call, error):
    """A 0x0 matrix or an empty phase vector is refused with a typed error,
    not numpy's reduction error, a nan or a RuntimeWarning."""
    with pytest.raises(error):
        call()


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# eigensolvers


def fix_column_signs_by_column(v):
    """The per-column form of ``_fix_column_signs``."""
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        pivot = v[k, j]
        if np.iscomplexobj(v):
            mag = abs(pivot)
            if mag > 0.0:
                v[:, j] *= pivot.conjugate() / mag
        elif pivot < 0.0:
            v[:, j] = -v[:, j]
    return v


def tied_columns(dtype):
    """Columns whose largest magnitude is attained twice or more."""
    v = np.array(
        [[-1.0, 0.5, 2.0, 0.0], [1.0, -0.5, -2.0, 0.0], [0.25, 0.5, 2.0, 0.0]], dtype=dtype
    )
    if v.dtype.kind == "c":
        v[:, 1] *= np.array([1j, -1, -1j])
        v[:, 2] *= np.array([-1j, 1j, 1])
    return v


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_fix_column_signs_matches_per_column_loop(dtype):
    rng = np.random.default_rng(43)
    cases = [tied_columns(dtype), np.zeros((0, 0), dtype=dtype)]
    for n in (1, 2, 5, 16, 33):
        v = rng.normal(size=(n, n))
        if dtype is np.complex128:
            v = v + 1j * rng.normal(size=(n, n))
        cases.append(v)
    for v in cases:
        expected = fix_column_signs_by_column(v.copy())
        got = _fix_column_signs(v.copy())
        assert got.dtype == v.dtype and got.tobytes() == expected.tobytes()


def test_fix_column_signs_ties_pick_first_index():
    real = _fix_column_signs(tied_columns(np.float64))
    np.testing.assert_array_equal(real[0], [1.0, 0.5, 2.0, 0.0])
    herm = _fix_column_signs(tied_columns(np.complex128))
    np.testing.assert_array_equal(herm[0], [1.0, 0.5, 2.0, 0.0])
    np.testing.assert_array_equal(herm[:, 3], 0.0)


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_symmetric_eig_matches_lapack(n):
    rng = np.random.default_rng(n)
    s = rng.normal(size=(n, n))
    s = (s + s.T) / 2.0
    q, lam = symmetric_eig(s)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(s), atol=1e-11)
    assert np.all(np.diff(lam) >= 0)
    np.testing.assert_allclose(q @ np.diag(lam) @ q.T, s, atol=1e-11)


def test_symmetric_eig_column_signs_deterministic():
    """Each eigenvector column has its largest-magnitude entry positive."""
    rng = np.random.default_rng(77)
    s = rng.normal(size=(6, 6))
    s = (s + s.T) / 2.0
    q, _ = symmetric_eig(s)
    for j in range(6):
        k = np.argmax(np.abs(q[:, j]))
        assert q[k, j] > 0


@pytest.mark.parametrize("n", [2, 5, 9])
def test_hermitian_eig_matches_lapack(n):
    rng = np.random.default_rng(50 + n)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2.0
    v, w = hermitian_eig(h)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-11)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-11)
    for j in range(n):
        k = np.argmax(np.abs(v[:, j]))
        assert abs(v[k, j].imag) < 1e-12 and v[k, j].real > 0


@pytest.mark.parametrize("s", [1e-300, 1e300])
def test_eigensolves_reconstruct_at_extreme_scale(s):
    """The kernel scales max|A| into [0.5, 1) first, so 1e-300 A converges to
    the same relative accuracy as A."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    a = s * (a + a.T) / 2
    q, lam = symmetric_eig(a)
    assert max_abs((q * lam) @ q.T - a) <= 1e-12 * max_abs(a)
    v, w = hermitian_eig(a.astype(np.complex128))
    assert max_abs((v * w) @ v.conj().T - a) <= 1e-12 * max_abs(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("peak", [1e307, 1e308, 1.5e308])
def test_eigensolves_reconstruct_near_float_max(peak, n):
    """(A + A.T) / 2 overflowed above ~9e307, and the NaN residual passed, so
    finite A came back with inf eigenvalues.  A is diagonally dominant here,
    so its eigenvalues stay within float range."""
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = np.diag(rng.uniform(-1, 1, size=n)) + 0.005 * (z + z.conj().T) / max_abs(z)
    h[0, 0] = 1.0
    real = h.real * (peak / max_abs(h.real))
    herm = h * (peak / max_abs(h))
    assert np.array_equal(require_real_symmetric(real), real)
    assert np.array_equal(require_hermitian(herm), herm)
    obs = spectral_decompose(herm)
    for a, (v, w) in ((real, symmetric_eig(real)), (real, hermitian_eig(real)),
                      (herm, hermitian_eig(herm)), (herm, (obs.eigvecs, obs.eigvals))):
        assert max_abs((v * (w / peak)) @ v.conj().T - a / peak) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eig", [symmetric_eig, hermitian_eig])
def test_eigensolves_refuse_eigenvalue_beyond_float_range(eig):
    with pytest.raises(DecompositionError, match="beyond the float range"):
        eig(np.full((2, 2), 1.5e308))


@pytest.mark.parametrize("eig", [symmetric_eig, hermitian_eig])
def test_eigensolves_reject_wrong_eigendecomposition(monkeypatch, eig):
    """Eigenvalues off by 1e-6 relative fail the spectral residual check, though
    at max|A| ~ 1e-3 that residual is below an absolute 1e-8."""
    rng = np.random.default_rng(803)
    a = rng.normal(size=(5, 5))
    a = 1e-3 * (a + a.T) / 2
    original = sesqc.linalg._jacobi

    def off_by_1e_6(m):
        w, v = original(m)
        return w * (1 + 1e-6), v

    monkeypatch.setattr(sesqc.linalg, "_jacobi", off_by_1e_6)
    with pytest.raises(DecompositionError, match="spectral residual"):
        eig(a)


# ---------------------------------------------------------------------------
# simultaneous diagonalization


def commuting_pair(n, rng, repeats=False):
    """Two real symmetric matrices sharing a random orthogonal eigenbasis."""
    o, _ = np.linalg.qr(rng.normal(size=(n, n)))
    p_vals = rng.normal(size=n)
    if repeats:
        p_vals[: n // 2] = p_vals[0]  # force a degenerate cluster in P
    q_vals = rng.normal(size=n)
    p = o @ np.diag(p_vals) @ o.T
    q = o @ np.diag(q_vals) @ o.T
    return (p + p.T) / 2, (q + q.T) / 2


@pytest.mark.parametrize("repeats", [False, True])
@pytest.mark.parametrize("n", [2, 4, 7])
def test_simultaneous_diag_commuting(n, repeats):
    rng = np.random.default_rng(10 * n + repeats)
    p, q = commuting_pair(n, rng, repeats=repeats)
    basis, p_vals, q_vals = simultaneous_diag(p, q)
    np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(basis @ np.diag(p_vals) @ basis.T, p, atol=1e-9)
    np.testing.assert_allclose(basis @ np.diag(q_vals) @ basis.T, q, atol=1e-9)


def test_simultaneous_diag_identity_cluster():
    """P = I leaves a single totally degenerate cluster; Q decides the basis."""
    rng = np.random.default_rng(3)
    q = rng.normal(size=(5, 5))
    q = (q + q.T) / 2
    basis, p_vals, q_vals = simultaneous_diag(np.eye(5), q)
    np.testing.assert_allclose(p_vals, np.ones(5), atol=1e-12)
    np.testing.assert_allclose(basis @ np.diag(q_vals) @ basis.T, q, atol=1e-9)


def test_simultaneous_diag_rejects_noncommuting():
    p = np.diag([1.0, -1.0])
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(CommutatorViolation):
        simultaneous_diag(p, q)


def noncommuting_pair():
    """6x6 Hermitian P, Q with max|PQ - QP| = 1.26 max|P| max|Q|."""
    rng = np.random.default_rng(0)
    p, q = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(2))
    return (p + p.conj().T) / 2, (q + q.conj().T) / 2


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-3, 1.0, 1e6, 1e12])
def test_simultaneous_diag_rejects_noncommuting_at_any_scale(s):
    """An absolute commutator bound let s = 1e-9 through with a wrong basis."""
    p, q = noncommuting_pair()
    with pytest.raises(CommutatorViolation):
        simultaneous_diag(s * p, s * q)


@pytest.mark.parametrize("repeats", [False, True])
@pytest.mark.parametrize("s", [1e-12, 1.0, 1e6, 1e12, 1e300])
def test_simultaneous_diag_accepts_commuting_at_any_scale(s, repeats):
    """An absolute residual bound refused commuting pairs from s = 1e6 up."""
    p, q = commuting_pair(6, np.random.default_rng(0), repeats=repeats)
    basis, p_vals, q_vals = simultaneous_diag(s * p, s * q)
    assert max_abs((basis * p_vals) @ basis.T - s * p) <= 1e-9 * s * max_abs(p)
    assert max_abs((basis * q_vals) @ basis.T - s * q) <= 1e-9 * s * max_abs(q)


@pytest.mark.parametrize("gap", [1e-8, 1e-7, 1e-6, 1e-5])
@pytest.mark.parametrize("n", [3, 8, 32])
def test_simultaneous_diag_near_degenerate_p_split_by_q(n, gap):
    """Two eigenvalues of P a gap of 1e-8..1e-5 max|P| apart, far apart in Q:
    Jacobi mixes their vectors by ~1e-13 / gap, so splitting by P alone left
    Q a cross term above 1e-8."""
    rng = np.random.default_rng(n)
    v = random_unitary(n, rng)
    p_vals, q_vals = rng.uniform(-1, 1, size=(2, n))
    p_vals[:2] = 0.5, 0.5 + gap
    q_vals[:2] = -0.8, 0.8
    p, q = (v * p_vals) @ v.conj().T, (v * q_vals) @ v.conj().T
    basis, p_out, q_out = simultaneous_diag(p, q)
    assert max_abs((basis * p_out) @ basis.conj().T - p) <= 1e-8 * max_abs(p)
    assert max_abs((basis * q_out) @ basis.conj().T - q) <= 1e-8 * max_abs(q)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 12), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_simultaneous_diag_skips_degenerate_candidates(n, blocked, complex_, seed):
    """Joint eigenvalue pairs (a, b) and (a - c_k d, b + d) collide in
    P + c_k Q for each of the first candidates c_k, though they differ."""
    rng = np.random.default_rng(seed)
    blocked = min(blocked, n // 2)
    p_vals, q_vals = rng.uniform(-1.0, 1.0, size=(2, n))
    for k in range(1, blocked + 1):
        c, d = k * _GOLDEN % 1.0, rng.uniform(0.1, 1.0)
        p_vals[2 * k - 1] = p_vals[2 * k - 2] - c * d
        q_vals[2 * k - 1] = q_vals[2 * k - 2] + d
    v = random_unitary(n, rng) if complex_ else np.linalg.qr(rng.normal(size=(n, n)))[0]
    p, q = ((v * vals) @ v.conj().T for vals in (p_vals, q_vals))
    p, q = (p + p.conj().T) / 2, (q + q.conj().T) / 2
    basis, p_out, q_out = simultaneous_diag(p, q)
    assert max_abs((basis * p_out) @ basis.conj().T - p) <= 1e-9 * max_abs(p)
    assert max_abs((basis * q_out) @ basis.conj().T - q) <= 1e-9 * max_abs(q)
    assert np.all(np.diff(p_out) >= 0.0)


# ---------------------------------------------------------------------------
# unitary diagonalization


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 16), st.data(), st.booleans(), st.integers(0, 2**32 - 1))
def test_unitary_diagonalize_survives_phases_on_cayley_poles(n, data, symmetric, seed):
    """Eigenphases on the poles (W = e^{i phi_j} U has eigenvalue -1) of the
    first k Cayley turns, and one within 1e-5 of turn k's, push the search
    past each of them; one of the n + 1 turns still gives the spectral form."""
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, n), label="poles")
    poles = 2 * np.pi * (np.arange(k + 1) * _GOLDEN % 1.0) + np.pi
    poles[k] += data.draw(st.floats(-1e-5, 1e-5), label="offset")
    lam = np.concatenate([poles, rng.uniform(-np.pi, np.pi, size=n)])[:n]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0] if symmetric else random_unitary(n, rng)
    u = (v * np.exp(-1j * lam)) @ v.conj().T
    if symmetric:
        u = (u + u.T) / 2
    v2, lam2 = unitary_diagonalize(u)
    assert max_abs((v2 * np.exp(-1j * lam2)) @ v2.conj().T - u) <= 1e-8
    assert np.all(lam2 > -np.pi) and np.all(lam2 <= np.pi)
    assert np.isrealobj(v2) == symmetric


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_unitary_diagonalize_reconstructs(n):
    rng = np.random.default_rng(60 + n)
    u = random_unitary(n, rng)
    v, lam = unitary_diagonalize(u)
    np.testing.assert_allclose((v * np.exp(-1j * lam)) @ v.conj().T, u, atol=1e-9)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)
    assert np.all(lam > -np.pi) and np.all(lam <= np.pi)


def test_unitary_diagonalize_phase_example():
    v, lam = unitary_diagonalize(np.diag([1.0, 1j]))
    np.testing.assert_allclose(np.sort(lam), [-np.pi / 2, 0.0], atol=1e-12)
    np.testing.assert_allclose((v * np.exp(-1j * lam)) @ v.conj().T, np.diag([1.0, 1j]), atol=1e-12)


def test_unitary_diagonalize_branch_edge():
    """Phase pi lands on +pi, never -pi."""
    _, lam = unitary_diagonalize(np.diag([-1.0, 1.0]))
    assert np.any(np.abs(lam - np.pi) < 1e-12)
    assert not np.any(np.abs(lam + np.pi) < 1e-12)


def test_unitary_diagonalize_degenerate_phases():
    """Repeated eigenphases still give an orthonormal eigenbasis."""
    rng = np.random.default_rng(8)
    o, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    lam = np.array([0.3, 0.3, 0.3, -1.2, -1.2, 2.0])
    u = (o * np.exp(-1j * lam)) @ o.T
    v, lam2 = unitary_diagonalize(u)
    np.testing.assert_allclose(np.sort(lam2), np.sort(lam), atol=1e-9)
    np.testing.assert_allclose((v * np.exp(-1j * lam2)) @ v.conj().T, u, atol=1e-9)


# ---------------------------------------------------------------------------
# exponentials, fidelity, sampling


@pytest.mark.parametrize("n", [2, 5, 8])
def test_expm_generator_matches_series(n):
    rng = np.random.default_rng(70 + n)
    g = rng.normal(size=(n, n))
    g = (g + g.T) / 2
    theta = 0.37
    np.testing.assert_allclose(
        expm_generator(theta, g), expm_series(-1j * theta * g), atol=1e-12
    )


def test_expm_generator_is_unitary():
    rng = np.random.default_rng(71)
    g = rng.normal(size=(7, 7))
    g = (g + g.T) / 2
    u = expm_generator(2.1, g)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(7), atol=1e-13)


@st.composite
def symmetric_generators(draw):
    """A real symmetric K with entries in [-1, 1], n in 1..32."""
    n = draw(st.integers(1, 32))
    a = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    return (a + a.T) / 2.0


@settings(deadline=None, max_examples=60)
@given(symmetric_generators(), st.floats(0.0, 4.0 * np.pi))
def test_expm_generator_matches_eigh(k, theta):
    lam, q = np.linalg.eigh(k)
    reference = (q * np.exp(-1j * theta * lam)) @ q.T
    assert max_abs(expm_generator(theta, k) - reference) <= 1e-12


@pytest.mark.parametrize("theta", [1e3, 1e4, 1e5, 1e6, 1e12, 1e300])
def test_expm_generator_stays_unitary_at_large_angle(theta):
    """Repeated squaring alone would let the unitarity defect grow with theta*|K|."""
    rng = np.random.default_rng(73)
    a = rng.uniform(-1.0, 1.0, size=(32, 32))
    k = (a + a.T) / 2
    u = expm_generator(theta, k)
    assert max_abs(u.conj().T @ u - np.eye(32)) <= 1e-13
    schedule = PulseSchedule(n=32, steps=(PulseStep(k=k, theta=theta),))
    assert run_schedule(SESState.basis(32, 0), schedule).n == 32


def test_expm_generator_rejects_nonfinite_angle():
    with pytest.raises(ValueError, match="theta must be finite"):
        expm_generator(np.inf, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="overflows"):
        expm_generator(1e308, np.ones((4, 4)))


def test_global_phase_fidelity_invariance():
    rng = np.random.default_rng(72)
    u = random_unitary(5, rng)
    assert global_phase_fidelity(u, np.exp(1j * 0.813) * u) == pytest.approx(1.0, abs=1e-13)
    assert global_phase_fidelity(u, random_unitary(5, rng)) < 0.999


def test_random_unitary_properties():
    rng = np.random.default_rng(73)
    u = random_unitary(9, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(9), atol=1e-12)
    # reproducible for a given seed
    a = random_unitary(4, np.random.default_rng(1))
    b = random_unitary(4, np.random.default_rng(1))
    assert np.array_equal(a, b)
