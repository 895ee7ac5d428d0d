"""Jacobi kernel (``linalg._jacobi``) tests: correctness against LAPACK and the kernel contract."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sesqc import linalg
from sesqc.errors import ConvergenceError
from sesqc.linalg import _jacobi, _rounds, max_abs


def random_symmetric(n, rng):
    s = rng.normal(size=(n, n))
    return (s + s.T) / 2.0


def random_hermitian(n, rng):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (h + h.conj().T) / 2.0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 33])
def test_real_eigenvalues_match_lapack(n):
    rng = np.random.default_rng(100 + n)
    s = random_symmetric(n, rng)
    w, _ = _jacobi(s)
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(s), atol=1e-12 * max(1, n))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
def test_herm_eigenvalues_match_lapack(n):
    rng = np.random.default_rng(200 + n)
    h = random_hermitian(n, rng)
    w, _ = _jacobi(h)
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(h), atol=1e-12 * max(1, n))


@pytest.mark.parametrize("n", [4, 9, 16])
def test_real_eigenvectors_reconstruct(n):
    rng = np.random.default_rng(300 + n)
    s = random_symmetric(n, rng)
    w, v = _jacobi(s)
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, s, atol=1e-12 * n)
    np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-13 * n)


@pytest.mark.parametrize("n", [4, 9, 16])
def test_herm_eigenvectors_reconstruct(n):
    rng = np.random.default_rng(400 + n)
    h = random_hermitian(n, rng)
    w, v = _jacobi(h)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12 * n)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-13 * n)


def test_diagonal_input_is_fixed_point():
    d = np.diag([3.0, -1.0, 0.5])
    w, v = _jacobi(d)
    np.testing.assert_allclose(np.sort(w), [-1.0, 0.5, 3.0], atol=0)
    np.testing.assert_allclose(np.abs(v), np.eye(3), atol=0)


def test_convergence_error_when_sweeps_exhausted(monkeypatch):
    rng = np.random.default_rng(5)
    s = random_symmetric(12, rng)
    h = random_hermitian(12, rng)
    for sweeps in (0, 1):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", sweeps)
        with pytest.raises(ConvergenceError):
            _jacobi(s)
        with pytest.raises(ConvergenceError):
            _jacobi(h)


MAKERS = [random_symmetric, random_hermitian]


def assert_eigenpairs(a, w, v, atol):
    n = a.shape[0]
    assert max_abs((v * w) @ v.conj().T - a) <= atol
    assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-13 * max(1, n)
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a), rtol=0, atol=atol)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 33])
@pytest.mark.parametrize("make", MAKERS)
def test_odd_n_leaves_one_index_idle_per_round(n, make):
    a = make(n, np.random.default_rng(500 + n))
    w, v = _jacobi(a)
    assert_eigenpairs(a, w, v, 1e-12 * n)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_diagonal_input_returns_identity_exactly(monkeypatch, dtype):
    """A diagonal input needs no sweep, so it must not run out of them."""
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    d = np.diag([2.0, -7.5, 0.0, 1e-3, 4.0]).astype(dtype)
    w, v = _jacobi(d)
    assert np.array_equal(w, np.diagonal(d))
    assert np.array_equal(v, np.eye(5))


@pytest.mark.parametrize("make", MAKERS)
def test_block_diagonal_input_keeps_blocks_apart(make):
    """Pairs across blocks have a[p, q] == 0 and must rotate by the identity."""
    rng = np.random.default_rng(7)
    sizes = (3, 1, 4, 2)
    a = np.zeros((10, 10), dtype=make(1, rng).dtype)
    block = np.repeat(np.arange(len(sizes)), sizes)
    lo = 0
    for size in sizes:
        a[lo : lo + size, lo : lo + size] = make(size, rng)
        lo += size
    w, v = _jacobi(a)
    assert_eigenpairs(a, w, v, 1e-12 * 10)
    assert np.all(v[block[:, None] != block[None, :]] == 0.0)


def degenerate_inputs(n=9):
    """Identity, rank 1, repeated pairs (Hermitian) and triples (real)."""
    rng = np.random.default_rng(11)
    u = rng.normal(size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    o, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return [
        np.eye(n),
        np.outer(u, u),
        (q * (np.arange(n) // 2)) @ q.conj().T,
        (o * np.repeat([1.0, -2.0, 3.0], 3)) @ o.T,
    ]


@pytest.mark.parametrize("index", range(4))
def test_degenerate_spectra(index):
    a = degenerate_inputs()[index]
    w, v = _jacobi(a)
    assert_eigenpairs(a, w, v, 1e-12 * 9 * max(1.0, max_abs(a)))


@pytest.mark.parametrize("make", MAKERS)
def test_entries_spanning_300_decades(make):
    """Entry (i, j) scales as min(d_i, d_j), d from 1e-150 to 1e150: an a[p, q]
    near 1e-150 across a 1e150 diagonal gap makes |tau| ~ 1e300, so tau**2
    would overflow."""
    rng = np.random.default_rng(13)
    n = 12
    d = np.repeat(10.0 ** np.linspace(-150.0, 150.0, n // 2), 2)
    a = make(n, rng) * np.minimum.outer(d, d)
    scale = max_abs(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = _jacobi(a)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert_eigenpairs(a, w, v, 1e-12 * n * scale)


def test_tiny_pair_beside_huge_gap_rotates_cleanly():
    """Round 3 of n = 3 rotates (0, 1) with a[0, 1] ~ 1e-150 across a 1e150 gap."""
    a = np.array([[1e150, 1e-150, 0.0], [1e-150, -1e150, 1e150], [0.0, 1e150, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = _jacobi(a)
    assert_eigenpairs(a, w, v, 1e-12 * 3 * 1e150)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_subnormal_off_diagonal_rotates_by_identity(dtype):
    """Dividing a subnormal a[p, q] by its magnitude would overflow to nan."""
    a = np.full((5, 5), 8.8e-294, dtype=dtype)
    a[0, 1] = a[1, 0] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = _jacobi(a)
    assert_eigenpairs(a, w, v, 1e-15)


@pytest.mark.parametrize("make", MAKERS)
def test_repeat_calls_are_bit_identical(make):
    a = make(17, np.random.default_rng(17))
    w1, v1 = _jacobi(a)
    w2, v2 = _jacobi(a.copy())
    assert w1.tobytes() == w2.tobytes() and v1.tobytes() == v2.tobytes()


@st.composite
def symmetric_or_hermitian(draw):
    """A real symmetric or complex Hermitian matrix, n in 1..24, entries in [-1, 1]."""
    n = draw(st.integers(1, 24))
    re = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    if draw(st.booleans()):
        re = re + 1j * draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    return (re + re.conj().T) / 2.0


@settings(deadline=None, max_examples=80)
@given(symmetric_or_hermitian())
def test_kernel_reconstructs_and_stays_orthonormal(a):
    n = a.shape[0]
    w, v = _jacobi(a)
    assert v.dtype == a.dtype
    assert max_abs((v * w) @ v.conj().T - a) <= 1e-12 * n
    assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-12 * n


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 33])
def test_rounds_pair_every_index_pair_once_per_sweep(n):
    rounds = _rounds(n)
    assert len(rounds) == n - 1 + n % 2
    seen = [tuple(pq) for pq in np.hstack(rounds).T.tolist()]
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    for pq in rounds:
        assert pq.shape == (2, n // 2) and len(set(pq.ravel().tolist())) == pq.size


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_single_pair_is_rotated_away_at_every_round(n, dtype):
    """A lone off-diagonal pair leaves every other round of the cycle quiet,
    whichever round holds it: that round must still rotate it to the stop."""
    entry = 0.3 if dtype is np.float64 else 0.3 * np.exp(0.7j)
    for p, q in np.hstack(_rounds(n)).T.tolist():
        a = np.diag(np.arange(1.0, n + 1.0)).astype(dtype)
        a[p, q], a[q, p] = entry, np.conj(entry)
        w, v = _jacobi(a)
        assert_eigenpairs(a, w, v, 1e-13 * n)
        off = v.conj().T @ a @ v
        assert max_abs(off - np.diag(np.diagonal(off))) <= 1e-13 * n * max_abs(a)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_off_diagonals_below_the_stop_are_left_alone(dtype):
    """Off-diagonals at half of 1e-13 max|A| skip every round: V is exactly I
    and w is diag(A) bit for bit."""
    rng = np.random.default_rng(19)
    n = 7
    a = np.diag(rng.normal(size=n) * 3.0).astype(dtype)
    off = 0.5e-13 * max_abs(a) * np.sign(rng.normal(size=(n, n)))
    if dtype is np.complex128:
        off = off * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n, n)))
    off = np.triu(off, 1)
    a = a + off + off.conj().T
    w, v = _jacobi(a)
    assert np.array_equal(v, np.eye(n)) and v.dtype == dtype
    assert w.tobytes() == np.diagonal(a).real.tobytes()
