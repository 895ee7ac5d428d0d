"""Jacobi kernel tests: correctness against LAPACK."""

import numpy as np
import pytest

from sesqc import _kernels
from sesqc.errors import ConvergenceError


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
    w, _ = _kernels.jacobi_real(s)
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(s), atol=1e-12 * max(1, n))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
def test_herm_eigenvalues_match_lapack(n):
    rng = np.random.default_rng(200 + n)
    h = random_hermitian(n, rng)
    w, _ = _kernels.jacobi_herm(h)
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(h), atol=1e-12 * max(1, n))


@pytest.mark.parametrize("n", [4, 9, 16])
def test_real_eigenvectors_reconstruct(n):
    rng = np.random.default_rng(300 + n)
    s = random_symmetric(n, rng)
    w, v = _kernels.jacobi_real(s)
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, s, atol=1e-12 * n)
    np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-13 * n)


@pytest.mark.parametrize("n", [4, 9, 16])
def test_herm_eigenvectors_reconstruct(n):
    rng = np.random.default_rng(400 + n)
    h = random_hermitian(n, rng)
    w, v = _kernels.jacobi_herm(h)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12 * n)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-13 * n)


def test_diagonal_input_is_fixed_point():
    d = np.diag([3.0, -1.0, 0.5])
    w, v = _kernels.jacobi_real(d)
    np.testing.assert_allclose(np.sort(w), [-1.0, 0.5, 3.0], atol=0)
    np.testing.assert_allclose(np.abs(v), np.eye(3), atol=0)


def test_convergence_error_when_sweeps_exhausted(monkeypatch):
    rng = np.random.default_rng(5)
    s = random_symmetric(12, rng)
    monkeypatch.setattr(_kernels, "MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        _kernels.jacobi_real(s)
    with pytest.raises(ConvergenceError):
        _kernels.jacobi_herm(random_hermitian(12, rng))
