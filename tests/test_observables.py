"""Observable decomposition and expectation-value protocol tests."""

import numpy as np
import pytest

import sesqc._kernels
from sesqc.errors import DecompositionError, NotHermitian
from sesqc.observables import (
    Observable,
    expectation_exact,
    expectation_protocol,
    spectral_decompose,
    std_error_bound,
)
from sesqc.simulator import DensityMatrixState
from sesqc.stateprep import SESState


def random_observable_matrix(n, rng):
    o = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (o + o.conj().T) / 2


def random_density(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return DensityMatrixState(m / np.trace(m).real)


# ---------------------------------------------------------------------------
# spectral decomposition


@pytest.mark.parametrize("n", [2, 4, 7])
def test_spectral_decompose(n):
    rng = np.random.default_rng(900 + n)
    m = random_observable_matrix(n, rng)
    obs = spectral_decompose(m)
    np.testing.assert_allclose(obs.eigvals, np.linalg.eigvalsh(m), atol=1e-10)
    rebuilt = (obs.eigvecs * obs.eigvals) @ obs.eigvecs.conj().T
    np.testing.assert_allclose(rebuilt, m, atol=1e-9)
    assert obs.abs_eigval_sum == pytest.approx(np.sum(np.abs(obs.eigvals)))


def test_spectral_decompose_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_decompose_rejects_wrong_eigendecomposition(monkeypatch):
    """Eigenvalues off by 1e-6 relative at max|O| ~ 1e-3 fail the residual check."""
    o = 1e-3 * random_observable_matrix(5, np.random.default_rng(803))
    jacobi_herm = sesqc._kernels.jacobi_herm

    def off_by_1e_6(m):
        w, v = jacobi_herm(m)
        return w * (1 + 1e-6), v

    monkeypatch.setattr(sesqc._kernels, "jacobi_herm", off_by_1e_6)
    with pytest.raises(DecompositionError, match="spectral residual"):
        spectral_decompose(o)


def test_std_error_bound_formula():
    obs = spectral_decompose(np.diag([2.0, -1.0, 0.5]))
    assert std_error_bound(obs, 400) == pytest.approx(3.5 / (2 * 20.0))


# ---------------------------------------------------------------------------
# exact expectations


@pytest.mark.parametrize("n", [2, 5, 8])
def test_expectation_exact_is_trace(n):
    rng = np.random.default_rng(910 + n)
    rho = random_density(n, rng)
    o = random_observable_matrix(n, rng)
    expected = float(np.trace(rho.matrix @ o).real)
    assert expectation_exact(rho, o) == pytest.approx(expected, abs=1e-12)


def test_expectation_exact_accepts_pure_state():
    s = SESState.normalized([1.0, 1.0])
    o = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert expectation_exact(s, o) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# measurement protocol


@pytest.mark.parametrize("n", [2, 4, 6])
def test_protocol_exact_mode_matches_trace(n):
    rng = np.random.default_rng(920 + n)
    rho = random_density(n, rng)
    o = random_observable_matrix(n, rng)
    estimate = expectation_protocol(rho, o)
    assert estimate.shots is None
    assert estimate.std_error_bound == 0.0
    assert estimate.value == pytest.approx(expectation_exact(rho, o), abs=1e-8)
    np.testing.assert_allclose(np.sum(estimate.probabilities), 1.0, atol=1e-9)


def test_protocol_accepts_pure_state():
    rng = np.random.default_rng(921)
    s = SESState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
    o = random_observable_matrix(4, rng)
    estimate = expectation_protocol(s, o)
    assert estimate.value == pytest.approx(expectation_exact(s, o), abs=1e-8)


def test_protocol_sampled_mode_is_seeded():
    rng = np.random.default_rng(922)
    rho = random_density(3, rng)
    o = random_observable_matrix(3, rng)
    a = expectation_protocol(rho, o, shots=5000, seed=5)
    b = expectation_protocol(rho, o, shots=5000, seed=5)
    c = expectation_protocol(rho, o, shots=5000, seed=6)
    assert a.value == b.value
    assert a.value != c.value
    assert a.shots == 5000
    assert a.std_error_bound > 0.0


@pytest.mark.parametrize("shots", [2.5, True])
def test_protocol_rejects_non_integer_shots(shots):
    rng = np.random.default_rng(924)
    with pytest.raises(ValueError, match="integer"):
        expectation_protocol(random_density(3, rng), random_observable_matrix(3, rng), shots=shots)


def test_protocol_reports_numpy_integer_shots_as_int():
    rng = np.random.default_rng(925)
    rho = random_density(3, rng)
    o = random_observable_matrix(3, rng)
    a = expectation_protocol(rho, o, shots=np.int32(500), seed=3)
    b = expectation_protocol(rho, o, shots=500, seed=3)
    assert type(a.shots) is int and a.shots == 500
    assert a.value == b.value and a.std_error_bound == b.std_error_bound


def test_protocol_sampled_mode_within_error_bound():
    """Sampled estimates stay within 5x the stated bound."""
    rng = np.random.default_rng(923)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        rho = random_density(n, rng)
        o = random_observable_matrix(n, rng)
        exact = expectation_exact(rho, o)
        estimate = expectation_protocol(rho, o, shots=100_000, seed=trial)
        assert abs(estimate.value - exact) <= 5 * estimate.std_error_bound


def test_protocol_density_counts_eigensolves(eig_calls, monkeypatch):
    """Spectrum of O and two for the ABA generators of V†.  The input
    density check is a Cholesky factorisation, the pulses are
    exponentiated without an eigensolve, and the output ``U rho U†`` is
    positive by construction, so it is built without a density check."""
    built = []
    post_init = DensityMatrixState.__post_init__
    monkeypatch.setattr(DensityMatrixState, "__post_init__", lambda self: built.append(post_init(self)))
    rng = np.random.default_rng(925)
    rho = random_density(5, rng).matrix
    o = random_observable_matrix(5, rng)
    exact = expectation_exact(rho, o)
    eig_calls.clear()
    built.clear()
    assert expectation_protocol(np.array(rho), o).value == pytest.approx(exact, abs=1e-10)
    assert sum(eig_calls.values()) == 3
    assert len(built) == 1


def test_observable_from_parts_roundtrip():
    rng = np.random.default_rng(924)
    m = random_observable_matrix(5, rng)
    obs = spectral_decompose(m)
    assert isinstance(obs, Observable)
    assert obs.n == 5
    # an Observable can be passed anywhere a matrix is accepted
    rho = random_density(5, rng)
    assert expectation_exact(rho, obs) == pytest.approx(expectation_exact(rho, m))
