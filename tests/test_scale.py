"""Scale invariance: a matrix times s = 10^k is handled as well as the matrix.

Every check here is relative to max|A|, and goes through public functions
only, so it holds for any eigensolver behind them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sesqc.decompose import compile_hamiltonian, schedule_unitary
from sesqc.errors import CommutatorViolation, NotHermitian
from sesqc.linalg import (
    global_phase_fidelity,
    hermitian_eig,
    max_abs,
    require_real_symmetric,
    simultaneous_diag,
    symmetric_eig,
)
from sesqc.observables import spectral_decompose

SCALES = st.integers(-14, 12).map(lambda k: 10.0 ** k)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(2, 8)


def gaussian(n, seed, complex_):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if complex_:
        a = a + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


@settings(deadline=None, max_examples=40)
@given(SIZES, SEEDS, SCALES)
def test_eigensolves_reconstruct_at_any_scale(n, seed, s):
    a = s * gaussian(n, seed, complex_=False)
    q, lam = symmetric_eig(a)
    assert max_abs((q * lam) @ q.T - a) <= 1e-12 * max_abs(a)
    h = s * gaussian(n, seed, complex_=True)
    v, w = hermitian_eig(h)
    assert max_abs((v * w) @ v.conj().T - h) <= 1e-12 * max_abs(h)


@pytest.mark.parametrize("n", [2, 5, 8, 16, 32])
@pytest.mark.parametrize("s", [1e-315, 1e-318, 1e-320, 1e-322])
def test_eigensolves_accept_all_subnormal_input(n, s):
    """Below max|A| ~ 1e-314 every entry is subnormal and 1e-9 max|A|
    underflows to 0; the residual is then a few subnormal quanta."""
    a = s * gaussian(n, n, complex_=False)
    q, lam = symmetric_eig(a)
    assert max_abs((q * lam) @ q.T - a) <= n * np.finfo(float).smallest_subnormal
    h = s * gaussian(n, n, complex_=True)
    v, w = hermitian_eig(h)
    assert max_abs((v * w) @ v.conj().T - h) <= n * np.finfo(float).smallest_subnormal


@settings(deadline=None, max_examples=40)
@given(SIZES, SEEDS, SCALES)
def test_spectral_decompose_at_any_scale(n, seed, s):
    o = s * gaussian(n, seed, complex_=True)
    obs = spectral_decompose(o)
    np.testing.assert_allclose(obs.eigvals, np.linalg.eigvalsh(o), rtol=0, atol=1e-12 * max_abs(o))


@settings(deadline=None, max_examples=40)
@given(SIZES, SEEDS, SCALES, st.booleans())
def test_compile_hamiltonian_at_any_scale(n, seed, s, complex_):
    """s*H for time 1.7/s is exp(-1.7j*H) whatever s is."""
    h = gaussian(n, seed, complex_)
    lam, q = np.linalg.eigh(h)
    target = (q * np.exp(-1.7j * lam)) @ q.conj().T
    schedule = compile_hamiltonian(s * h, 1.7 / s)
    assert len(schedule.steps) == (3 if complex_ else 1)
    assert global_phase_fidelity(schedule_unitary(schedule), target) >= 1 - 1e-8


@settings(deadline=None, max_examples=40)
@given(SIZES, SEEDS, SCALES)
@example(6, 0, 1e160)
@example(6, 0, 1e300)
def test_noncommuting_pair_refused_at_any_scale(n, seed, s):
    """Above s ~ 1e154 the bound 1e-8 s^2 and PQ - QP overflowed, and only the
    final residual refused the pair, as commuting "only approximately"."""
    p = s * gaussian(n, seed, complex_=True)
    q = s * gaussian(n, seed + 1, complex_=True)
    with pytest.raises(CommutatorViolation, match="no shared eigenbasis"):
        simultaneous_diag(p, q)


@settings(deadline=None, max_examples=40)
@given(SIZES, SEEDS, SCALES, st.booleans())
def test_commuting_pair_diagonalised_at_any_scale(n, seed, s, repeats):
    """P and Q share a random orthogonal eigenbasis; P may repeat an eigenvalue."""
    rng = np.random.default_rng(seed)
    o, _ = np.linalg.qr(rng.normal(size=(n, n)))
    p_vals, q_vals = rng.normal(size=(2, n))
    if repeats:
        p_vals[1:] = p_vals[0]
    p, q = s * (o * p_vals) @ o.T, s * (o * q_vals) @ o.T
    p, q = (p + p.T) / 2, (q + q.T) / 2
    basis, p_out, q_out = simultaneous_diag(p, q)
    assert max_abs((basis * p_out) @ basis.T - p) <= 1e-9 * max_abs(p)
    assert max_abs((basis * q_out) @ basis.T - q) <= 1e-9 * max_abs(q)


@settings(deadline=None, max_examples=40)
@given(SIZES, SEEDS, SCALES, st.booleans())
def test_rounding_asymmetry_accepted_at_any_scale(n, seed, s, complex_):
    """Each entry of s*O times (1 + 1e-15 noise) is O in physical units."""
    rng = np.random.default_rng(seed)
    o = s * gaussian(n, seed, complex_) * (1 + 1e-15 * rng.normal(size=(n, n)))
    obs = spectral_decompose(o)
    assert max_abs((obs.eigvecs * obs.eigvals) @ obs.eigvecs.conj().T - o) <= 1e-9 * max_abs(o)
    schedule = compile_hamiltonian(o, 1.0 / s)
    assert len(schedule.steps) == (3 if complex_ else 1)
    if not complex_:
        require_real_symmetric(o)


@settings(deadline=None, max_examples=40)
@given(SIZES, SEEDS, SCALES, st.booleans())
def test_asymmetry_refused_at_any_scale(n, seed, s, complex_):
    """One entry off by 1e-3 max|O| is refused, never symmetrised away."""
    o = s * gaussian(n, seed, complex_)
    o[0, 1] += 1e-3 * max_abs(o)
    with pytest.raises(NotHermitian):
        spectral_decompose(o)
    with pytest.raises(NotHermitian):
        compile_hamiltonian(o, 1.0 / s)
    if not complex_:
        with pytest.raises(NotHermitian):
            require_real_symmetric(o)
