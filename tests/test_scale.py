"""Scale invariance: a matrix times s = 10^k is handled as well as the matrix.

Every check here is relative to max|A|, and goes through public functions
only, so it holds for any eigensolver behind them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sesqc.decompose import compile_hamiltonian, schedule_unitary
from sesqc.linalg import global_phase_fidelity, hermitian_eig, max_abs, symmetric_eig
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
