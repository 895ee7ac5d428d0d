"""Expectation values of arbitrary Hermitian observables.

On hardware only qubit occupations are directly measurable, so a general
observable O = V D V† is read out by first applying the compiled pulse
sequence for V† and then sampling occupations: <O> = sum_i D_ii p_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import compile_unitary
from .errors import DecompositionError, DimensionMismatch
from .linalg import SPECTRAL_RESIDUAL_TOL, hermitian_eig, max_abs, require_hermitian
from .pulses import DeviceParams
from .simulator import DensityMatrixState, measure, occupations, run_schedule
from .stateprep import SESState


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with its spectral factors pinned down."""

    matrix: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def abs_eigval_sum(self) -> float:
        return float(np.sum(np.abs(self.eigvals)))


@dataclass(frozen=True)
class ExpectationEstimate:
    """Estimated <O> with its worst-case binomial error bound."""

    value: float
    std_error_bound: float
    shots: int | None
    probabilities: np.ndarray


def spectral_decompose(o) -> Observable:
    """Factor a Hermitian observable as ``V @ diag(d) @ V†``.

    Eigenvalues come back ascending with deterministically phased
    eigenvector columns, so the diagonal weights are stable run to run.
    Every check on O and its factors is relative to max|O| (see
    :mod:`sesqc.linalg`), so an observable in any units passes.
    """
    om = require_hermitian(o, name="O")
    v, d = hermitian_eig(om)
    return Observable(matrix=om, eigvecs=v, eigvals=d)


def _as_density(state) -> DensityMatrixState:
    if isinstance(state, DensityMatrixState):
        return state
    if isinstance(state, SESState):
        return DensityMatrixState.from_pure(state)
    return DensityMatrixState(np.asarray(state, dtype=np.complex128))


def _as_observable(o) -> Observable:
    return o if isinstance(o, Observable) else spectral_decompose(o)


def expectation_exact(rho, o) -> float:
    """Reference value ``tr(rho @ O)`` computed directly."""
    dm = _as_density(rho)
    obs = _as_observable(o)
    if obs.n != dm.n:
        raise DimensionMismatch(f"observable is {obs.n}-dimensional, state is {dm.n}")
    value = complex(np.trace(dm.matrix @ obs.matrix))
    if abs(value.imag) > SPECTRAL_RESIDUAL_TOL * max_abs(obs.matrix):
        raise DecompositionError(f"tr(rho O) has imaginary residue {value.imag:.3e}")
    return float(value.real)


def std_error_bound(obs: Observable, shots: int) -> float:
    """Worst-case standard error of the sampled estimate.

    Each occupation is a binomial frequency with std <= (2*sqrt(shots))^-1,
    so the estimate errs by at most sum_i |D_ii| times that.
    """
    return obs.abs_eigval_sum / (2.0 * np.sqrt(shots))


def expectation_protocol(
    rho,
    o,
    device: DeviceParams | None = None,
    shots: int | None = None,
    seed: int | None = None,
) -> ExpectationEstimate:
    """Estimate <O> the way hardware would: rotate, then count occupations.

    Compiles the eigenbasis change V† into pulses, evolves the state
    through it, and reads occupation probabilities — exactly when
    ``shots=None``, otherwise from a seeded multinomial sample of the given
    size.
    """
    obs = _as_observable(o)
    state = rho if isinstance(rho, (SESState, DensityMatrixState)) else _as_density(rho)
    schedule = compile_unitary(obs.eigvecs.conj().T, device)
    rotated = run_schedule(state, schedule)
    if shots is None:
        probs = occupations(rotated)
        bound = 0.0
    else:
        record = measure(rotated, shots, seed)
        shots = record.shots
        probs = record.frequencies
        bound = std_error_bound(obs, shots)
    value = float(np.dot(obs.eigvals, probs))
    return ExpectationEstimate(
        value=value, std_error_bound=bound, shots=shots, probabilities=probs
    )
