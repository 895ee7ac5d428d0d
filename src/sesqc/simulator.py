"""Exact schedule execution and projective measurement.

A schedule acts through its net unitary U, the product of its exactly
exponentiated pulses, so evolution has no time-stepping error: ``U psi``
for a pure state, ``U rho U†`` for a density matrix.  Measurement in the
qubit basis is multinomial sampling from the occupation probabilities with
a seeded, named RNG.

An input density matrix is checked square, finite, Hermitian and of unit
trace, and positive semidefinite by one Cholesky factorisation of
``rho + 1e-9 I``, which exists exactly when every eigenvalue of ``rho``
exceeds ``EIGENVALUE_FLOOR`` = -1e-9.  States sesqc builds itself, ``U rho
U†`` and the outer product of a pure state, skip that factorisation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix
from .linalg import UNITARY_TOL, hermitian_eig, max_abs
from .pulses import PulseSchedule, PulseStep
from .stateprep import SESState

DENSITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

RNG_NAME = "numpy-pcg64"
SHOTS_MAX = int(np.iinfo(np.int64).max)  # numpy's multinomial counts in int64


def _hermitian_unit_trace(matrix) -> np.ndarray:
    """Complex copy of ``matrix``, checked square, finite, Hermitian and of unit trace."""
    m = np.array(matrix, dtype=np.complex128, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDensityMatrix(f"density matrix must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidDensityMatrix("density matrix has non-finite entries")
    if max_abs(m - m.conj().T) > DENSITY_TOL:
        raise InvalidDensityMatrix("density matrix is not Hermitian")
    trace_err = abs(float(np.trace(m).real) - 1.0) + abs(float(np.trace(m).imag))
    if trace_err > DENSITY_TOL:
        raise InvalidDensityMatrix(f"trace deviates from 1 by {trace_err:.3e}")
    return m


@dataclass(frozen=True)
class DensityMatrixState:
    """Mixed state: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian_unit_trace(self.matrix)
        h = (m + m.conj().T) / 2.0
        # Factors iff lambda_min > EIGENVALUE_FLOOR, up to n * eps * max|rho|;
        # only a rejection pays for an eigensolve, to report lambda_min.
        try:
            np.linalg.cholesky(h - EIGENVALUE_FLOOR * np.eye(h.shape[0]))
        except np.linalg.LinAlgError:
            lam_min = float(hermitian_eig(h)[1].min())
            raise InvalidDensityMatrix(
                f"negative eigenvalue {lam_min:.3e} below {EIGENVALUE_FLOOR}"
            ) from None
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _positive(cls, matrix) -> "DensityMatrixState":
        """Build from a matrix known to be positive semidefinite, such as
        ``U rho U†`` of a valid ``rho``: only the O(n^2) checks run."""
        m = _hermitian_unit_trace(matrix)
        m.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        return state

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, state: SESState) -> "DensityMatrixState":
        # a a† is exactly Hermitian (a_i conj(a_j) and a_j conj(a_i) round
        # alike) and positive semidefinite
        a = state.amplitudes
        return cls._positive(np.outer(a, a.conj()))


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome histogram of repeated qubit-basis measurements."""

    shots: int
    counts: np.ndarray
    seed: int | None
    rng_name: str = RNG_NAME

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64, copy=True)
        if int(c.sum()) != self.shots:
            raise ValueError("counts must sum to shots")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


def occupations(state: SESState | DensityMatrixState) -> np.ndarray:
    """Occupation probabilities of each qubit's excited level."""
    if isinstance(state, SESState):
        return state.weights
    return np.diagonal(state.matrix).real.copy()


def evolve_pure(state: SESState, step: PulseStep) -> SESState:
    return run_schedule(state, PulseSchedule(n=step.n, steps=(step,)))


def evolve_density(rho: DensityMatrixState, step: PulseStep) -> DensityMatrixState:
    return run_schedule(rho, PulseSchedule(n=step.n, steps=(step,)))


def run_schedule(state: SESState | DensityMatrixState, schedule: PulseSchedule):
    """Apply a schedule's net unitary: ``U psi`` or ``U rho U†``."""
    if not isinstance(state, (SESState, DensityMatrixState)):
        raise TypeError(f"cannot evolve {type(state).__name__}")
    if schedule.n != state.n:
        raise DimensionMismatch(f"schedule is {schedule.n}-dimensional, state is {state.n}")
    u = schedule.unitary
    if isinstance(state, SESState):
        return SESState(u @ state.amplitudes)
    # U rho U† is positive semidefinite because rho was validated and U is unitary
    defect = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > UNITARY_TOL:
        raise InvalidDensityMatrix(f"schedule product fails unitarity: max|U†U - I| = {defect:.3e}")
    return DensityMatrixState._positive(u @ state.matrix @ u.conj().T)


def measure(state: SESState | DensityMatrixState, shots: int, seed: int | None = None) -> MeasurementRecord:
    """Sample ``shots`` qubit-basis measurements; reproducible for a fixed seed."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if not 1 <= shots <= SHOTS_MAX:
        raise ValueError(f"shots must be in 1..{SHOTS_MAX}, got {shots}")
    p = np.clip(occupations(state), 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(shots), p)
    return MeasurementRecord(shots=int(shots), counts=counts, seed=seed)
