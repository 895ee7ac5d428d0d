"""Deterministic preparation of arbitrary subspace states from |1).

The forward problem is solved backwards: starting from the target, a
sequence of at most n-1 two-component moves (a diagonal phase pulse and a
partial-swap pulse per move) drains weight into exactly 1/n per component,
and one final diagonal pulse removes the residual phases, reaching the
uniform superposition.  Running the daggered sequence after a single
"star" pulse (which maps |1) to the uniform superposition) prepares the
target; its diagonal pulses are emitted in minimal form, at full coupling,
up to a global phase.  Its net unitary can be recompiled into three pulses
through the ABA generators of :mod:`sesqc.decompose`.

Basis states are indexed 0..n-1 in code; |1) is index 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import _aba_generators, _aba_steps
from .errors import (
    AlreadyUniform,
    DecompositionError,
    IterationOverflow,
    NonUniformWeights,
    SesqcError,
)
from .linalg import max_abs, unit_scale
from .pulses import TWO_PI, DeviceParams, PulseSchedule, PulseStep, _dagger, compile_diagonal_phases

NORM_TOL = 1e-10
UNIFORM_WEIGHT_TOL = 1e-10
SWAP_RESIDUAL_TOL = 1e-12


def _vector(amplitudes) -> np.ndarray:
    """Complex copy of ``amplitudes``, flattened from a 1-D array, a row or a column."""
    a = np.array(amplitudes, dtype=np.complex128)
    if a.ndim > 2 or (a.ndim == 2 and 1 not in a.shape):
        raise ValueError(f"amplitudes must be a row or column vector, got shape {a.shape}")
    return a.reshape(-1)


@dataclass(frozen=True)
class SESState:
    """Pure state in the single-excitation subspace, one amplitude per qubit."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _vector(self.amplitudes)
        if a.size < 1:
            raise ValueError("state needs at least one amplitude")
        if not np.isfinite(a).all():
            raise ValueError("state contains non-finite amplitudes")
        norm_err = abs(float(np.sum(np.abs(a) ** 2)) - 1.0)
        if norm_err > NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {norm_err:.3e}")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def weights(self) -> np.ndarray:
        """Occupation probabilities |a_i|^2."""
        return np.abs(self.amplitudes) ** 2

    @property
    def phases(self) -> np.ndarray:
        """Amplitude phases wrapped to [0, 2*pi)."""
        return np.mod(np.angle(self.amplitudes), TWO_PI)

    @classmethod
    def basis(cls, n: int, index: int = 0) -> "SESState":
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValueError(f"basis index must be an integer, got {index!r}")
        if not 0 <= index < n:
            raise ValueError(f"basis index {index} outside 0..{n - 1}")
        a = np.zeros(n, dtype=np.complex128)
        a[index] = 1.0
        return cls(a)

    @classmethod
    def normalized(cls, amplitudes) -> "SESState":
        a = _vector(amplitudes)
        if not np.isfinite(a).all():
            raise ValueError("state contains non-finite amplitudes")
        a = a * unit_scale(max_abs(a))  # exact; the norm then neither overflows nor underflows
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            raise ValueError("cannot normalise the zero vector")
        return cls(a / norm)


@dataclass(frozen=True)
class PrepPlan:
    """Full record of one preparation: star pulse, reduction moves, phases."""

    star_step: PulseStep
    reduction_steps: tuple[tuple[PulseStep, PulseStep], ...]
    w_diag: PulseStep
    m: int
    compiled_u: np.ndarray

    def __post_init__(self):
        n = self.compiled_u.shape[0]
        if not (0 <= self.m <= n - 1):
            raise IterationOverflow(f"m={self.m} outside [0, {n - 1}]")


def uniform_state(n: int) -> SESState:
    """The uniform superposition with real positive amplitudes."""
    return SESState(np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128))


def _diagonal_dagger(step: PulseStep) -> PulseStep:
    """Inverse of a diagonal pulse at full coupling: at most pi * (1 - 1/n),
    or 2*pi/3 for a ``u_diag`` with two nonzero entries, not its fixed 2*pi or 3*pi."""
    return compile_diagonal_phases(-step.theta * np.diagonal(step.k), step.label + "_dagger")


def star_uniform_step(n: int) -> PulseStep:
    """Pulse taking |1) to the uniform superposition (up to a global phase).

    The coupling matrix is the star graph on qubit 1 with K_11 = 1 and
    K_1j = 1/2, held for theta = pi / sqrt(n).
    """
    if n < 2:
        raise ValueError("star step needs n >= 2")
    k = np.zeros((n, n))
    k[0, 0] = 1.0
    k[0, 1:] = 0.5
    k[1:, 0] = 0.5
    return PulseStep(k=k, theta=np.pi / np.sqrt(n), label="star")


def uniform_weight_phases_step(target: SESState) -> PulseStep:
    """Diagonal pulse taking the uniform superposition to a uniform-weight target."""
    n = target.n
    dev = np.max(np.abs(target.weights - 1.0 / n))
    if dev > UNIFORM_WEIGHT_TOL:
        raise NonUniformWeights(f"weights deviate from 1/n by {dev:.3e}")
    k = np.diag(-target.phases / TWO_PI)
    return PulseStep(k=k, theta=TWO_PI, label="phase_diag")


def reduction_step(state: SESState) -> tuple[PulseStep, PulseStep, SESState]:
    """One inverse-protocol move: pin the lightest component to weight 1/n.

    Picks i_min/i_max as the lowest-index lightest/heaviest components, makes
    a_imin real and a_imax imaginary with a two-entry diagonal pulse
    (theta = 3*pi), then transfers weight with a partial swap whose angle
    solves  |a_imin| cos(phi) + |a_imax| sin(phi) = 1/sqrt(n)  on (0, pi/2).

    Returns ``(u_diag, u_swap, next_state)``; in ``next_state`` the pinned
    weight is exactly 1/n by construction.
    """
    n = state.n
    w = state.weights
    if np.max(np.abs(w - 1.0 / n)) <= UNIFORM_WEIGHT_TOL:
        raise AlreadyUniform("weights already uniform; nothing to reduce")
    i_min = int(np.argmin(w))
    i_max = int(np.argmax(w))
    if not (w[i_min] <= 1.0 / n <= w[i_max]) or not (w[i_min] < w[i_max]):
        raise SesqcError("weight bookkeeping violated min <= 1/n <= max")

    phases = state.phases
    k_diag = np.zeros((n, n))
    k_diag[i_min, i_min] = phases[i_min] / (3.0 * np.pi)
    k_diag[i_max, i_max] = phases[i_max] / (3.0 * np.pi) - 1.0 / 6.0
    u_diag = PulseStep(k=k_diag, theta=3.0 * np.pi, label="u_diag")

    lo = float(np.sqrt(w[i_min]))
    hi = float(np.sqrt(w[i_max]))
    root = 1.0 / np.sqrt(n)
    phi = np.arctan2(hi, lo) - np.arccos(min(1.0, root / np.hypot(lo, hi)))
    if not (0.0 < phi < np.pi / 2.0):
        raise SesqcError(f"swap angle {phi} outside (0, pi/2)")
    residual = abs(lo * np.cos(phi) + hi * np.sin(phi) - root)
    if residual > SWAP_RESIDUAL_TOL:
        raise SesqcError(f"swap angle residual {residual:.3e} too large")
    k_swap = np.zeros((n, n))
    k_swap[i_min, i_max] = 1.0
    k_swap[i_max, i_min] = 1.0
    u_swap = PulseStep(k=k_swap, theta=phi, label="u_swap")

    amps = np.array(state.amplitudes, copy=True)
    amps[i_min] = root
    amps[i_max] = 1j * np.sqrt(w[i_min] + w[i_max] - 1.0 / n)
    return u_diag, u_swap, SESState(amps)


def reduce_to_uniform(target: SESState) -> tuple[list[tuple[PulseStep, PulseStep]], PulseStep]:
    """Drive ``target`` to the uniform superposition.

    Returns the ordered reduction pairs (at most n-1 of them) and the final
    diagonal pulse W_diag that clears the residual phases.
    """
    n = target.n
    pairs: list[tuple[PulseStep, PulseStep]] = []
    state = target
    while np.max(np.abs(state.weights - 1.0 / n)) > UNIFORM_WEIGHT_TOL:
        if len(pairs) >= n - 1:
            raise IterationOverflow(
                f"reduction did not reach uniform weights in {n - 1} moves"
            )
        u_diag, u_swap, state = reduction_step(state)
        pairs.append((u_diag, u_swap))
    w_diag = PulseStep(k=np.diag(state.phases / TWO_PI), theta=TWO_PI, label="w_diag")
    return pairs, w_diag


def _linear_steps(star: PulseStep, pairs, w_diag: PulseStep) -> list[PulseStep]:
    """Forward pulse sequence in execution order (first pulse first)."""
    steps = [star, _diagonal_dagger(w_diag)]
    for u_diag, u_swap in reversed(pairs):
        steps.append(_dagger(u_swap))
        steps.append(_diagonal_dagger(u_diag))
    return steps


def _as_state(target) -> SESState:
    return target if isinstance(target, SESState) else SESState(np.asarray(target, dtype=np.complex128))


def _build_plan(target: SESState, device: DeviceParams) -> tuple[PrepPlan, PulseSchedule]:
    """The linear protocol for ``target``, unchecked, and its plan."""
    star = star_uniform_step(target.n)
    pairs, w_diag = reduce_to_uniform(target)
    schedule = PulseSchedule(n=target.n, steps=tuple(_linear_steps(star, pairs, w_diag)), device=device)
    plan = PrepPlan(star_step=star, reduction_steps=tuple(pairs), w_diag=w_diag,
                    m=len(pairs), compiled_u=schedule.unitary)
    return plan, schedule


def compiled_prep_unitary(target) -> np.ndarray:
    """Net unitary of the linear protocol; its first column is the target."""
    return prepare_state_schedule(target, mode="linear")[1].compiled_u


def prepare_state_schedule(target, device: DeviceParams | None = None, mode: str = "linear") -> tuple[PulseSchedule, PrepPlan]:
    """Compile a schedule preparing ``target`` from |1).

    ``mode="linear"`` emits the explicit 2m+2 pulse protocol; to keep the
    number of pulses independent of n, ``mode="three_step"`` collapses the
    protocol's net unitary into exactly three pulses via the ABA form.
    Either way the emitted schedule's first column must overlap the target
    to 1 - 1e-9, else :class:`DecompositionError` is raised.
    """
    state = _as_state(target)
    if state.n < 2:
        raise ValueError("state preparation needs n >= 2")
    device = device or DeviceParams()
    plan, schedule = _build_plan(state, device)
    if mode == "three_step":
        steps = _aba_steps(*_aba_generators(plan.compiled_u))
        schedule = PulseSchedule(n=state.n, steps=tuple(steps), device=device)
    elif mode != "linear":
        raise ValueError(f"unknown mode {mode!r}; expected 'linear' or 'three_step'")
    overlap = abs(np.vdot(state.amplitudes, schedule.unitary[:, 0]))
    if overlap < 1.0 - 1e-9:
        raise DecompositionError(
            f"compiled first column overlaps target only {overlap!r}"
        )
    return schedule, plan
