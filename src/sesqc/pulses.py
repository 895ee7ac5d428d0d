"""Standard-form pulses: Hamiltonians of the shape g_max * K.

A hardware step is a real symmetric coupling matrix ``K`` with every entry
in [-1, 1], held for a dimensionless rotation angle ``theta`` (the product
of the coupling ceiling g_max and the hold time, in radians).  Any real
symmetric generator ``A`` maps onto this form by subtracting the optimal
multiple of the identity (a global phase) and rescaling by the largest
remaining entry.  The inverse of a pulse holds -K for the same angle.

A schedule's net unitary applies diagonal and single-pair pulses, which
make up all but one pulse of the linear preparation protocol, in closed
form; only the other pulses are exponentiated densely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .linalg import expm_generator, max_abs, require_real_symmetric

ZERO_ANGLE_TOL = 1e-12
K_RANGE_SLACK = 1e-9
TWO_PI = 2.0 * np.pi

DEFAULT_GMAX_MHZ = 50.0


@dataclass(frozen=True)
class DeviceParams:
    """Hardware coupling ceiling, stored as g_max / 2*pi in MHz."""

    g_max_mhz_over_2pi: float = DEFAULT_GMAX_MHZ

    def __post_init__(self):
        if not (np.isfinite(self.g_max_mhz_over_2pi) and self.g_max_mhz_over_2pi > 0):
            raise ValueError("g_max_mhz_over_2pi must be positive and finite")


@dataclass(frozen=True)
class PulseStep:
    """One programmed Hamiltonian ``g_max * K`` held for angle ``theta``."""

    k: np.ndarray
    theta: float
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.label, str):  # else save_schedule fails mid-file
            raise TypeError(f"label must be a string, got {type(self.label).__name__}")
        km = require_real_symmetric(self.k, name="K")
        overshoot = max_abs(km) - 1.0
        if overshoot > K_RANGE_SLACK:
            raise ValueError(f"K entries exceed [-1, 1] by {overshoot:.3e}")
        if overshoot > 0.0:
            km = np.clip(km, -1.0, 1.0)
        km.flags.writeable = False
        object.__setattr__(self, "k", km)
        theta = float(self.theta)
        if not math.isfinite(theta) or theta < 0.0:
            raise ValueError(f"theta must be finite and >= 0, got {theta}")
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulse sequence; ``steps[0]`` is applied to the state first."""

    n: int
    steps: tuple[PulseStep, ...]
    device: DeviceParams = field(default_factory=DeviceParams)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if step.n != self.n:
                raise DimensionMismatch(
                    f"step {step.label!r} is {step.n}-dimensional, schedule is {self.n}"
                )

    @cached_property
    def unitary(self) -> np.ndarray:
        """Net operator, the product of step unitaries with ``steps[0]`` first.

        Formed once per schedule and returned read-only.  Each step is
        applied by the nonzero pattern of its K: a diagonal K scales rows
        by ``exp(-1j*theta*k_ii)``, a K holding only one symmetric pair
        (i, j) rotates rows i and j by ``[[c, -1j*s], [-1j*s, c]]`` with
        ``c, s = cos, sin(theta*k_ij)``, and any other K is exponentiated
        densely by :func:`expm_generator`.
        """
        u = np.eye(self.n, dtype=np.complex128)
        for step in self.steps:
            flat = step.k.reshape(-1)
            nonzero = flat.nonzero()[0]
            entries = nonzero.tolist()
            if all(f % (self.n + 1) == 0 for f in entries):  # only diagonal entries
                u[nonzero // (self.n + 1)] *= np.exp(-1j * (step.theta * flat[nonzero]))[:, None]
            elif len(entries) == 2:  # K is exactly symmetric, so this is the pair (i, j), (j, i)
                i, j = divmod(entries[0], self.n)
                angle = step.theta * step.k[i, j]
                c, i_s = math.cos(angle), 1j * math.sin(angle)
                row_i = u[i].copy()
                u[i] = c * row_i - i_s * u[j]
                u[j] = c * u[j] - i_s * row_i
            else:
                u = expm_generator(step.theta, step.k) @ u
        u.flags.writeable = False
        return u

    @property
    def total_angle(self) -> float:
        """Sum of step angles in radians."""
        return float(sum(step.theta for step in self.steps))

    @property
    def duration_ns(self) -> float:
        """Total wall-clock time at this device's coupling ceiling."""
        return schedule_duration_ns(self)


def optimal_shift(a) -> float:
    """Identity shift c minimising the rescaled rotation angle of ``a``.

    Only the diagonal matters: the best c is the midpoint of the extreme
    diagonal entries, which minimises ``max_ii' |A - c*I|``.
    """
    am = require_real_symmetric(a, name="A")
    d = np.diagonal(am)
    return float((d.min() + d.max()) / 2.0)


def rotation_angle(a, c: float) -> float:
    """Rotation angle ``max_ii' |A - c*I|`` for a candidate shift ``c``."""
    am = require_real_symmetric(a, name="A")
    return max_abs(am - float(c) * np.eye(am.shape[0]))


def _saturated(g: np.ndarray, label: str) -> PulseStep:
    """The pulse for ``exp(-1j*g)``: ``theta = max|g|`` and ``K = g / theta``,
    whose largest entry is then exactly +-1 (time optimality), or a
    zero-duration pulse when theta is within ``ZERO_ANGLE_TOL``."""
    theta = max_abs(g)
    if theta <= ZERO_ANGLE_TOL:
        return PulseStep(k=np.zeros(g.shape), theta=0.0, label=label)
    return PulseStep(k=g / theta, theta=theta, label=label)


def compile_symmetric_generator(a, label: str = "") -> PulseStep:
    """Compile ``exp(-1j*A)`` into a single standard-form pulse.

    A is validated once and shifted by the midpoint of its diagonal
    (:func:`optimal_shift`), then saturated; generators within
    ``ZERO_ANGLE_TOL`` of a multiple of the identity compile to a
    zero-duration step.
    """
    am = require_real_symmetric(a, name="A")
    d = np.diagonal(am)
    return _saturated(am - float((d.min() + d.max()) / 2.0) * np.eye(am.shape[0]), label)


def _dagger(step: PulseStep) -> PulseStep:
    """Inverse pulse: same angle, negated coupling matrix (zeros stay +0.0)."""
    return PulseStep(k=0.0 - step.k, theta=step.theta, label=step.label + "_dagger")


def _centred_phases(phases) -> np.ndarray:
    """``phases`` shifted to the centre of the shortest arc of the circle that
    holds them (2*pi minus the largest gap between neighbours, taken mod
    2*pi) and wrapped into (-pi, pi]: ``diag(exp(-1j*phases))`` up to a
    global phase, with max|phase| half that arc, at most ``pi * (1 - 1/n)``.
    """
    p = np.asarray(phases, dtype=np.float64)
    if not p.size or not np.isfinite(p).all():
        raise ValueError("phases must be a non-empty vector of finite numbers")
    p = np.mod(p, TWO_PI)
    ordered = np.sort(p)
    ends = np.concatenate((ordered, [ordered[0] + TWO_PI]))
    gaps = ends[1:] - ends[:-1]
    widest = int(np.argmax(gaps))
    centre = ordered[(widest + 1) % p.size] + (TWO_PI - gaps[widest]) / 2.0
    return np.pi - np.mod(np.pi - (p - centre), TWO_PI)


def compile_diagonal_phases(phases, label: str = "") -> PulseStep:
    """Minimal pulse for ``diag(exp(-1j*phases))`` up to a global phase.

    The phases are centred on their shortest arc (:func:`_centred_phases`)
    and K saturated, so ``theta`` is half that arc.  Phases within
    ``ZERO_ANGLE_TOL`` of each other compile to a zero-duration step.
    """
    return _saturated(np.diag(_centred_phases(phases)), label)


def schedule_duration_ns(schedule: PulseSchedule) -> float:
    """Wall-clock duration: total_angle / (2*pi * g_max), with g_max in GHz."""
    ghz = schedule.device.g_max_mhz_over_2pi * 1e-3
    return schedule.total_angle / (2.0 * np.pi * ghz)
