"""Standard-form pulses: Hamiltonians of the shape g_max * K.

A hardware step is a real symmetric coupling matrix ``K`` with every entry
in [-1, 1], held for a dimensionless rotation angle ``theta`` (the product
of the coupling ceiling g_max and the hold time, in radians).  Any real
symmetric generator ``A`` maps onto this form by subtracting the optimal
multiple of the identity (a global phase) and rescaling by the largest
remaining entry.

A schedule's net unitary applies diagonal and single-pair pulses, which
make up all but one pulse of the linear preparation protocol, in closed
form; only the other pulses are exponentiated densely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DecompositionError, DimensionMismatch
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
        if not np.isfinite(theta) or theta < 0.0:
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
            rows, cols = np.nonzero(step.k)
            if np.array_equal(rows, cols):
                u[rows] *= np.exp(-1j * (step.theta * step.k[rows, cols]))[:, None]
            elif rows.size == 2:  # K is exactly symmetric, so this is the pair (i, j), (j, i)
                i, j = rows
                angle = step.theta * step.k[i, j]
                u[[i, j]] = math.cos(angle) * u[[i, j]] - 1j * math.sin(angle) * u[[j, i]]
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


def compile_symmetric_generator(a, device: DeviceParams | None = None, label: str = "") -> PulseStep:
    """Compile ``exp(-1j*A)`` into a single standard-form pulse.

    Applies the optimal identity shift, then rescales so the largest entry
    of K saturates at magnitude 1 (time optimality).  Generators within
    ``ZERO_ANGLE_TOL`` of a multiple of the identity compile to a
    zero-duration step.
    """
    am = require_real_symmetric(a, name="A")
    n = am.shape[0]
    c = optimal_shift(am)
    theta = rotation_angle(am, c)
    if theta <= ZERO_ANGLE_TOL:
        return PulseStep(k=np.zeros((n, n)), theta=0.0, label=label)
    k = (am - c * np.eye(n)) / theta
    step = PulseStep(k=k, theta=theta, label=label)
    peak = max_abs(step.k)
    if abs(peak - 1.0) > 1e-12:
        raise DecompositionError(f"compiled K has max|K| = {peak!r}, not the saturated 1")
    return step


def compile_diagonal_phases(phases, label: str = "") -> PulseStep:
    """Minimal pulse for ``diag(exp(-1j*phases))`` up to a global phase.

    The phases, taken mod 2*pi, lie on the shortest arc of the circle that
    holds them (2*pi minus the largest gap between neighbours).  Shifting
    them to the arc's centre and saturating K gives ``theta`` = half that
    arc, at most ``pi * (1 - 1/n)``.  Phases within ``ZERO_ANGLE_TOL`` of
    each other compile to a zero-duration step.
    """
    p = np.mod(np.asarray(phases, dtype=np.float64), TWO_PI)
    n = p.size
    ordered = np.sort(p)
    gaps = np.diff(ordered, append=ordered[0] + TWO_PI)
    widest = int(np.argmax(gaps))
    centre = ordered[(widest + 1) % n] + (TWO_PI - gaps[widest]) / 2.0
    shifted = np.pi - np.mod(np.pi - (p - centre), TWO_PI)  # wrapped into (-pi, pi]
    theta = float(np.max(np.abs(shifted)))
    if theta <= ZERO_ANGLE_TOL:
        return PulseStep(k=np.zeros((n, n)), theta=0.0, label=label)
    return PulseStep(k=np.diag(shifted / theta), theta=theta, label=label)


def schedule_duration_ns(schedule: PulseSchedule) -> float:
    """Wall-clock duration: total_angle / (2*pi * g_max), with g_max in GHz."""
    ghz = schedule.device.g_max_mhz_over_2pi * 1e-3
    return schedule.total_angle / (2.0 * np.pi * ghz)
