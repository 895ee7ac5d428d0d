"""Decomposition of unitaries into real symmetric pulse generators.

Any n x n unitary factors as ``U = O1 @ exp(-1j*D) @ O2.T`` with O1, O2
real orthogonal and D real diagonal (:func:`kak_decompose`).  Combining
that with the spectral form of U gives ``U = exp(-1j*A) @ exp(-1j*B) @
exp(+1j*A)`` for a pair of real symmetric generators
(:func:`aba_decompose`), i.e. any unitary runs in three standard-form
pulses.  :func:`compile_unitary` and :func:`compile_hamiltonian` wrap this
into :class:`~sesqc.pulses.PulseSchedule` objects.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, OrthogonalityViolation
from .linalg import (
    expm_generator,
    global_phase_fidelity,
    hermitian_eig,
    max_abs,
    require_hermitian,
    require_unitary,
    unitary_diagonalize,
)
from .pulses import (
    ZERO_ANGLE_TOL,
    DeviceParams,
    PulseSchedule,
    PulseStep,
    _centred_phases,
    _dagger,
    compile_symmetric_generator,
)

ORTHOGONALITY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-8
MIN_COMPILE_FIDELITY = 1.0 - 1e-8
SYMMETRIC_SHORTCUT_TOL = 1e-10


@dataclass(frozen=True)
class KAKDecomposition:
    """Factors of ``U = o1 @ diag(exp(-1j*d)) @ o2.T``."""

    o1: np.ndarray
    d: np.ndarray
    o2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.o1 * np.exp(-1j * self.d)) @ self.o2.T


@dataclass(frozen=True)
class ABADecomposition:
    """Real symmetric generators of ``U = expm(-1j*a) @ expm(-1j*b) @ expm(1j*a)``."""

    a: np.ndarray
    b: np.ndarray

    def reconstruct(self) -> np.ndarray:
        ua = expm_generator(1.0, self.a)
        ub = expm_generator(1.0, self.b)
        return ua @ ub @ ua.conj().T


def _check_orthogonal(r: np.ndarray, name: str) -> np.ndarray:
    defect = max_abs(r.T @ r - np.eye(r.shape[0]))
    if defect > ORTHOGONALITY_TOL:
        raise OrthogonalityViolation(f"{name} fails orthogonality by {defect:.3e}")
    return r


def kak_decompose(u) -> KAKDecomposition:
    """Split a unitary into real orthogonal factors around a diagonal phase.

    Works through :func:`~sesqc.linalg.unitary_diagonalize` of ``chi = U @
    U.T``, symmetrised exactly: a symmetric unitary has a real orthogonal
    eigenbasis O1, and its phases on (-pi, pi], halved, give D on the branch
    (-pi/2, pi/2].  O2 follows as ``U.T @ O1 @ exp(1j*D)``.  chi and O2 use
    one Newton-Schulz polar step ``U (3I - U†U) / 2`` in place of U, which
    squares the unitarity defect that chi would otherwise double; the
    result is checked against U itself.
    """
    um = require_unitary(u, name="U")
    up = um @ (3.0 * np.eye(um.shape[0]) - um.conj().T @ um) / 2.0
    chi = up @ up.T
    v, lam = unitary_diagonalize((chi + chi.T) / 2.0)
    o1 = _check_orthogonal(np.ascontiguousarray(v), "O1")
    d = lam / 2.0
    o2 = up.T @ (o1 * np.exp(1j * d))
    imag = max_abs(o2.imag)
    if imag > ORTHOGONALITY_TOL:
        raise OrthogonalityViolation(f"O2 has imaginary part {imag:.3e}; degenerate eigenspace mishandled?")
    o2 = _check_orthogonal(np.ascontiguousarray(o2.real), "O2")
    kak = KAKDecomposition(o1=o1, d=d, o2=o2)
    residual = max_abs(kak.reconstruct() - um)
    if residual > RECONSTRUCTION_TOL:
        raise DecompositionError(
            f"KAK reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL}"
        )
    return kak


def _kak_generators(v: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real symmetric (A, B) with ``V e^{-i lam} V† = e^{-iA} e^{-iB} e^{iA}``.

    The half-angle freedom in the KAK phases is spent making A negative
    semidefinite: D entries on the positive branch are shifted by -pi and
    the matching O2 columns flip sign, which leaves the product unchanged
    (``e^{-i(d - pi)} = -e^{-i d}``).
    """
    kak = kak_decompose(v)
    shift = kak.d > 0
    d = kak.d - np.pi * shift
    o2 = kak.o2 * np.where(shift, -1.0, 1.0)
    a = kak.o1 @ np.diag(d) @ kak.o1.T
    w = kak.o1 @ o2.T
    b = w @ np.diag(lam) @ w.T
    return (a + a.T) / 2.0, (b + b.T) / 2.0


def _aba_generators(um: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked (A, B) of :func:`aba_decompose` for a validated unitary."""
    v, lam = unitary_diagonalize(um)
    lam = lam - 2.0 * np.pi * (lam > 0)
    return _kak_generators(v, lam)


def aba_decompose(u) -> ABADecomposition:
    """Find real symmetric generators A, B with ``U = e^{-iA} e^{-iB} e^{iA}``.

    Uses the spectral form ``U = V e^{-i Lam} V†`` and the KAK factors of V:
    ``A = O1 D O1.T`` and ``B = (O1 O2.T) Lam (O1 O2.T).T``.  The pair is
    not unique; only the reconstruction contract is guaranteed.  This
    implementation reads all phases on non-positive branches (D in
    (-pi, 0], Lam in (-2pi, 0]), so both generators come back negative
    semidefinite.
    """
    um = require_unitary(u, name="U")
    aba = ABADecomposition(*_aba_generators(um))
    fidelity = global_phase_fidelity(aba.reconstruct(), um)
    if fidelity < MIN_COMPILE_FIDELITY:
        raise DecompositionError(
            f"ABA reconstruction fidelity {fidelity!r} below {MIN_COMPILE_FIDELITY}"
        )
    return aba


def _one_pulse_step(v: np.ndarray, lam: np.ndarray, label: str) -> PulseStep:
    """One pulse for ``V e^{-i lam} V†`` up to a global phase, for V whose
    generator ``V lam V†`` is real: the shorter of the pulses compiled from
    ``lam`` and from ``lam`` centred on its shortest arc
    (:func:`~sesqc.pulses._centred_phases`), ``lam``'s on a tie."""
    gs = [((v * phases) @ v.conj().T).real for phases in (lam, _centred_phases(lam))]
    steps = [compile_symmetric_generator((g + g.T) / 2.0, label=label) for g in gs]
    return min(steps, key=lambda step: step.theta)  # the first on a tie


def _aba_steps(a: np.ndarray, b: np.ndarray) -> list[PulseStep]:
    """Execution-order pulses for e^{-iA} e^{-iB} e^{iA} (rightmost first);
    the first is the exact inverse of the last."""
    step_a = compile_symmetric_generator(a, label="a")
    return [_dagger(step_a), compile_symmetric_generator(b, label="b"), step_a]


def schedule_unitary(schedule: PulseSchedule) -> np.ndarray:
    """Net operator of a schedule: product of step unitaries, steps[0] first."""
    return schedule.unitary


def _verified_schedule(steps, target: np.ndarray, device: DeviceParams) -> PulseSchedule:
    """Schedule of ``steps``, checked against ``target`` to fidelity 1 - 1e-8."""
    schedule = PulseSchedule(n=target.shape[0], steps=tuple(steps), device=device)
    fidelity = global_phase_fidelity(schedule.unitary, target)
    if fidelity < MIN_COMPILE_FIDELITY:
        raise DecompositionError(
            f"compiled schedule fidelity {fidelity!r} below {MIN_COMPILE_FIDELITY}"
        )
    return schedule


def compile_unitary(u, device: DeviceParams | None = None) -> PulseSchedule:
    """Compile an arbitrary unitary into at most three standard-form pulses.

    Symmetric unitaries (max|U - U.T| <= 1e-10) take a one-step shortcut
    through a real symmetric logarithm (:func:`_one_pulse_step`);
    everything else goes through :func:`aba_decompose` and emits three
    steps.  The compiled schedule is verified against ``u`` to global-phase
    fidelity 1 - 1e-8.
    """
    device = device or DeviceParams()
    um = require_unitary(u, name="U")
    if max_abs(um - um.T) <= SYMMETRIC_SHORTCUT_TOL:
        v, lam = unitary_diagonalize((um + um.T) / 2.0)  # real V, as the input is symmetric
        steps = [_one_pulse_step(v, lam, "symmetric")]
    else:
        steps = _aba_steps(*_aba_generators(um))
    return _verified_schedule(steps, um, device)


def compile_hamiltonian(h, t: float, device: DeviceParams | None = None) -> PulseSchedule:
    """Compile the evolution ``exp(-1j*H*t)`` of a Hermitian H.

    The phases ``t`` times the spectrum of H are wrapped onto [-pi, pi],
    so the pulse angles stay bounded however large ``t`` is, and no matrix
    logarithm is needed.  Real symmetric Hamiltonians compile to a single
    pulse with the real generator ``V diag(phases) V†``, on the shorter of
    two phase branches (:func:`_one_pulse_step`); complex Hermitian
    ones reuse the KAK route with those phases as the diagonal, or emit
    three zero-angle pulses when the phases are all equal (a global phase).
    H counts as real when max|Im H| <= 1e-10 max|H|; that bound, and the
    checks of :mod:`sesqc.linalg` on H and its eigendecomposition, scale
    with H, so s*H for time t/s compiles as H for time t does.
    """
    device = device or DeviceParams()
    if isinstance(t, bool) or not isinstance(t, numbers.Real) or not math.isfinite(t):
        raise ValueError(f"t must be a finite real number, got {t!r}")
    hm = require_hermitian(h, name="H")
    # The fidelity check below compares against a target built from this
    # same eigendecomposition, so it relies on hermitian_eig's own residual check.
    v, spectrum = hermitian_eig(hm)
    if not np.isfinite(abs(float(t)) * max_abs(spectrum)):  # Python floats overflow to inf silently
        raise ValueError(f"t * spectrum of H overflows at t = {t}")
    lam = float(t) * spectrum
    # Wrap onto the principal branch; numpy's exp reduces its argument
    # exactly, where subtracting multiples of float(2*pi) would not.
    lam = np.where(np.abs(lam) <= np.pi, lam, -np.angle(np.exp(-1j * lam)))
    target = (v * np.exp(-1j * lam)) @ v.conj().T
    if max_abs(hm.imag) <= SYMMETRIC_SHORTCUT_TOL * max_abs(hm):
        steps = [_one_pulse_step(v, lam, "hamiltonian")]
    elif max_abs(np.angle(np.exp(-1j * (lam - lam[0])))) <= ZERO_ANGLE_TOL:
        # A global phase: the KAK factors of the eigenbasis would still
        # give A a nonzero angle.
        steps = _aba_steps(np.zeros(hm.shape), np.zeros(hm.shape))
    else:
        steps = _aba_steps(*_kak_generators(v, lam))
    return _verified_schedule(steps, target, device)
