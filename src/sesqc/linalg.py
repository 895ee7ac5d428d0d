"""Dense linear algebra on the single-excitation subspace.

All routines work on plain ``numpy`` arrays.  Matrix-valued preconditions
(symmetric, Hermitian, unitary) are enforced by the ``require_*`` validators
which either return a cleaned-up copy or raise a domain error.  Only this
module decides how close a matrix must be to Hermitian, symmetric or
diagonal, always relative to the input's own scale, so c*A fares as A does:
max|A|, or in :func:`simultaneous_diag` one joint scale s for its
commutator and residual, the larger max row sum of |P|, |Q|.  Unitaries
are unit-scale, so :func:`require_unitary` bounds absolutely.
A real matrix equal to its transpose bit for bit, as every K sesqc builds
is, is its own symmetrised mean, so :func:`require_real_symmetric` copies it
without measuring it.

Eigendecompositions run on the round-robin Jacobi kernel in
:mod:`sesqc._kernels` and are post-processed to a deterministic form:
eigenvalues ascending, and each eigenvector column scaled so its
largest-magnitude entry is real and positive, and checked to rebuild A to
``SPECTRAL_RESIDUAL_TOL`` max|A|.  A spectral form or a joint basis is one
such eigensolve, of the first of a few candidates that passes.  Pulse
exponentials (:func:`expm_generator`) use no eigensolver: they are formed
from matrix products alone, so a schedule's net unitary is computed
independently of the eigendecompositions that produced its generators.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import (
    CommutatorViolation,
    DecompositionError,
    DimensionMismatch,
    NotHermitian,
    NotUnitary,
)

UNITARY_TOL = 1e-8
HERMITIAN_TOL = 1e-8
SYMMETRY_TOL = 1e-10
SPECTRAL_RESIDUAL_TOL = 1e-9
DIAG_RESIDUAL_TOL = 1e-8
CAYLEY_BOUND = 1e3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # the golden ratio mod 1
_HALF_MAX = np.finfo(np.float64).max / 2


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry (max norm), 0.0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def _as_square(a, name: str = "matrix") -> np.ndarray:
    out = np.asarray(a)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _mean_with_mirror(m: np.ndarray, mirror: np.ndarray, tol: float, name: str, kind: str) -> np.ndarray:
    """``(m + mirror) / 2`` in C order, once max|m - mirror| is within ``tol`` max|m|.

    Above half the float range an entry and its mirror can sum (or differ)
    beyond it, so there the mean of their halves is doubled, and an entry
    equal to its mirror bit for bit stays as it is (a 0.0 mirroring -0.0
    takes the mean, +0.0, as it does below).
    """
    peak = max_abs(m)
    if peak > _HALF_MAX:
        mean = 2.0 * _mean_with_mirror(m / 2.0, mirror / 2.0, tol, name, kind)
        a, b = (np.ascontiguousarray(x).view(np.int64).reshape(*x.shape, -1) for x in (m, mirror))
        return np.ascontiguousarray(np.where((a == b).all(axis=-1), m, mean))
    asym = max_abs(m - mirror)
    if asym > tol * peak:
        raise NotHermitian(f"{name} is not {kind} within {tol:g} max|A|")
    return np.array((m + mirror) / 2.0, order="C")


def require_real_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Float64 symmetrised copy of ``a``; its asymmetry and imaginary part
    must be within ``SYMMETRY_TOL`` max|a|."""
    m = np.asarray(a)
    if m.dtype.kind in "fiu":
        r = _as_square(np.asarray(m, dtype=np.float64), name)
    else:
        c = _as_square(np.asarray(m, dtype=np.complex128), name)
        imag = max_abs(c.imag)
        if imag and imag > SYMMETRY_TOL * max_abs(c):  # exact input skips the scale
            raise NotHermitian(f"{name} has imaginary entries above {SYMMETRY_TOL:g} max|A|")
        r = c.real
    bits = r.view(np.int64)  # bit for bit, so a 0.0 mirroring -0.0 is still averaged to +0.0
    if np.array_equal(bits, bits.T):
        return np.array(r, order="C")  # what _mean_with_mirror returns for it, at any scale
    return _mean_with_mirror(r, r.T, SYMMETRY_TOL, name, "symmetric")


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Complex128 Hermitised copy of ``a``; asymmetry must be within ``HERMITIAN_TOL`` max|a|."""
    m = _as_square(np.asarray(a, dtype=np.complex128), name)
    return _mean_with_mirror(m, m.conj().T, HERMITIAN_TOL, name, "Hermitian")


def require_unitary(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` is unitary to ``UNITARY_TOL`` in max norm; return complex copy."""
    m = _as_square(np.asarray(a, dtype=np.complex128), name)
    n = m.shape[0]
    defect = max_abs(m.conj().T @ m - np.eye(n))
    if not defect <= UNITARY_TOL:  # also catches NaN from an overflowing U†U
        raise NotUnitary(f"{name} fails unitarity: max|U†U - I| = {defect:.3e} > {UNITARY_TOL}")
    return np.array(m, dtype=np.complex128, order="C")


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-magnitude entry is real positive."""
    if not v.size:
        return v
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    if np.iscomplexobj(v):
        mag = np.hypot(pivot.real, pivot.imag)  # rounds as scalar abs() does; np.abs need not
        live = mag > 0.0
        v[:, live] *= pivot[live].conj() / mag[live]
    else:
        v[:, pivot < 0.0] *= -1.0
    return v


def _verified_eig(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, sign-fixed ``(v, w)``; must rebuild ``a`` to ``SPECTRAL_RESIDUAL_TOL``
    max|a|, or to n subnormal quanta where that bound would underflow.  The
    rebuild runs in the kernel's power-of-two unit, so it cannot overflow."""
    if not np.all(np.isfinite(w)):
        raise DecompositionError("an eigenvalue lies beyond the float range")
    order = np.argsort(w, kind="stable")
    v = _fix_column_signs(v[:, order])
    w = w[order]
    unit = _kernels.unit_scale(max_abs(a))
    residual = max_abs((v * (w * unit)) @ v.conj().T - a * unit)
    bound = max(SPECTRAL_RESIDUAL_TOL * max_abs(a), len(w) * np.finfo(float).smallest_subnormal) * unit
    if not residual <= bound:
        raise DecompositionError(f"spectral residual {residual / unit:.3e} exceeds {bound / unit:.3e}")
    return v, w


def symmetric_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a real symmetric matrix: ``S == Q @ diag(lam) @ Q.T``.

    Returns ``(Q, lam)`` with eigenvalues ascending and deterministic
    column signs.
    """
    s2 = require_real_symmetric(s, name="S")
    return _verified_eig(s2, *_kernels.jacobi_real(s2))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix: ``H == V @ diag(w) @ V.conj().T``.

    Returns ``(V, w)`` with eigenvalues ascending and each column phased so
    its largest-magnitude entry is real positive.
    """
    h2 = require_hermitian(h, name="H")
    return _verified_eig(h2, *_kernels.jacobi_herm(h2))


def simultaneous_diag(p, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly diagonalise two commuting Hermitian matrices.

    Returns ``(basis, p_vals, q_vals)``, ``p_vals`` ascending.  The basis
    eigensolves P + cQ for the first c = frac(k * golden ratio), k = 1, 2,
    ..., that leaves both diagonal; distinct joint eigenvalues collide for
    at most one c per pair, so one of the first n(n-1)/2 + 1 works.  For
    real symmetric input the basis comes back real orthogonal.

    Raises :class:`CommutatorViolation` when max|PQ - QP| exceeds 1e-8 s^2,
    or no c leaves off-diagonal residue within 1e-8 s, with s the larger
    max row sum of |P| and |Q|: it bounds the spectral norm, though the
    entries can be far smaller, and one input can vanish altogether.
    """
    pw = require_hermitian(p, name="P")
    qw = require_hermitian(q, name="Q")
    if pw.shape != qw.shape:
        raise DimensionMismatch(f"P is {pw.shape}, Q is {qw.shape}")

    # Scaled by a power of two (exact), so that s^2 and PQ - QP cannot overflow
    unit = _kernels.unit_scale(max(max_abs(pw), max_abs(qw)))
    pw, qw = pw * unit, qw * unit
    scale = max(float(np.abs(m).sum(axis=1).max(initial=0.0)) for m in (pw, qw))
    comm = max_abs(pw @ qw - qw @ pw)
    if not comm <= DIAG_RESIDUAL_TOL * scale * scale:
        raise CommutatorViolation(
            f"max|PQ - QP| = {comm / (scale * scale):.3e} s^2 exceeds {DIAG_RESIDUAL_TOL:g} s^2; "
            "no shared eigenbasis"
        )

    # .conj() of a real array is the array itself, so one path serves both cases
    eig = hermitian_eig
    if max_abs(pw.imag) == 0.0 and max_abs(qw.imag) == 0.0:
        pw, qw, eig = np.ascontiguousarray(pw.real), np.ascontiguousarray(qw.real), symmetric_eig
    n = pw.shape[0]
    for k in range(1, n * (n - 1) // 2 + 2):
        basis = eig(pw + (k * _GOLDEN % 1.0) * qw)[0]
        p_full, q_full = (basis.conj().T @ m @ basis for m in (pw, qw))
        off = max(max_abs(m - np.diag(np.diagonal(m))) for m in (p_full, q_full))
        if off <= DIAG_RESIDUAL_TOL * scale:
            p_vals, q_vals = np.diagonal(p_full).real, np.diagonal(q_full).real
            order = np.argsort(p_vals, kind="stable")
            return basis[:, order], p_vals[order] / unit, q_vals[order] / unit
    raise CommutatorViolation(
        f"joint diagonalisation left off-diagonal residue {off / scale:.3e} s; "
        "inputs commute only approximately"
    )


def unitary_diagonalize(u) -> tuple[np.ndarray, np.ndarray]:
    """Spectral form of a unitary: ``U == V @ diag(exp(-1j*lam)) @ V.conj().T``.

    Returns ``(V, lam)`` with phase angles ``lam`` on the branch (-pi, pi].
    V eigensolves the Hermitian ``H = i(I - W)(I + W)^-1``, W = e^{i phi} U,
    whose eigenvalues tan(b/2), for the eigenphases b of W, keep distinct
    phases apart.  phi = 2 pi frac(k * golden ratio) for the first k = 0..n
    with max|H| <= ``CAYLEY_BOUND``; a phase blocks at most one k (for
    n < 987), so one passes.  Phases are read from diag(V† U V), which puts
    an eigenvalue within an ulp of -1 on +pi.  For U equal to U.T, H is
    real symmetric and V real orthogonal.
    """
    um = require_unitary(u, name="U")
    eye = np.eye(um.shape[0])
    for k in range(um.shape[0] + 1):
        w = np.exp(2j * np.pi * (k * _GOLDEN % 1.0)) * um
        try:
            x = np.linalg.solve(eye + w, eye - w)  # H = i x, as (I + W)^-1 commutes with I - W
        except np.linalg.LinAlgError:  # W has eigenvalue -1 exactly
            continue
        if max_abs(x) <= CAYLEY_BOUND:
            break
    h = 1j * (x - x.conj().T) / 2.0  # (H + H†)/2, not validated: the residual checks V
    v = (symmetric_eig(h.real) if np.array_equal(um, um.T) else hermitian_eig(h))[0]
    lam = -np.angle(np.einsum("ij,ij->j", v.conj(), um @ v))
    lam[lam == -np.pi] = np.pi
    residual = max_abs((v * np.exp(-1j * lam)) @ v.conj().T - um)
    if not residual <= DIAG_RESIDUAL_TOL:
        raise DecompositionError(
            f"spectral reconstruction residual {residual:.3e} exceeds {DIAG_RESIDUAL_TOL}"
        )
    return v, lam


def expm_generator(theta: float, k) -> np.ndarray:
    """Evolution operator ``exp(-1j * theta * K)`` for real symmetric ``K``.

    Scaling and squaring with matrix products only: a degree-18 Taylor
    series of ``-1j*theta*K / 2**s``, whose 1-norm is below 1/2, squared
    ``s`` times.  A squaring doubles the unitarity defect, so each one is
    followed by a Newton-Schulz polar step ``X (3I - X†X) / 2``, which
    squares it instead: the result is unitary to rounding at any angle.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    km = require_real_symmetric(k, name="K")
    norm = abs(float(theta)) * float(np.abs(km).sum(axis=0).max(initial=0.0))
    if not np.isfinite(norm):
        raise ValueError(f"theta * |K| overflows at theta = {theta}")
    s = max(0, math.frexp(norm)[1] + 1)
    m = (-1j * math.ldexp(float(theta), -s)) * km
    eye = np.eye(km.shape[0], dtype=np.complex128)
    u = eye
    for j in range(18, 0, -1):
        u = eye + (m @ u) / j
    for _ in range(s):
        u = u @ u
        u = u @ (3.0 * eye - u.conj().T @ u) / 2.0
    return u


def global_phase_fidelity(u, w) -> float:
    """Phase-insensitive overlap ``|tr(U†W)| / n`` between two unitaries.

    Equals 1 exactly when ``W = exp(1j*phi) * U`` for some global phase.
    """
    um = require_unitary(u, name="U")
    wm = require_unitary(w, name="W")
    if um.shape != wm.shape:
        raise DimensionMismatch(f"U is {um.shape}, W is {wm.shape}")
    n = um.shape[0]
    return float(abs(np.trace(um.conj().T @ wm)) / n)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random unitary from QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
