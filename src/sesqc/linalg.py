"""Dense linear algebra on the single-excitation subspace.

All routines work on plain ``numpy`` arrays.  Matrix-valued preconditions
(symmetric, Hermitian, unitary) are enforced by the ``require_*`` validators
which either return a cleaned-up copy or raise a domain error.  Only this
module decides how close a matrix must be to Hermitian, symmetric or
diagonal, always relative to the input's own scale, so c*A fares as A does:
max|A|, or in :func:`simultaneous_diag` one joint scale s for its cluster
widths, commutator and residual, the larger max row sum of |P|, |Q|.
Unitaries are unit-scale, so :func:`require_unitary` bounds absolutely.

Eigendecompositions run on the round-robin Jacobi kernel in
:mod:`sesqc._kernels` and are post-processed to a deterministic form:
eigenvalues ascending, and each eigenvector column scaled so its
largest-magnitude entry is real and positive, and checked to rebuild A to
``SPECTRAL_RESIDUAL_TOL`` max|A|.  Pulse exponentials
(:func:`expm_generator`) use no eigensolver: they are formed from matrix
products alone, so a schedule's net unitary is computed independently of
the eigendecompositions that produced its generators.
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
CLUSTER_RTOL = 1e-8
NEAR_RTOL = 1e-4
DIAG_RESIDUAL_TOL = 1e-8
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
    equal to its mirror stays as it is.
    """
    peak = max_abs(m)
    if peak > _HALF_MAX:
        mean = 2.0 * _mean_with_mirror(m / 2.0, mirror / 2.0, tol, name, kind)
        return np.ascontiguousarray(np.where(m == mirror, m, mean))
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


def _runs(vals: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """``(lo, hi)`` of each maximal run of 2+ ascending values with gaps <= tol."""
    cuts = [0, *(np.flatnonzero(np.diff(vals) > tol) + 1), len(vals)]
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo > 1]


def _diagonalise_in(block: np.ndarray, m: np.ndarray, eig) -> tuple[np.ndarray, np.ndarray]:
    """Rotate orthonormal columns ``block`` to diagonalise ``m`` on their span."""
    restricted = block.conj().T @ m @ block
    rot, vals = eig((restricted + restricted.conj().T) / 2.0)
    return block @ rot, vals


def simultaneous_diag(p, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly diagonalise two commuting Hermitian matrices.

    Returns ``(basis, p_vals, q_vals)``.  The basis diagonalises ``p`` with
    eigenvalues ascending; inside each cluster of ``p`` eigenvalues at most
    1e-8 s apart (1e-4 s on the retry) it is rotated to diagonalise ``q``.
    When both inputs are real symmetric the basis comes back real orthogonal.

    Raises :class:`CommutatorViolation` when max|PQ - QP| exceeds 1e-8 s^2,
    or the basis leaves off-diagonal residue above 1e-8 s.  Every tolerance
    uses the one joint scale s, the larger max row sum of |P| and |Q|.  That
    norm bounds the spectral one, which is 1 for the Hermitian parts of a
    unitary, though their entries can be as small as 1/sqrt(n), and one part
    can vanish altogether.
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
    p_basis, p_sorted = eig(pw)

    # P's degenerate runs are split by Q.  Jacobi mixes the vectors of two
    # eigenvalues a gap g apart by up to ~1e-13 s / g, which can leave Q a
    # cross term above the bound for g up to ~1e-5 s; then the runs up to
    # NEAR_RTOL s wide are split by Q instead, and Q's clusters in them by P.
    # Widths are in s because P can be ~0 (U = i*reflection): its rounding
    # noise must then form one cluster for Q to split.
    for near in (CLUSTER_RTOL, NEAR_RTOL):
        basis = p_basis.copy(order="K")  # same layout, so the products round the same
        for lo, hi in _runs(p_sorted, near * scale):
            block, q_sorted = _diagonalise_in(basis[:, lo:hi], qw, eig)
            if near == NEAR_RTOL:
                for a, b in _runs(q_sorted, CLUSTER_RTOL * scale):
                    block[:, a:b] = _diagonalise_in(block[:, a:b], pw, eig)[0]
            basis[:, lo:hi] = block
        basis = _fix_column_signs(basis)
        p_full, q_full = (basis.conj().T @ m @ basis for m in (pw, qw))
        off = max(max_abs(m - np.diag(np.diagonal(m))) for m in (p_full, q_full))
        if off <= DIAG_RESIDUAL_TOL * scale:
            return basis, np.diagonal(p_full).real / unit, np.diagonal(q_full).real / unit
    raise CommutatorViolation(
        f"joint diagonalisation left off-diagonal residue {off / scale:.3e} s; "
        "inputs commute only approximately"
    )


def unitary_diagonalize(u) -> tuple[np.ndarray, np.ndarray]:
    """Spectral form of a unitary: ``U == V @ diag(exp(-1j*lam)) @ V.conj().T``.

    Returns ``(V, lam)`` with phase angles ``lam`` on the branch (-pi, pi].
    Works through the commuting Hermitian pair (U+U†)/2 and (U-U†)/2i, so
    repeated eigenphases are handled by the cluster logic in
    :func:`simultaneous_diag`, and each phase is read from its pair of
    eigenvalues.  For an exactly symmetric U both parts are real, and V
    comes back real orthogonal.
    """
    um = require_unitary(u, name="U")
    h1 = (um + um.conj().T) / 2.0
    h2 = (um - um.conj().T) / 2.0j
    v, cos_vals, sin_vals = simultaneous_diag(h1, h2)
    lam = -np.angle(cos_vals + 1j * sin_vals)
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
