"""Dense linear algebra on the single-excitation subspace.

All routines work on plain ``numpy`` arrays.  Matrix-valued preconditions
(symmetric, Hermitian, unitary) are enforced by the ``require_*`` validators
which either return a cleaned-up copy or raise a domain error.

Eigendecompositions run on the round-robin Jacobi kernel in
:mod:`sesqc._kernels` and are post-processed to a deterministic form:
eigenvalues ascending, and each eigenvector column scaled so its
largest-magnitude entry is real and positive.  Pulse exponentials
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
CLUSTER_RTOL = 1e-8
# Eigenvalue pairs separated by just over CLUSTER_RTOL land in different
# clusters and can leave cross terms of (commutator noise / gap); the gate
# matches the 1e-8 accuracy contract of everything built on top.
DIAG_RESIDUAL_TOL = 1e-8


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


def require_real_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a float64 symmetrised copy of ``a``."""
    m = np.asarray(a)
    if m.dtype.kind in "fiu":
        r = _as_square(np.asarray(m, dtype=np.float64), name)
    else:
        c = _as_square(np.asarray(m, dtype=np.complex128), name)
        if max_abs(c.imag) > SYMMETRY_TOL:
            raise NotHermitian(f"{name} has imaginary entries above {SYMMETRY_TOL}")
        r = c.real
    if max_abs(r - r.T) > SYMMETRY_TOL:
        raise NotHermitian(f"{name} is not symmetric within {SYMMETRY_TOL}")
    return np.array((r + r.T) / 2.0, dtype=np.float64, order="C")


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a complex128 Hermitised copy of ``a``."""
    m = _as_square(np.asarray(a, dtype=np.complex128), name)
    if max_abs(m - m.conj().T) > HERMITIAN_TOL:
        raise NotHermitian(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    return np.array((m + m.conj().T) / 2.0, dtype=np.complex128, order="C")


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


def symmetric_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a real symmetric matrix: ``S == Q @ diag(lam) @ Q.T``.

    Returns ``(Q, lam)`` with eigenvalues ascending and deterministic
    column signs.
    """
    s2 = require_real_symmetric(s, name="S")
    w, v = _kernels.jacobi_real(s2)
    order = np.argsort(w, kind="stable")
    q = _fix_column_signs(v[:, order])
    return q, w[order]


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix: ``H == V @ diag(w) @ V.conj().T``.

    Returns ``(V, w)`` with eigenvalues ascending and each column phased so
    its largest-magnitude entry is real positive.
    """
    h2 = require_hermitian(h, name="H")
    w, v = _kernels.jacobi_herm(h2)
    order = np.argsort(w, kind="stable")
    v = _fix_column_signs(v[:, order])
    return v, w[order]


def _cluster_bounds(vals: np.ndarray, ctol: float) -> list[tuple[int, int]]:
    """Split ascending values into maximal runs with consecutive gap <= ctol."""
    bounds = []
    start = 0
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > ctol:
            bounds.append((start, i))
            start = i
    bounds.append((start, len(vals)))
    return bounds


def simultaneous_diag(p, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly diagonalise two commuting Hermitian matrices.

    Returns ``(basis, p_vals, q_vals)``.  The basis diagonalises ``p`` with
    eigenvalues ascending; inside each degenerate cluster of ``p`` it is
    rotated to diagonalise ``q`` (again ascending).  When both inputs are
    real symmetric the basis comes back real orthogonal.

    Raises :class:`CommutatorViolation` when the inputs do not commute
    within tolerance, or when the joint residual check fails afterwards.
    """
    pm = _as_square(np.asarray(p, dtype=np.complex128), "P")
    qm = _as_square(np.asarray(q, dtype=np.complex128), "Q")
    if pm.shape != qm.shape:
        raise DimensionMismatch(f"P is {pm.shape}, Q is {qm.shape}")

    comm = max_abs(pm @ qm - qm @ pm)
    bound = 1e-8 * max(1.0, max_abs(pm) * max_abs(qm))
    if comm > bound:
        raise CommutatorViolation(
            f"max|PQ - QP| = {comm:.3e} exceeds {bound:.3e}; no shared eigenbasis"
        )

    # .conj() of a real array is the array itself, so one path serves both cases
    real_case = max_abs(pm.imag) == 0.0 and max_abs(qm.imag) == 0.0
    if real_case:
        pm, qm = pm.real, qm.real
    validate, eig = ((require_real_symmetric, symmetric_eig) if real_case
                     else (require_hermitian, hermitian_eig))
    pw = validate(pm, name="P")
    qw = validate(qm, name="Q")
    basis, p_sorted = eig(pw)

    ctol = CLUSTER_RTOL * max_abs(pw)
    for lo, hi in _cluster_bounds(p_sorted, ctol):
        if hi - lo < 2:
            continue
        block = basis[:, lo:hi]
        restricted = block.conj().T @ qw @ block
        rot, _ = eig((restricted + restricted.conj().T) / 2.0)
        basis[:, lo:hi] = block @ rot

    basis = _fix_column_signs(basis)

    bh = basis.conj().T
    p_full = bh @ pw @ basis
    q_full = bh @ qw @ basis
    p_vals = np.diagonal(p_full).real.copy()
    q_vals = np.diagonal(q_full).real.copy()
    off = max(
        max_abs(p_full - np.diag(np.diagonal(p_full))),
        max_abs(q_full - np.diag(np.diagonal(q_full))),
    )
    if off > DIAG_RESIDUAL_TOL:
        raise CommutatorViolation(
            f"joint diagonalisation left off-diagonal residue {off:.3e}; "
            "inputs commute only approximately"
        )
    return basis, p_vals, q_vals


def unitary_diagonalize(u) -> tuple[np.ndarray, np.ndarray]:
    """Spectral form of a unitary: ``U == V @ diag(exp(-1j*lam)) @ V.conj().T``.

    Returns ``(V, lam)`` with phase angles ``lam`` on the branch (-pi, pi].
    Works through the commuting Hermitian pair (U+U†)/2 and (U-U†)/2i, so
    repeated eigenphases are handled by the cluster logic in
    :func:`simultaneous_diag`.
    """
    um = require_unitary(u, name="U")
    h1 = (um + um.conj().T) / 2.0
    h2 = (um - um.conj().T) / 2.0j
    basis, _, _ = simultaneous_diag(h1, h2)
    v = basis.astype(np.complex128, copy=False)
    d = np.diagonal(v.conj().T @ um @ v)
    lam = -np.angle(d)
    lam[lam == -np.pi] = np.pi
    residual = max_abs((v * np.exp(-1j * lam)) @ v.conj().T - um)
    if residual > DIAG_RESIDUAL_TOL:
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
