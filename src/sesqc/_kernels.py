"""Cyclic Jacobi eigensolver kernels.

Vectorised numpy row/column updates: each rotation updates two columns and
two rows of the work array and two columns of the accumulated eigenvectors.
The kernels leave eigenvalues unsorted on the work-array diagonal; ordering
and sign conventions are applied by :mod:`sesqc.linalg`.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

MAX_SWEEPS = 100


def _sweep_real(a: np.ndarray, v: np.ndarray, tol: float) -> int:
    n = a.shape[0]
    iu = np.triu_indices(n, k=1)
    for sweep in range(MAX_SWEEPS):
        if n < 2 or np.max(np.abs(a[iu])) <= tol:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - s * vcol_q
                v[:, q] = s * vcol_p + c * vcol_q
    if n < 2 or np.max(np.abs(a[iu])) <= tol:
        return MAX_SWEEPS
    return -1


def _sweep_herm(a: np.ndarray, v: np.ndarray, tol: float) -> int:
    n = a.shape[0]
    iu = np.triu_indices(n, k=1)
    for sweep in range(MAX_SWEEPS):
        if n < 2 or np.max(np.abs(a[iu])) <= tol:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = s * phase.conjugate()
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - spc * col_q
                a[:, q] = sp * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sp * row_q
                a[q, :] = spc * row_p + c * row_q
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - spc * vcol_q
                v[:, q] = sp * vcol_p + c * vcol_q
    if n < 2 or np.max(np.abs(a[iu])) <= tol:
        return MAX_SWEEPS
    return -1


def _diagonalise(a: np.ndarray, sweep) -> tuple[np.ndarray, np.ndarray]:
    """Run ``sweep`` on the work array ``a`` in place; return ``(w, v)``."""
    n = a.shape[0]
    v = np.eye(n, dtype=a.dtype, order="C")
    tol = 1e-13 * max(1.0, float(np.max(np.abs(a))) if n else 0.0)
    if sweep(a, v, tol) < 0:
        raise ConvergenceError(
            f"Jacobi failed to converge in {MAX_SWEEPS} sweeps (n={n})"
        )
    return np.diagonal(a).real.copy(), v


def jacobi_real(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a real symmetric matrix by cyclic Jacobi rotations.

    Returns ``(w, v)`` with unsorted eigenvalues ``w`` and the accumulated
    rotation matrix ``v`` (columns are eigenvectors).  Raises
    :class:`ConvergenceError` if the off-diagonal maximum is still above
    tolerance after ``MAX_SWEEPS`` full sweeps, which cannot happen for
    finite symmetric input and therefore flags a defect.
    """
    return _diagonalise(np.array(s, dtype=np.float64, order="C", copy=True), _sweep_real)


def jacobi_herm(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a complex Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(w, v)`` with unsorted real eigenvalues and unitary ``v``.
    """
    return _diagonalise(np.array(h, dtype=np.complex128, order="C", copy=True), _sweep_herm)
