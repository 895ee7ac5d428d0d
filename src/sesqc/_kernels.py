"""Round-robin Jacobi eigensolver kernel.

One sweep routine serves real symmetric (float64) and Hermitian (complex128)
input.  A sweep is the circle-method tournament over the indices (Brent &
Luk, SIAM J. Sci. Stat. Comput. 6, 1985; Golub & Van Loan, *Matrix
Computations* §8.5): each round pairs the indices off, leaving one idle when
n is odd, and applies its floor(n/2) disjoint rotations at once as one n×n
rotation J, ``A <- J† A J`` and ``V <- V J``.  The kernel leaves eigenvalues
unsorted on the work-array diagonal; ordering and sign conventions are
applied by :mod:`sesqc.linalg`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError

MAX_SWEEPS = 100
TINY = np.finfo(np.float64).tiny


@functools.cache
def _rounds(n: int) -> tuple[np.ndarray, ...]:
    """Read-only ``[p, q]`` index rows, ``p < q``, of each round of the circle method."""
    m = n + n % 2  # an odd n gets a dummy index n; its partner idles
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted(pq) for pq in zip(ring[: m // 2], ring[::-1]) if max(pq) < n]
        pq = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        pq.setflags(write=False)
        rounds.append(pq)
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(rounds)


def _diagonalise(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise the work array ``a``; return ``(w, v)``."""
    n = a.shape[0]
    v = np.eye(n, dtype=a.dtype)
    # Scaling by a power of two is exact: max|A| in [0.5, 1) (an all-subnormal
    # A to at least 2^-52) makes the rotations and the stop the same at any scale.
    peak = float(np.max(np.abs(a))) if n else 0.0
    unit = math.ldexp(1.0, -max(math.frexp(peak)[1], -1022))
    a *= unit
    tol = 1e-13 * (peak * unit)
    iu = np.triu_indices(n, k=1)
    sweeps = 0
    while n > 1 and np.max(np.abs(a[iu])) > tol:
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(f"Jacobi failed to converge in {MAX_SWEEPS} sweeps (n={n})")
        sweeps += 1
        for p, q in _rounds(n):
            apq = a[p, q]
            mag = np.abs(apq)
            # A zero or subnormal a[p, q] is below any tolerance and would
            # overflow apq / mag: it gets t = 0, the identity rotation.
            live = mag >= TINY
            mag[~live] = 1.0
            with np.errstate(over="ignore"):  # |tau| = inf rounds t to 0, as t ~ 1/(2 tau) would
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            t[~live] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c * (apq / mag)  # carries the phase of a[p, q]
            j = np.eye(n, dtype=a.dtype)
            j[p, p] = c
            j[q, q] = c
            j[p, q] = s
            j[q, p] = -s.conj()
            a = j.conj().T @ a @ j
            v = v @ j
    return np.diagonal(a).real / unit, v


def jacobi_real(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a real symmetric matrix by round-robin Jacobi rotations.

    Returns ``(w, v)`` with unsorted eigenvalues ``w`` and the accumulated
    rotation matrix ``v`` (columns are eigenvectors).  Raises
    :class:`ConvergenceError` if the off-diagonal maximum is still above
    tolerance after ``MAX_SWEEPS`` full sweeps, which cannot happen for
    finite symmetric input and therefore flags a defect.
    """
    return _diagonalise(np.array(s, dtype=np.float64, copy=True))


def jacobi_herm(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a complex Hermitian matrix by round-robin Jacobi rotations.

    Returns ``(w, v)`` with unsorted real eigenvalues and unitary ``v``.
    """
    return _diagonalise(np.array(h, dtype=np.complex128, copy=True))
