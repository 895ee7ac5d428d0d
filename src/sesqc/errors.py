"""Exception types raised across the package.

Every error derives from :class:`SesqcError` so callers (notably the CLI)
can catch domain failures without swallowing programming errors.  Each type
carries the ``sesqc`` exit code it maps to: 4 (a verification failure)
unless it overrides it.
"""
from __future__ import annotations


class SesqcError(Exception):
    """Base class for all sesqc domain errors."""

    exit_code = 4


class DimensionMismatch(SesqcError):
    """Operands act on different subspace dimensions."""

    exit_code = 2


class NotUnitary(SesqcError):
    """Matrix fails the unitarity check at the required tolerance."""

    exit_code = 3


class NotHermitian(SesqcError):
    """Matrix fails the Hermiticity check at the required tolerance."""

    exit_code = 6


class CommutatorViolation(SesqcError):
    """A pair of operators does not commute well enough to share an eigenbasis."""


class OrthogonalityViolation(SesqcError):
    """An expected real orthogonal factor came out non-orthogonal or complex.

    In practice this signals a mishandled degenerate eigenspace upstream,
    not bad user input.
    """


class ConvergenceError(SesqcError):
    """An iterative solver hit its iteration cap without converging."""


class DecompositionError(SesqcError):
    """A decomposition failed to reproduce its input within tolerance."""


class NonUniformWeights(SesqcError):
    """State does not have uniform occupation weights where required."""


class AlreadyUniform(SesqcError):
    """No reduction step is possible: weights are already uniform."""


class IterationOverflow(SesqcError):
    """The weight-reduction loop exceeded its guaranteed iteration bound."""


class InvalidState(SesqcError):
    """State is not normalised, or not a valid density matrix."""

    exit_code = 5


class InvalidDensityMatrix(InvalidState):
    """Matrix is not Hermitian, positive semidefinite and trace-one."""
