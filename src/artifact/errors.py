"""Exception types shared across the package.

Every error raised on purpose by this package derives from
:class:`ArtifactError`, so callers can catch one base class.  Parse
errors carry the position of the offending token.
"""

from __future__ import annotations

# Largest word set an enumeration may build unless told otherwise.
DEFAULT_BUDGET = 1 << 24


class ArtifactError(Exception):
    """Base class for all errors raised by this package."""


class NotMonic(ArtifactError):
    """The modulus polynomial is not monic of the stated degree."""


class NotBasicIrreducible(ArtifactError):
    """The modulus reduces to a polynomial that is not irreducible mod 2."""


class NotPrimitive(ArtifactError):
    """The modulus reduces to an irreducible polynomial that is not primitive."""


class FrobeniusIncompatible(ArtifactError):
    """Substituting xi -> xi^2 does not define a ring automorphism.

    This happens when the modulus is not the Hensel lift of its mod-2
    reduction.  Such a quotient is a perfectly good ring, but the
    coefficient-substitution Frobenius map is then not multiplicative,
    so no skew structure exists and the context is rejected.
    """


class ContextMismatch(ArtifactError):
    """Operands belong to different arithmetic contexts."""


class NotUnit(ArtifactError):
    """Inversion was requested for a non-invertible element."""


class InvalidArgument(ArtifactError, ValueError):
    """An argument lies outside the domain of the operation."""


class ShapeMismatch(ArtifactError):
    """Operands have incompatible lengths or block shapes."""


class DivisionByZero(ArtifactError):
    """Division by the zero polynomial or the zero element."""


class DivisorNotUnitLeading(ArtifactError):
    """Right division needs a divisor whose leading coefficient is a unit."""


class OrthogonalityCheckFailed(ArtifactError):
    """A computed parity-check matrix failed its own orthogonality audit."""


class MissingComponent(ArtifactError):
    """A generator tuple references a component that was not supplied."""


class NotRightDivisible(ArtifactError):
    """A required exact right division left a nonzero remainder."""


class CheckFailed(ArtifactError):
    """A computed result failed an internal audit or a reference check."""


class BudgetExceeded(ArtifactError):
    """An enumeration grew past the configured word budget."""


class NotACode(ArtifactError):
    """The given word set is not closed under the module operations."""


class TrivialCode(ArtifactError):
    """The operation is undefined for the zero code."""


class ParseError(ArtifactError):
    """Text input violated the grammar.

    Attributes
    ----------
    line, column:
        Zero-based position of the offending character in the input.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
