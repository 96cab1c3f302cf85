"""Error types shared across the package.

Every failure mode that callers are expected to catch has a stable
identifier (``.ident``) and a distinct process exit code (``.exit_code``)
used by the command line interface.  A broken mathematical invariant raises
:class:`InvariantViolation`, which a ``python -O`` run keeps; the package
has no bare ``assert``.
"""

from __future__ import annotations


class ToricError(ValueError):
    """Base class for all recognized failures."""

    ident = "ERROR"
    exit_code = 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        msg = super().__str__()
        return f"{self.ident}: {msg}" if msg else self.ident


class ParseError(ToricError):
    ident = "PARSE_ERROR"
    exit_code = 2


class ValidationError(ToricError):
    ident = "VALIDATION_ERROR"
    exit_code = 3


class NotStronglyConvex(ToricError):
    ident = "NOT_STRONGLY_CONVEX"
    exit_code = 4


class ZeroVector(ToricError):
    ident = "ZERO_VECTOR"
    exit_code = 5


class NotCovering(ToricError):
    ident = "NOT_COVERING"
    exit_code = 6


class ApexInHyperplane(ToricError):
    ident = "APEX_IN_HYPERPLANE"
    exit_code = 7


class NotInterior(ToricError):
    ident = "NOT_INTERIOR"
    exit_code = 8


class NotFullDim(ToricError):
    ident = "NOT_FULL_DIM"
    exit_code = 9


class NotAPermutation(ToricError):
    ident = "NOT_A_PERMUTATION"
    exit_code = 10


class NotContained(ToricError):
    ident = "NOT_CONTAINED"
    exit_code = 12


class NotAComplex(ToricError):
    ident = "NOT_A_COMPLEX"
    exit_code = 13


class NotQCartier(ToricError):
    ident = "NOT_Q_CARTIER"
    exit_code = 14


class NotComplete(ToricError):
    ident = "NOT_COMPLETE"
    exit_code = 15


class NotAmple(ToricError):
    ident = "NOT_AMPLE"
    exit_code = 16


class WrongDimension(ToricError):
    ident = "WRONG_DIMENSION"
    exit_code = 17


class InvalidShelling(ToricError):
    ident = "INVALID_SHELLING"
    exit_code = 18


class SizeGuard(ToricError):
    """Input exceeds the size guard and --force was not given."""

    ident = "SIZE_GUARD"
    exit_code = 19


class InvariantViolation(ToricError):
    """An identity the mathematics guarantees failed to hold: a bug, not
    bad input."""

    ident = "INVARIANT_VIOLATION"
    exit_code = 20

