"""Shared exception types.

Every precondition failure in this package raises one of the classes below so
that callers (and the command line front end) can distinguish "you passed bad
parameters" from "this object exists but the requested data is not known".
"""


class DimensionMismatch(ValueError):
    """Vectors or index sets whose sizes do not line up."""


class UnderDetermined(ValueError):
    """A linear system with a positive-dimensional solution space."""


class NotPointed(ValueError):
    """Ray generators that span a cone containing a line."""


class NotFullDimensional(ValueError):
    """A cone operation that needs a full-dimensional cone got a degenerate one."""


class ZeroVector(ValueError):
    """A zero vector where a direction is needed: it has no primitive representative."""


class AmbientTooLarge(ValueError):
    """Chamber decompositions are only supported in ambient dimension <= 4."""


class IndexOutOfRange(IndexError):
    """A row or column label outside the declared matrix format."""


class TooLarge(ValueError):
    """A symbolic determinant beyond the 5x5 cap, or a tangent-cone walk beyond its term cap."""


class NonPrimeField(ValueError):
    """Finite-field enumeration requested over a non-prime modulus."""


class BudgetExceeded(ValueError):
    """An exhaustive enumeration whose size exceeds the fixed budget."""


class CoordinatesUnknown(LookupError):
    """Divisor class coordinates requested for a space without a pinned basis."""


class OutOfScope(ValueError):
    """A query this package has no recorded answer for."""


class InternalInconsistency(RuntimeError):
    """An invariant of this package's own computation failed: a bug, not bad input."""
