"""Dimension and degree of the secant varieties behind every catalog space.

Each space in :mod:`completeforms.spaces` is a blow-up of a secant variety of
a Segre embedding (rectangular matrices of bounded rank) or of a Veronese
embedding (symmetric matrices of bounded rank), so these two formulas are the
one home of its dimension.  The products are computed as Fractions and
checked integral.  This module needs no numpy: the catalog imports it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb

from .errors import InternalInconsistency

__all__ = [
    "SecantInvariants",
    "segre_secant_invariants",
    "veronese_secant_invariants",
]


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InternalInconsistency("%s must be integral, got %s" % (what, value))
    return int(value)


@dataclass(frozen=True)
class SecantInvariants:
    """Dimension and degree of a secant locus inside its ambient projective space."""

    kind: str
    n: int
    m: int | None
    h: int
    dimension: int
    degree: int
    ambient_dimension: int
    fills_ambient: bool

    @property
    def codimension(self) -> int:
        return self.ambient_dimension - self.dimension

    def to_dict(self) -> dict:
        return asdict(self)


def segre_secant_invariants(n: int, m: int, h: int) -> SecantInvariants:
    """Invariants of the h-th secant of a rank-one locus of (n+1) x (m+1) matrices.

    Requires 1 <= h <= n+1 <= m+1.  At h = n+1 the locus fills the ambient
    space of matrices up to scale.
    """
    if not (1 <= h <= n + 1 <= m + 1):
        raise ValueError("need 1 <= h <= n+1 <= m+1, got h=%d n=%d m=%d" % (h, n, m))
    ambient = (n + 1) * (m + 1) - 1
    dim = h * (m + n + 2 - h) - 1
    if h == n + 1:
        degree = 1
        fills = True
    else:
        deg = Fraction(1)
        for i in range(n - h + 1):
            deg *= Fraction(comb(m + 1 + i, n - i), comb(m + 1 - h + i, n - h - i))
        degree = _integral(deg, "degree product")
        fills = False
    return SecantInvariants("segre_secant", n, m, h, dim, degree, ambient, fills)


def veronese_secant_invariants(n: int, h: int) -> SecantInvariants:
    """Invariants of the h-th secant of the degree-two embedding of P^n.

    Same contract as the rectangular case with symmetric matrices: the
    ambient space is quadratic forms in n+1 variables up to scale.
    """
    if not (1 <= h <= n + 1):
        raise ValueError("need 1 <= h <= n+1, got h=%d n=%d" % (h, n))
    ambient = (n + 1) * (n + 2) // 2 - 1
    dim = _integral(Fraction(2 * n * h - h * h + 3 * h - 2, 2), "secant dimension")
    if h == n + 1:
        degree = 1
        fills = True
    else:
        deg = Fraction(1)
        for i in range(n - h + 1):
            deg *= Fraction(comb(n + 1 + i, n + 1 - h - i), comb(2 * i + 1, i))
        degree = _integral(deg, "degree product")
        fills = False
    return SecantInvariants("veronese_secant", n, None, h, dim, degree, ambient, fills)
