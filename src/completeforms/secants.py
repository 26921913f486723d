"""Every closed form of the package: secant invariants, rank counts and primality.

Each space in :mod:`completeforms.spaces` blows up a secant variety of a Segre
or a Veronese embedding (matrices or symmetric matrices of bounded rank).  Its
dimension and degree live here, with the rank counts over F_q that check the
enumeration in :mod:`completeforms.determinantal`.  Every degree and count is
one exact product of Fractions, checked integral.  Every integer parameter
passes the int rule of :mod:`completeforms.lattice`.  This module needs no
numpy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, prod

from .errors import InternalInconsistency, NonPrimeField
from .lattice import _Record, _require_int

__all__ = [
    "SecantInvariants",
    "segre_secant_invariants",
    "veronese_secant_invariants",
    "rank_count_closed_form",
    "symmetric_rank_count_closed_form",
]


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InternalInconsistency("%s must be integral, got %s" % (what, value))
    return int(value)


@dataclass(init=False, repr=False, eq=False)
class SecantInvariants(_Record):
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
    space of matrices up to scale, and the degree product is empty.
    """
    _require_int(n=n, m=m, h=h)
    if not (1 <= h <= n + 1 <= m + 1):
        raise ValueError("need 1 <= h <= n+1 <= m+1, got h=%d n=%d m=%d" % (h, n, m))
    ambient = (n + 1) * (m + 1) - 1
    dim = h * (m + n + 2 - h) - 1
    deg = prod(
        Fraction(comb(m + 1 + i, n - i), comb(m + 1 - h + i, n - h - i)) for i in range(n + 1 - h)
    )
    degree = _integral(deg, "degree product")
    return SecantInvariants("segre_secant", n, m, h, dim, degree, ambient, h == n + 1)


def veronese_secant_invariants(n: int, h: int) -> SecantInvariants:
    """Invariants of the h-th secant of the degree-two embedding of P^n.

    Same contract as the rectangular case with symmetric matrices: the
    ambient space is quadratic forms in n+1 variables up to scale.
    """
    _require_int(n=n, h=h)
    if not (1 <= h <= n + 1):
        raise ValueError("need 1 <= h <= n+1, got h=%d n=%d" % (h, n))
    ambient = (n + 1) * (n + 2) // 2 - 1
    dim = _integral(Fraction(2 * n * h - h * h + 3 * h - 2, 2), "secant dimension")
    deg = prod(
        Fraction(comb(n + 1 + i, n + 1 - h - i), comb(2 * i + 1, i)) for i in range(n + 1 - h)
    )
    degree = _integral(deg, "degree product")
    return SecantInvariants("veronese_secant", n, None, h, dim, degree, ambient, h == n + 1)


# The least composite that is a strong pseudoprime to every prime base up to 41
# (Sorenson and Webster 2017); up to 37 it would be 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BASES_EXACT_BELOW = 3317044064679887385961981


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41, exact for q < 3.3e24."""
    _require_int(q=q)
    if q >= _PRIME_BASES_EXACT_BELOW:
        raise ValueError(
            "primality is decided only below %d, got %d" % (_PRIME_BASES_EXACT_BELOW, q)
        )
    if q < 2 or any(q % a == 0 for a in _PRIME_BASES):
        return q in _PRIME_BASES
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 == d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (q - 1) >> s, q)
        if x == 1:
            continue
        for _ in range(s):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


def rank_count_closed_form(a: int, b: int, r: int, q: int) -> int:
    """Number of a x b matrices of rank exactly r over F_q, by the classical count."""
    _require_int(a=a, b=b, r=r, q=q)
    if not is_prime(q):
        raise NonPrimeField("%d is not prime" % q)
    if r < 0 or r > min(a, b):
        return 0
    total = prod(Fraction((q**a - q**i) * (q**b - q**i), q**r - q**i) for i in range(r))
    return _integral(total, "rank count")


def symmetric_rank_count_closed_form(n: int, r: int, q: int) -> int:
    """Number of symmetric n x n matrices of rank exactly r over F_q.

    MacWilliams, "Orthogonal matrices over finite fields", Amer. Math.
    Monthly 76 (1969): prod_{i=1}^{r//2} q^(2i) / (q^(2i) - 1) times
    prod_{i=0}^{r-1} (q^(n-i) - 1).
    """
    _require_int(n=n, r=r, q=q)
    if not is_prime(q):
        raise NonPrimeField("%d is not prime" % q)
    if r < 0 or r > n:
        return 0
    halves = [Fraction(q ** (2 * i), q ** (2 * i) - 1) for i in range(1, r // 2 + 1)]
    total = prod(halves + [q ** (n - i) - 1 for i in range(r)])
    return _integral(total, "symmetric rank count")
