"""Known answers for every benchmark case, sharing no code with ``src/``.

- Rank counts: the classical count of a x b matrices of rank r over F_q,
  and MacWilliams' count of symmetric n x n matrices of rank r
  ("Orthogonal matrices over finite fields", Amer. Math. Monthly 76, 1969).
- Lemma and split tallies: closed forms derived from those counts (see
  ``split_counts``).
- Catalog facts: the chamber-count, positivity, class-rank and orbit-group
  tables, copied as literals from tests/test_acceptance.py and
  tests/test_spaces.py.
- Fans: a basis-cone signature check.  Two generic points lie in the same
  chamber exactly when they lie in the same set of basis cones; membership
  is decided here with Cramer's rule on integers.

Nothing in this module imports the program.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm, prod

from cases import CLI_SPACE, det

# ---------------------------------------------------------------- rank counts


def rank_count(a: int, b: int, r: int, q: int) -> int:
    """Number of a x b matrices over F_q of rank exactly r."""
    if r < 0 or r > min(a, b):
        return 0
    num = prod((q ** a - q ** i) * (q ** b - q ** i) for i in range(r))
    den = prod(q ** r - q ** i for i in range(r))
    return num // den


def symmetric_rank_count(n: int, r: int, q: int) -> int:
    """Number of symmetric n x n matrices over F_q (q odd or 2) of rank r.

    N(n, r) = prod_{i=1}^{floor(r/2)} q^{2i} / (q^{2i} - 1)
              * prod_{i=0}^{r-1} (q^{n-i} - 1).
    """
    if r < 0 or r > n:
        return 0
    value = Fraction(prod(q ** (n - i) - 1 for i in range(r)))
    for i in range(1, r // 2 + 1):
        value *= Fraction(q ** (2 * i), q ** (2 * i) - 1)
    return int(value)


def general_linear_order(k: int, q: int) -> int:
    return prod(q ** k - q ** i for i in range(k))


def first_rows_dependent(a: int, b: int, k: int, q: int) -> int:
    """a x b matrices of rank <= k whose first k rows have rank < k.

    Sum over the rank s of the first k rows: the remaining a-k rows add t-s
    to the rank through their image in F_q^b modulo the row space (of
    dimension b-s), and are free inside the row space.
    """
    total = 0
    for s in range(k):
        extend = sum(rank_count(a - k, b - s, t - s, q) for t in range(s, k + 1))
        total += rank_count(k, b, s, q) * extend * q ** (s * (a - k))
    return total


def split_counts(a: int, b: int, k: int, q: int, symmetric: bool) -> dict:
    """Tallies of the component split on the rank <= k locus.

    A matrix whose leading k x k block A is invertible has rank >= k, and has
    rank exactly k when its trailing block is the Schur product C A^-1 B, so
    det_zero = |rank <= k| - |GL_k| q^(k(a-k) + k(b-k)).  Dependent first
    rows or columns force a zero leading minor, so h1 and h2 lie inside
    det_zero, and the split says det_zero = |h1 u h2|, which gives the
    overlap.  In the symmetric case A ranges over invertible symmetric
    blocks, B is free and C = B^T; h1 and h2 are only checked to agree.
    """
    if symmetric:
        n = a
        locus = sum(symmetric_rank_count(n, r, q) for r in range(k + 1))
        det_zero = locus - symmetric_rank_count(k, k, q) * q ** (k * (n - k))
        return {"matrices": q ** (n * (n + 1) // 2), "rank_locus": locus, "det_zero": det_zero}
    locus = sum(rank_count(a, b, r, q) for r in range(k + 1))
    det_zero = locus - general_linear_order(k, q) * q ** (k * (a - k) + k * (b - k))
    h1 = first_rows_dependent(a, b, k, q)
    h2 = first_rows_dependent(b, a, k, q)
    return {
        "matrices": q ** (a * b),
        "rank_locus": locus,
        "det_zero": det_zero,
        "h1": h1,
        "h2": h2,
        "overlap": h1 + h2 - det_zero,
    }


def tangent_minors(n: int, m: int, h: int, k: int) -> int:
    """Minors of size h+1 that contain the rank-k template rows and columns."""
    if h + 1 > min(n, m) + 1:
        return 0
    return comb(n + 1 - k, h + 1 - k) * comb(m + 1 - k, h + 1 - k)


# ---------------------------------------------------------------- catalog tables
#
# Copied from tests/test_acceptance.py (criteria 01, 02, 07, 08, 09, 10) and
# tests/test_spaces.py (CHAMBER_COUNTS, the frozen ranks, the orbit cases
# and the positivity tables).  Keys are (family, parameter tuple) with the
# parameters in the order of cases.CLI_SPACE.

CHAMBER_COUNTS = {}
for _n in range(3, 7):
    CHAMBER_COUNTS[("Q", (_n, 3))] = 5
for _n in range(2, 5):
    for _m in range(_n, 5):
        CHAMBER_COUNTS[("C", (_n, _m, 2))] = 3
for _n in range(3, 7):
    CHAMBER_COUNTS[("secV", (_n, 4, 2))] = 9
for _n in range(2, 7):
    CHAMBER_COUNTS[("mbar-p", (_n,))] = 3
CHAMBER_COUNTS.update({
    ("Q", (7, 3)): 5, ("Q", (2, 3)): 3,
    ("C", (2, 5, 2)): 3, ("C", (1, 3, 2)): 2, ("C", (1, 1, 2)): 1, ("C", (2, 4, 1)): 1,
    ("secV", (2, 3, 1)): 3, ("secV", (6, 3, 1)): 3, ("secV", (1, 3, 1)): 1,
    ("mbar-p", (1,)): 1,
    ("mbar-pxp", (1, 1)): 1, ("mbar-pxp", (1, 4)): 2, ("mbar-pxp", (3, 4)): 3,
})

POSITIVITY = {}
for _n in range(1, 13):
    _label = "Fano" if _n <= 6 else "WeakFano" if _n == 7 else "LogFanoNumerical"
    POSITIVITY[("secV", (_n, 3, 1))] = _label
    POSITIVITY[("mbar-p", (_n,))] = _label
POSITIVITY[("Q", (2, 3))] = "Fano"
for _n in range(3, 10):
    POSITIVITY[("Q", (_n, 3))] = "WeakFano" if _n == 3 else "Fano"
for _n in range(3, 11):
    POSITIVITY[("secV", (_n, 4, 2))] = "Fano" if _n <= 5 else "WeakFano" if _n == 6 else "LogFanoNumerical"
for _n in range(1, 7):
    for _m in range(_n, 7):
        POSITIVITY[("C", (_n, _m, 2))] = "Fano"
        POSITIVITY[("mbar-pxp", (_n, _m))] = "Fano"

PICARD_RANKS = {}
for _n in range(1, 7):
    for _m in range(_n, 7):
        for _h in range(1, _n + 2):
            PICARD_RANKS[("C", (_n, _m, _h))] = _h + 1 if _h <= _n else _h if _n < _m else _h - 1
    for _h in range(1, _n + 2):
        PICARD_RANKS[("Q", (_n, _h))] = _h if _h <= _n else _h - 1
PICARD_RANKS.update({
    ("secS", (3, 5, 3, 1)): 3, ("secS", (3, 3, 4, 3)): 3, ("secS", (3, 5, 4, 2)): 3,
    ("secV", (4, 3, 1)): 2, ("secV", (4, 5, 4)): 4, ("secV", (4, 5, 3)): 4,
    ("mbar-p", (4,)): 2, ("mbar-pxp", (4, 4)): 3, ("mbar-gr", (2,)): 2,
})

# (free rank, invariant factors) of the dense orbit's Picard group.
ORBIT_GROUPS = {}
for _n in range(1, 9):
    for _m in (_n + 1, _n + 2):
        for _h in range(1, _n + 1):
            ORBIT_GROUPS[("C", (_n, _m, _h))] = (2, ())
    ORBIT_GROUPS[("C", (_n, _n + 1, _n + 1))] = (1, ())
    ORBIT_GROUPS[("C", (_n, _n, _n + 1))] = (0, (_n + 1,))
    for _h in range(1, _n + 1):
        ORBIT_GROUPS[("Q", (_n, _h))] = (1, () if _h % 2 == 1 else (2,))
    ORBIT_GROUPS[("Q", (_n, _n + 1))] = (0, (_n + 1,))

# Refusals the tests pin, per query and family.
REFUSALS = {
    "orbit_picard_group": {"secS": "OutOfScope", "secV": "OutOfScope", "mbar-p": "OutOfScope"},
    "mori_chambers": {"mbar-gr": "OutOfScope", "secS": "CoordinatesUnknown"},
    "classify_positivity": {"mbar-gr": "OutOfScope"},
}


def family_key(family: str, params: dict) -> tuple:
    name, order = CLI_SPACE[family]
    return name, tuple(params[k] for k in order)


def orbit_text(free_rank: int, torsion: tuple) -> str:
    """The rendering used by tests/test_spaces.py: 'Z^2', 'Z', 'Z/4', 'Z/2 + Z'."""
    parts = ["Z/%d" % t for t in torsion]
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append("Z^%d" % free_rank)
    return " + ".join(parts) if parts else "0"


def space_title(name: str, values: tuple) -> str:
    """The space name the CLI prints, as the goldens show it."""
    if name in ("secS", "secV"):
        return "%s(%s;k=%d)" % (name, ",".join(map(str, values[:-1])), values[-1])
    return "%s(%s)" % (name, ",".join(map(str, values)))


# ---------------------------------------------------------------- fans


def integer_vector(v) -> tuple[int, ...]:
    """The primitive integer vector on the ray through a rational vector."""
    fracs = [Fraction(x) for x in v]
    scale = lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _normal(vectors) -> tuple[int, ...]:
    """Generalized cross product of d-1 vectors in dimension d."""
    d = len(vectors[0])
    return tuple(
        (-1) ** (d - 1 + i) * det([v[:i] + v[i + 1:] for v in vectors]) for i in range(d)
    )


class Fan:
    """Basis-cone signatures of points relative to a vector configuration."""

    def __init__(self, vectors):
        self.vectors = [integer_vector(v) for v in vectors]
        self.dim = len(self.vectors[0])
        self.bases = []
        for sub in itertools.combinations(self.vectors, self.dim):
            d = det(sub)
            if d:
                self.bases.append((sub, d))
        self.walls = []
        for sub in itertools.combinations(self.vectors, self.dim - 1):
            n = _normal([list(v) for v in sub])
            if any(n):
                self.walls.append(n)

    def generic(self, point) -> bool:
        return all(_dot(n, point) != 0 for n in self.walls)

    def signature(self, point) -> frozenset:
        """Indices of the basis cones holding the point in their interior."""
        inside = []
        for index, (basis, d) in enumerate(self.bases):
            ok = True
            for j in range(self.dim):
                replaced = list(basis)
                replaced[j] = point
                # Cramer: coefficient j is det(replaced) / d
                if det(replaced) * d <= 0:
                    ok = False
                    break
            if ok:
                inside.append(index)
        return frozenset(inside)


def _positive_combination(vectors, dim: int, rng: random.Random) -> tuple[int, ...]:
    weights = [rng.randint(1, 1000) for _ in vectors]
    return tuple(sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(dim))


def _inside(point, facets) -> bool:
    return all(_dot(n, point) > 0 for n in facets)


def check_fan(vectors, chambers, rng: random.Random, samples: int = 48) -> list[str]:
    """Problems with a claimed chamber decomposition of cone(vectors).

    ``chambers`` is a list of (rays, facet_normals) integer tuples.  Checks:
    the rays satisfy their own facet inequalities; a generic interior point
    of each chamber has a nonempty signature that no other chamber has; and
    generic random points of the support lie in exactly one chamber, whose
    signature they share.
    """
    fan = Fan(vectors)
    problems = []
    signatures = []
    for rays, facets in chambers:
        if any(_dot(n, r) < 0 for n in facets for r in rays):
            problems.append("chamber rays violate its own facets")
            continue
        point = None
        for _ in range(64):
            candidate = _positive_combination(rays, fan.dim, rng)
            if fan.generic(candidate) and _inside(candidate, facets):
                point = candidate
                break
        if point is None:
            problems.append("no generic interior point in chamber %s" % (rays,))
            continue
        signatures.append(fan.signature(point))
    if any(not s for s in signatures):
        problems.append("a chamber lies outside every basis cone")
    if len(set(signatures)) != len(signatures):
        problems.append("two chambers share a basis-cone signature")
    if problems:
        return problems
    drawn = 0
    while drawn < samples:
        point = _positive_combination(fan.vectors, fan.dim, rng)
        if not fan.generic(point) or any(
            _dot(n, point) == 0 for _, facets in chambers for n in facets
        ):
            continue
        drawn += 1
        holders = [i for i, (_, facets) in enumerate(chambers) if _inside(point, facets)]
        if len(holders) != 1:
            return ["point %s lies in %d chambers" % (point, len(holders))]
        if fan.signature(point) != signatures[holders[0]]:
            return ["point %s has another signature than its chamber" % (point,)]
    return []
