"""Rational polyhedral cones and chamber decompositions.

Cones are stored in a canonical double description: the lex-sorted tuple of
primitive extreme rays together with the lex-sorted tuple of primitive facet
normals.  A cone that is not full dimensional also carries the +/- pair of
normals cutting out its linear span, which makes strict containment queries
return False for such cones without any special casing.

Only :func:`cone_from_rays` enumerates: it finds the facets of cone(V) among
the hyperplanes spanned by V.  A basis cone, the cone over d independent
vectors of a configuration, is simplicial and is not enumerated: its facet
opposite each vector is the kernel normal of the other d - 1, taken from the
table of (d - 1)-subset normals that also gives the configuration's spanned
hyperplanes.  For a full-dimensional pointed cone the
extreme rays of the dual are the facet normals and vice versa, so
:func:`dual_cone` swaps the two tuples (Ziegler 1995, section 1.4).  Every
other cone is cut from a full-dimensional cone that already carries both
descriptions, one hyperplane at a time: a split is one double-description
step (Motzkin et al. 1953; Fukuda-Prodon 1996) giving the half on the
normal's side, with the rays on that side, the facets still bounding it, and
the rays where 2-faces cross the hyperplane.

Cones, rays, normals and the elimination behind rank and kernel are all
integer (fraction-free, see :mod:`completeforms.lattice`); only a caller's
rational input point or rays meet :class:`fractions.Fraction`.  Rays and
points are ints or Fractions; a float or a bool, even in a zero ray, is
refused by the rational rule of :mod:`completeforms.lattice` rather than read
as a binary fraction.

The chamber decomposition is the chamber complex of the configuration W
(Billera-Filliman-Sturmfels 1990; Gelfand-Kapranov-Zelevinsky 1994): each
chamber is the intersection of the *basis* cones (cones over d linearly
independent vectors of W) that hold a generic point of it.  The complex is a
fan, walked across its walls as Groebner fans are (Fukuda-Jensen-Thomas
2007) from the chamber of one exact generic point, sum_i t^i w_i with t
above every |n . w|: across a wall f off the support boundary, the basis
cones not bounded by f stay and those bounded by -f that hold the wall's
rays join.  All of it is integer; ambient dimension is capped at 5, which
holds Picard rank 5.

Results are shared frozen records.  :func:`cone_from_rays` and
:func:`gkz_decomposition` check their input on every call, then look the
answer up in a bounded per-process memo keyed on the distinct primitive
vectors and the ambient dimension, so the spaces of one family, which share
a configuration, enumerate its cones and fan once.  A refusal is raised
again on every call; it is never memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientTooLarge,
    DimensionMismatch,
    InternalInconsistency,
    NotFullDimensional,
    NotPointed,
    ZeroVector,
)
from .lattice import _Record, _coerce_fraction, _require_int, _row_reduce

__all__ = [
    "RationalCone",
    "ChamberDecomposition",
    "primitive_vector",
    "cone_from_rays",
    "dual_cone",
    "gkz_decomposition",
]

Vec = tuple[int, ...]

# Bounds of the two memos.  Asking every query of two instances of each
# space kind, and three random fans, needs 18 distinct cones (basis cones
# are built from normals and never pass through the cone memo) and 7
# distinct fans; the bounds hold about fourteen and four such rounds.
_CONE_MEMO = 256
_FAN_MEMO = 32


def primitive_vector(v: Iterable) -> Vec:
    """Scale a nonzero rational vector to its primitive integer representative.

    Direction is preserved, so (2, -4) and (1, -2) map to the same output but
    (-1, 2) does not.

    >>> from fractions import Fraction
    >>> primitive_vector((Fraction(3, 2), Fraction(-9, 2)))
    (1, -3)
    """
    v = tuple(v)
    if all(type(x) is int for x in v):
        ints = v
    else:
        fracs = [_coerce_fraction(x) for x in v]
        denom = lcm(*(x.denominator for x in fracs))
        ints = [x.numerator * (denom // x.denominator) for x in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ZeroVector("zero vector %s has no primitive representative" % (v,))
    return tuple(x // g for x in ints)


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _rank(vectors: Sequence[Vec]) -> int:
    return len(_row_reduce([list(v) for v in vectors])[1])


def _kernel_basis(vectors: Sequence[Vec], dim: int) -> list[Vec]:
    """Primitive basis of {x : v . x == 0 for all v}, in a fixed order.

    The vectors are integer; the basis vector of free column ``fc`` has
    ``x[fc] = L`` with L the lcm of the pivots, which makes every other
    entry an integer.
    """
    rows, pivots = _row_reduce([list(v) for v in vectors])
    scale = lcm(*(rows[r][pc] for r, pc in enumerate(pivots)))
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        x = [0] * dim
        x[fc] = scale
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][fc] * scale // rows[r][pc]
        basis.append(primitive_vector(x))
    return basis


@dataclass(init=False, repr=False, eq=False)
class RationalCone(_Record):
    """A pointed rational polyhedral cone in canonical double description."""

    ambient_dim: int
    rays: tuple[Vec, ...]
    facet_normals: tuple[Vec, ...]

    @property
    def dimension(self) -> int:
        return _rank(self.rays) if self.rays else 0

    @property
    def is_full_dimensional(self) -> bool:
        return self.dimension == self.ambient_dim

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        """Membership test; with strict=True, interior membership.

        A cone of less than full dimension has empty interior, and its +/-
        span normals make every strict query come back False.
        """
        point = tuple(point)
        if len(point) != self.ambient_dim:
            raise DimensionMismatch(
                "point of length %d in ambient dimension %d" % (len(point), self.ambient_dim)
            )
        return self._holds(tuple(_coerce_fraction(x) for x in point), strict)

    def _holds(self, point: Sequence, strict: bool = False) -> bool:
        """:meth:`contains` for an exact point of the right length, unchecked."""
        for n in self.facet_normals:
            s = _dot(n, point)
            if s < 0 or (strict and s == 0):
                return False
        return True

    def intersection(self, other: "RationalCone") -> "RationalCone | None":
        """Intersection cone, or None when it is not full dimensional."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("cones live in different ambient spaces")
        if not (self.is_full_dimensional and other.is_full_dimensional):
            return None
        return _cut_all(self, other.facet_normals)

    def __str__(self) -> str:
        return "Cone(rays=%s)" % (", ".join(str(r) for r in self.rays),)


def _spanned_hyperplanes(
    vectors: Sequence[Vec], complement: list[Vec], dim: int
) -> Iterator[tuple[tuple[int, ...], Vec]]:
    """Yield each hyperplane spanned by ``vectors``: (index subset, primitive normal).

    The hyperplanes live in the span of ``vectors``, whose orthogonal
    complement has the basis ``complement``: each normal is the one kernel
    vector of s - 1 of the vectors together with the complement, s being the
    dimension of the span.  Dependent subsets are skipped; a normal spanned
    by several subsets is yielded once for each.
    """
    for subset in combinations(range(len(vectors)), dim - len(complement) - 1):
        kern = _kernel_basis([vectors[i] for i in subset] + complement, dim)
        if len(kern) == 1:
            yield subset, kern[0]


def cone_from_rays(rays: Iterable[Sequence], ambient_dim: int | None = None) -> RationalCone:
    """Build the canonical form of the cone spanned by the given rays.

    Raises NotPointed when the rays span a cone containing a line, and
    DimensionMismatch on inconsistent vector lengths or an ambient dimension
    below 1, which no rays and no ``ambient_dim`` give.  Redundant generators
    are dropped; the stored rays are exactly the extreme ones.  The input is
    checked on every call; the cone itself is memoised on its distinct
    primitive rays, so equal input gives one shared record.
    """
    raw = [tuple(r) for r in rays]
    if ambient_dim is None:
        ambient_dim = len(raw[0]) if raw else 0
    _require_int(ambient_dim=ambient_dim)
    if ambient_dim < 1:
        raise DimensionMismatch("a cone needs ambient dimension at least 1, got %d" % ambient_dim)
    for r in raw:
        if len(r) != ambient_dim:
            raise DimensionMismatch(
                "ray of length %d in ambient dimension %d" % (len(r), ambient_dim)
            )
    # the rational rule sees every ray, a zero one too, before zeros are dropped
    if not all(type(x) is int for r in raw for x in r):
        raw = [tuple(_coerce_fraction(x) for x in r) for r in raw]
    return _cone(tuple(dict.fromkeys(primitive_vector(r) for r in raw if any(r))), ambient_dim)


@lru_cache(maxsize=_CONE_MEMO)
def _cone(prim: tuple[Vec, ...], ambient_dim: int) -> RationalCone:
    """:func:`cone_from_rays` on checked, distinct, nonzero primitive rays."""
    if not prim:
        span_normals = [tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim)]
        normals = tuple(sorted(span_normals + [_neg(n) for n in span_normals]))
        return RationalCone(ambient_dim, (), normals)

    complement = _kernel_basis(prim, ambient_dim)
    candidates = set()
    for _, n in _spanned_hyperplanes(prim, complement, ambient_dim):
        signs = [_dot(n, r) for r in prim]
        if all(x >= 0 for x in signs):
            candidates.add(n)
        elif all(x <= 0 for x in signs):
            candidates.add(_neg(n))
    in_span = sorted(candidates)
    if _rank(in_span) < ambient_dim - len(complement):
        raise NotPointed("cone spanned by %s contains a line" % (list(prim),))
    extremes = [
        r
        for r in prim
        if _rank([n for n in in_span if _dot(n, r) == 0] + complement) >= ambient_dim - 1
    ]
    normals = in_span + complement + [_neg(w) for w in complement]
    return RationalCone(ambient_dim, tuple(sorted(extremes)), tuple(sorted(normals)))


def _basis_cone(
    w: Sequence[Vec], basis: tuple[int, ...], normals: dict[tuple[int, ...], Vec]
) -> RationalCone | None:
    """The simplicial cone over the vectors ``w[i]``, i in ``basis``; None when they are dependent.

    ``normals`` maps each independent (d - 1)-subset of indices to its
    primitive kernel normal.  The facet opposite ``w[i]`` is the normal of
    the other d - 1 vectors, facing ``w[i]``; it is missing, or vanishes on
    ``w[i]``, exactly when the basis is dependent.
    """
    facets = []
    for i in basis:
        n = normals.get(tuple(j for j in basis if j != i))
        s = _dot(n, w[i]) if n else 0
        if s == 0:
            return None
        facets.append(n if s > 0 else _neg(n))
    return RationalCone(len(basis), tuple(sorted(w[i] for i in basis)), tuple(sorted(facets)))


def dual_cone(cone: RationalCone) -> RationalCone:
    """Dual of a full-dimensional pointed cone: its rays and facet normals swapped."""
    if not cone.is_full_dimensional:
        raise NotFullDimensional(
            "dual implemented for full-dimensional cones only (dimension %d of %d)"
            % (cone.dimension, cone.ambient_dim)
        )
    return RationalCone(cone.ambient_dim, cone.facet_normals, cone.rays)


def _split(cone: RationalCone, normal: Vec) -> RationalCone | None:
    """The half of the cone where normal . x >= 0; None when it has no interior.

    One double-description step (Motzkin et al. 1953; Fukuda-Prodon 1996) on
    a full-dimensional cone and a primitive normal.  The half keeps the rays
    on its side of the hyperplane and adds the rays where the 2-faces of the
    cone cross it: a pair of rays strictly on opposite sides spans a 2-face
    when it shares at least d - 2 tight facets and no third ray is tight on
    all of them.  It keeps the old facets tight at some ray strictly on its
    side, and adds the hyperplane, facing inward.
    """
    signs = [_dot(normal, r) for r in cone.rays]
    if min(signs) >= 0:
        return cone
    if max(signs) <= 0:
        return None
    # tight[i]: bit j set when ray i lies on facet j
    tight = [
        sum(1 << j for j, f in enumerate(cone.facet_normals) if _dot(f, r) == 0)
        for r in cone.rays
    ]
    plus = [i for i, s in enumerate(signs) if s > 0]
    minus = [i for i, s in enumerate(signs) if s < 0]
    rays = [r for r, s in zip(cone.rays, signs) if s >= 0]
    kept = 0
    for p in plus:
        kept |= tight[p]
        for m in minus:
            common = tight[p] & tight[m]
            if common.bit_count() >= cone.ambient_dim - 2 and not any(
                t & common == common for i, t in enumerate(tight) if i != p and i != m
            ):
                rays.append(primitive_vector(
                    signs[p] * x - signs[m] * y for x, y in zip(cone.rays[m], cone.rays[p])
                ))
    facets = [f for j, f in enumerate(cone.facet_normals) if kept >> j & 1] + [normal]
    return RationalCone(cone.ambient_dim, tuple(sorted(rays)), tuple(sorted(facets)))


def _cut_all(cone: RationalCone, normals: Iterable[Vec]) -> RationalCone | None:
    """:func:`_split` by each normal in turn; None once it has no interior."""
    for n in normals:
        cone = _split(cone, n)
        if cone is None:
            return None
    return cone


@dataclass(init=False, repr=False, eq=False)
class ChamberDecomposition(_Record):
    """A support cone partitioned into full-dimensional chambers."""

    ambient_dim: int
    support: RationalCone
    chambers: tuple[RationalCone, ...]
    hyperplane_normals: tuple[Vec, ...]

    @property
    def chamber_count(self) -> int:
        return len(self.chambers)

    @property
    def rays(self) -> tuple[Vec, ...]:
        return tuple(sorted({r for c in self.chambers for r in c.rays}))


def gkz_decomposition(
    vectors: Iterable[Sequence], ambient_dim: int | None = None
) -> ChamberDecomposition:
    """Chamber decomposition of cone(W): the chamber complex of W (BFS 1990).

    Two interior points lie in the same chamber exactly when they lie in the
    same set of full-dimensional cones spanned by subsets of W.  By
    Caratheodory, the basis cones (d-subsets of W of full rank) that hold a
    point on no spanned hyperplane decide this, and its chamber is their
    intersection.  The walk starts at an exact generic point, a positive
    combination of W on no spanned hyperplane, and crosses every wall off
    the support boundary, by the rule in the module notes.  Ambient
    dimensions 1 to 5 are decomposed; above 5, AmbientTooLarge is raised.
    The decomposition is memoised on the distinct primitive vectors, after
    the rational rule, the zero-vector check and the dimension bounds have
    seen them, so equal configurations give one shared record.
    """
    w = tuple(dict.fromkeys(primitive_vector(v) for v in vectors))
    if not w:
        raise NotFullDimensional("the empty configuration spans no full-dimensional cone")
    if ambient_dim is None:
        ambient_dim = len(w[0])
    _require_int(ambient_dim=ambient_dim)
    if ambient_dim < 1:
        raise DimensionMismatch(
            "chamber decomposition needs ambient dimension at least 1, got %d" % ambient_dim
        )
    if ambient_dim > 5:
        raise AmbientTooLarge(
            "chamber decomposition capped at ambient dimension 5, got %d" % ambient_dim
        )
    return _chamber_complex(w, ambient_dim)


@lru_cache(maxsize=_FAN_MEMO)
def _chamber_complex(w: tuple[Vec, ...], ambient_dim: int) -> ChamberDecomposition:
    """:func:`gkz_decomposition` on checked, distinct primitive vectors."""
    support = cone_from_rays(w, ambient_dim)
    if not support.is_full_dimensional:
        raise NotFullDimensional("the configuration does not span the ambient space")

    # the normal of each independent (d - 1)-subset, computed once: it gives
    # the spanned hyperplanes and every facet of every basis cone
    normals = dict(_spanned_hyperplanes(w, [], ambient_dim))
    # each spanned hyperplane once, its normal's first nonzero entry positive
    hyperplanes = sorted({
        n if next(x for x in n if x) > 0 else _neg(n) for n in normals.values()
    })

    basis_cones = [
        cone
        for basis in combinations(range(len(w)), ambient_dim)
        if (cone := _basis_cone(w, basis, normals)) is not None
    ]
    # an exact generic point p = sum_i t^i w_i names the first chamber's basis
    # cones: p is a positive combination of W, and n . p is a nonzero
    # polynomial in t whose coefficients are below t, so p is on no hyperplane
    t = 1 + max(abs(_dot(n, v)) for n in hyperplanes for v in w)
    probe = tuple(sum(t**i * v[j] for i, v in enumerate(w)) for j in range(ambient_dim))
    queue = [tuple(i for i, cone in enumerate(basis_cones) if cone._holds(probe))]
    chambers: dict[tuple[int, ...], RationalCone] = {}
    while queue:
        signature = queue.pop()
        if signature in chambers:
            continue
        # the first basis cone, cut by each other wall once
        first = basis_cones[signature[0]]
        walls = dict.fromkeys(n for i in signature[1:] for n in basis_cones[i].facet_normals)
        chamber = _cut_all(first, [n for n in walls if n not in first.facet_normals])
        if chamber is None:
            raise InternalInconsistency("the chamber of basis cones %s collapsed" % (signature,))
        chambers[signature] = chamber
        for f in chamber.facet_normals:
            if f in support.facet_normals:
                continue
            # across the wall f: the basis cones not bounded by f stay, and
            # those bounded by -f that hold the facet's rays join
            facet = [r for r in chamber.rays if _dot(f, r) == 0]
            back = _neg(f)
            across = [i for i in signature if f not in basis_cones[i].facet_normals]
            across += [i for i, cone in enumerate(basis_cones)
                       if back in cone.facet_normals and all(map(cone._holds, facet))]
            queue.append(tuple(sorted(across)))

    ordered = tuple(sorted(chambers.values(), key=lambda c: c.rays))
    return ChamberDecomposition(ambient_dim, support, ordered, tuple(hyperplanes))
