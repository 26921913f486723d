"""Rational polyhedral cones and chamber decompositions.

Cones are stored in a canonical double description: the lex-sorted tuple of
primitive extreme rays together with the lex-sorted tuple of primitive facet
normals.  A cone that is not full dimensional also carries the +/- pair of
normals cutting out its linear span, which makes strict containment queries
return False for such cones without any special casing.

Only :func:`cone_from_rays` enumerates: it finds the facets of cone(V) among
the hyperplanes spanned by V.  Every other description is its transpose.  For
a full-dimensional pointed cone the extreme rays of the dual are the facet
normals and vice versa, so :func:`dual_cone` swaps the two tuples.  The cone
{x : N.x >= 0} of a set of normals N spanning the ambient space has interior
exactly when cone(N) is pointed (Gordan's theorem), and it is then the dual
of cone(N) (Fukuda-Prodon 1996; Ziegler 1995, section 1.4).

Cones, rays, normals and the elimination behind rank and kernel are all
integer (fraction-free, see :mod:`completeforms.lattice`); only a caller's
rational input point or rays meet :class:`fractions.Fraction`.

The chamber decomposition is the chamber complex of the configuration W
(Billera-Filliman-Sturmfels 1990; Gelfand-Kapranov-Zelevinsky 1994): slice
the support cone by every hyperplane spanned by W, then merge the resulting
cells into maximal chambers, the chamber of a cell being the intersection of
the *basis* cones (cones over d linearly independent vectors of W) that
contain it.  Everything is exact; ambient dimension is capped at 4, far
beyond what the applications here need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientTooLarge,
    DimensionMismatch,
    InternalInconsistency,
    NotFullDimensional,
    NotPointed,
)
from .lattice import _row_reduce

__all__ = [
    "RationalCone",
    "ChamberDecomposition",
    "primitive_vector",
    "cone_from_rays",
    "dual_cone",
    "gkz_decomposition",
]

Vec = tuple[int, ...]


def primitive_vector(v: Iterable) -> Vec:
    """Scale a nonzero rational vector to its primitive integer representative.

    Direction is preserved, so (2, -4) and (1, -2) map to the same output but
    (-1, 2) does not.

    >>> primitive_vector((Fraction(3, 2), Fraction(-9, 2)))
    (1, -3)
    """
    v = tuple(v)
    if all(isinstance(x, int) for x in v):
        ints = v
    else:
        fracs = [Fraction(x) for x in v]
        denom = lcm(*(x.denominator for x in fracs))
        ints = [int(x * denom) for x in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


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


@dataclass(frozen=True)
class RationalCone:
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
        if len(tuple(point)) != self.ambient_dim:
            raise DimensionMismatch(
                "point of length %d in ambient dimension %d" % (len(tuple(point)), self.ambient_dim)
            )
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
        return _cone_from_inequalities(
            self.facet_normals + other.facet_normals, self.ambient_dim
        )

    def __str__(self) -> str:
        return "Cone(rays=%s)" % (", ".join(str(r) for r in self.rays),)


def _spanned_hyperplanes(vectors: Sequence[Vec], complement: list[Vec], dim: int) -> Iterator[Vec]:
    """Yield the primitive normal of each hyperplane spanned by ``vectors``.

    The hyperplanes live in the span of ``vectors``, whose orthogonal
    complement has the basis ``complement``: each normal is the one kernel
    vector of s - 1 of the vectors together with the complement, s being the
    dimension of the span.  Dependent subsets are skipped; a normal spanned
    by several subsets is yielded once for each.
    """
    for subset in combinations(vectors, dim - len(complement) - 1):
        kern = _kernel_basis(list(subset) + complement, dim)
        if len(kern) == 1:
            yield kern[0]


def cone_from_rays(rays: Iterable[Sequence], ambient_dim: int | None = None) -> RationalCone:
    """Build the canonical form of the cone spanned by the given rays.

    Raises NotPointed when the rays span a cone containing a line, and
    DimensionMismatch on inconsistent vector lengths.  Redundant generators
    are dropped; the stored rays are exactly the extreme ones.
    """
    raw = [tuple(r) for r in rays]
    if ambient_dim is None:
        if not raw:
            raise ValueError("need ambient_dim for a cone with no rays")
        ambient_dim = len(raw[0])
    for r in raw:
        if len(r) != ambient_dim:
            raise DimensionMismatch(
                "ray of length %d in ambient dimension %d" % (len(r), ambient_dim)
            )
    prim = list(dict.fromkeys(primitive_vector(r) for r in raw if any(r)))

    if not prim:
        span_normals = [tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim)]
        normals = tuple(sorted(span_normals + [_neg(n) for n in span_normals]))
        return RationalCone(ambient_dim, (), normals)

    complement = _kernel_basis(prim, ambient_dim)
    candidates = set()
    for n in _spanned_hyperplanes(prim, complement, ambient_dim):
        signs = [_dot(n, r) for r in prim]
        if all(x >= 0 for x in signs):
            candidates.add(n)
        elif all(x <= 0 for x in signs):
            candidates.add(_neg(n))
    in_span = sorted(candidates)
    if _rank(in_span) < ambient_dim - len(complement):
        raise NotPointed("cone spanned by %s contains a line" % (prim,))
    extremes = [
        r
        for r in prim
        if _rank([n for n in in_span if _dot(n, r) == 0] + complement) >= ambient_dim - 1
    ]
    normals = in_span + complement + [_neg(w) for w in complement]
    return RationalCone(ambient_dim, tuple(sorted(extremes)), tuple(sorted(normals)))


def dual_cone(cone: RationalCone) -> RationalCone:
    """Dual of a full-dimensional pointed cone: its rays and facet normals swapped."""
    if not cone.is_full_dimensional:
        raise NotFullDimensional(
            "dual implemented for full-dimensional cones only (dimension %d of %d)"
            % (cone.dimension, cone.ambient_dim)
        )
    return RationalCone(cone.ambient_dim, cone.facet_normals, cone.rays)


def _cone_from_inequalities(normals: Sequence[Vec], ambient_dim: int) -> RationalCone | None:
    """Cone {x : n . x >= 0 for all n}, or None when it has no interior.

    It has interior exactly when cone(normals) is pointed, and is then the
    dual of that cone.  This needs the normals to span the ambient space,
    and they do: every caller passes the facet normals of RationalCones,
    which span it (a cone of less than full dimension carries the +/- normals
    of its span).
    """
    try:
        polar = cone_from_rays(normals, ambient_dim)
    except NotPointed:
        return None
    return RationalCone(ambient_dim, polar.facet_normals, polar.rays)


@dataclass(frozen=True)
class ChamberDecomposition:
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
    same set of full-dimensional cones spanned by subsets of W.  Implemented
    by slicing the support along every hyperplane spanned by W and taking, for
    each cell, the intersection of the basis cones (d-subsets of W of full
    rank) containing an interior point of it.  Basis cones suffice: that point
    lies on no spanned hyperplane, so by Caratheodory it lies in cone(S) only
    if it lies in cone(B) for some basis B in S.  Cells with equal basis-cone
    signatures give one chamber.
    """
    w = list(dict.fromkeys(primitive_vector(v) for v in vectors))
    if ambient_dim is None:
        ambient_dim = len(w[0]) if w else 0
    if ambient_dim > 4:
        raise AmbientTooLarge(
            "chamber decomposition capped at ambient dimension 4, got %d" % ambient_dim
        )
    support = cone_from_rays(w, ambient_dim)
    if not support.is_full_dimensional:
        raise NotFullDimensional("the configuration does not span the ambient space")

    # each spanned hyperplane once, its normal's first nonzero entry positive
    hyperplanes = sorted({
        n if next(x for x in n if x) > 0 else _neg(n)
        for n in _spanned_hyperplanes(w, [], ambient_dim)
    })

    cells = [support]
    for n in hyperplanes:
        new_cells = []
        for cell in cells:
            sides = [_dot(n, r) for r in cell.rays]
            if all(x >= 0 for x in sides) or all(x <= 0 for x in sides):
                new_cells.append(cell)
                continue
            # rays lie strictly on both sides, so both halves have interior
            for half in (n, _neg(n)):
                new_cells.append(_cone_from_inequalities(cell.facet_normals + (half,), ambient_dim))
        cells = new_cells

    basis_cones = [
        cone_from_rays(basis, ambient_dim)
        for basis in combinations(w, ambient_dim)
        if _rank(basis) == ambient_dim
    ]
    chambers: dict[tuple[Vec, ...], RationalCone] = {}
    signatures: set[tuple[int, ...]] = set()
    for cell in cells:
        probe = tuple(sum(col) for col in zip(*cell.rays))
        signature = tuple(i for i, cone in enumerate(basis_cones) if cone.contains(probe))
        if signature in signatures:
            continue
        signatures.add(signature)
        walls = [n for i in signature for n in basis_cones[i].facet_normals]
        chamber = _cone_from_inequalities(walls, ambient_dim)
        if chamber is None:
            raise InternalInconsistency("chamber collapsed around %s" % (probe,))
        chambers.setdefault(chamber.rays, chamber)

    ordered = tuple(chambers[k] for k in sorted(chambers))
    return ChamberDecomposition(ambient_dim, support, ordered, tuple(hyperplanes))
