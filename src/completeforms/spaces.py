"""Catalog of compactified spaces of matrices and quadrics up to scale.

Each space kind below is a smooth projective compactification of a family of
linear or quadratic forms: two-sided collineation spaces, complete quadrics,
iterated blow-ups of secant varieties of Segre and Veronese embeddings, and
three flavors of genus-zero degree-two mapping spaces that coincide with
them.  A :class:`SpaceModel` packages what the package knows about one space:

* numerical invariants (dimension, Picard/class rank),
* named divisor classes with exact rational coordinates when a small-rank
  coordinate model is available,
* generating labels for the effective, nef, and (when known) moving cones,
* the anticanonical class and a positivity classification,
* the symbolic automorphism group.

Coordinates exist for the rank <= 3 models that the cone machinery can chew
on.  Every other kind still builds a model, it just answers
``CoordinatesUnknown``/``OutOfScope`` for the coordinate-dependent queries.

Every complete-form space is a blow-up of a secant variety of a Segre or
Veronese embedding, and every degree-two mapping space either coincides with
one of them (its *twin*: ``mbar-p`` with ``secV(n,3;k=1)``, ``mbar-pxp`` with
``C(n,m,2)``) or double-covers one (its *cover*: ``mbar-gr`` over
``secV(n,4;k=2)``).  So a kind is a handful of facts, held in one entry of
the private kind table ``_KINDS``: its command line name, the model builder,
the secant variety (which gives the dimension, see
:mod:`completeforms.secants`) and the automorphism rule, or else the twin
that supplies both, the cover, and the two values the one parameter rule
reads (the lowest ``n`` and an admitted degenerate tuple).  The parameter
letters are the kind's dataclass fields.  Everything else a kind knows, such
as its orbit Picard relations or comparison dictionary, is written by its
model builder.  Adding a kind means adding its dataclass and one table entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .cones import ChamberDecomposition, RationalCone, cone_from_rays, gkz_decomposition
from .errors import CoordinatesUnknown, InternalInconsistency, OutOfScope
from .groups import (
    GroupDescriptor,
    GroupProduct,
    PGL,
    SemidirectLeft,
    SemidirectRight,
    SwapGroup,
)
from .lattice import (
    AbelianGroupDescriptor,
    IntegerMatrix,
    _coerce_fraction,
    cokernel,
    solve_rational,
)
from .reports import VerificationReport
from .secants import (
    SecantInvariants,
    _require_int,
    segre_secant_invariants,
    veronese_secant_invariants,
)

__all__ = [
    "Collineations",
    "Quadrics",
    "SegreBlowup",
    "VeroneseBlowup",
    "KontsevichP",
    "KontsevichPxP",
    "KontsevichGr",
    "SpaceKind",
    "DivisorClass",
    "SpaceModel",
    "PositivityClass",
    "ComparisonDictionary",
    "DictionaryEntry",
    "build_model",
    "divisor_classes",
    "orbit_picard_group",
    "effective_cone",
    "nef_cone",
    "moving_cone",
    "mori_chambers",
    "anticanonical_class",
    "classify_positivity",
    "automorphism_group",
    "kontsevich_dictionary",
    "riemann_hurwitz_coefficients",
    "verify_riemann_hurwitz",
    "sanity_check_knm",
]


# ---------------------------------------------------------------------------
# space kinds


class _CheckedParameters:
    """Base of the kind dataclasses: the parameters are checked on construction."""

    def __post_init__(self):
        _check_parameters(self)


@dataclass(frozen=True)
class Collineations(_CheckedParameters):
    """Space of complete collineations between spaces of dimensions n and m."""

    n: int
    m: int
    h: int


@dataclass(frozen=True)
class Quadrics(_CheckedParameters):
    """Space of complete quadrics of bounded rank on an n-dimensional space."""

    n: int
    h: int


@dataclass(frozen=True)
class SegreBlowup(_CheckedParameters):
    """Partial blow-up of a matrix rank locus: k of the h-1 steps performed."""

    n: int
    m: int
    h: int
    k: int


@dataclass(frozen=True)
class VeroneseBlowup(_CheckedParameters):
    """Partial blow-up of a symmetric rank locus.

    The degenerate triple (1, 3, 1) is admitted: the symmetric rank locus
    fills the plane there and the single blow-up center is already a divisor,
    so the space is the projective plane.
    """

    n: int
    h: int
    k: int


@dataclass(frozen=True)
class KontsevichP(_CheckedParameters):
    """Stable degree-two rational maps to projective n-space."""

    n: int


@dataclass(frozen=True)
class KontsevichPxP(_CheckedParameters):
    """Stable bidegree-(1,1) rational maps to a product of projective spaces."""

    n: int
    m: int


@dataclass(frozen=True)
class KontsevichGr(_CheckedParameters):
    """Stable degree-two rational maps to the Grassmannian of lines."""

    n: int


SpaceKind = Union[
    Collineations,
    Quadrics,
    SegreBlowup,
    VeroneseBlowup,
    KontsevichP,
    KontsevichPxP,
    KontsevichGr,
]


def _entry(kind: SpaceKind) -> "_Kind":
    entry = _KINDS.get(type(kind))
    if entry is None:
        raise TypeError("not a space kind: %r" % (kind,))
    return entry


def space_name(kind: SpaceKind) -> str:
    """The CLI name and parameters, e.g. ``C(2,3,2)``; the towers add ``;k=``."""

    entry = _entry(kind)
    params = kind_parameters(kind)
    steps = ";k=%d" % params.pop("k") if "k" in params else ""
    return "%s(%s%s)" % (entry.cli_name, ",".join(str(v) for v in params.values()), steps)


def kind_parameters(kind: SpaceKind) -> Dict[str, int]:
    """The defining integers of a kind, keyed by their conventional letters."""

    return {f.name: getattr(kind, f.name) for f in fields(kind)}


def _check_parameters(kind: SpaceKind) -> None:
    """The one parameter rule, applied to whichever letters the kind has.

    Every parameter is an int; ``n`` is at least the kind's lowest value,
    ``n <= m <= 1000`` (past that a secant degree product takes seconds),
    ``1 <= h <= n+1`` and ``1 <= k <= h-1``.  The kind's admitted parameter
    tuple, if it has one, passes as it is.
    """

    entry = _entry(kind)
    params = kind_parameters(kind)
    _require_int(**params)
    if tuple(params.values()) == entry.admitted:
        return
    n, m, h, k = (params.get(letter) for letter in "nmhk")
    if n < entry.lowest_n:
        rule = "n >= %d" % entry.lowest_n
    elif m is not None and n > m:
        rule = "n <= m"
    elif (n if m is None else m) > 1000:
        rule = "n <= 1000" if m is None else "n, m <= 1000"
    elif h is not None and not 1 <= h <= n + 1:
        rule = "1 <= h <= n+1"
    elif k is not None and not 1 <= k <= h - 1:
        rule = "1 <= k <= h-1"
    else:
        return
    raise ValueError("%s requires %s" % (entry.cli_name, rule))


def _form_space(kind: SpaceKind) -> SpaceKind:
    """The kind itself, or the form space that a mapping-space kind coincides with."""

    twin = _entry(kind).twin
    return kind if twin is None else twin(kind)


def _secant(kind: SpaceKind) -> Optional[SecantInvariants]:
    """The secant variety the space blows up; None past the end of its range."""

    form = _form_space(kind)
    try:
        return _entry(form).secant(form)
    except ValueError:
        return None


def _automorphisms(kind: SpaceKind) -> Optional[GroupDescriptor]:
    form = _form_space(kind)
    return _entry(form).automorphisms(form)


# ---------------------------------------------------------------------------
# divisor classes and models


def _vec(*entries) -> Tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


def _labels(prefix: str, count: int) -> Tuple[str, ...]:
    return tuple("%s%d" % (prefix, i) for i in range(1, count + 1))


@dataclass(frozen=True)
class DivisorClass:
    """A named divisor class, with coordinates when the model carries a basis."""

    label: str
    coordinates: Optional[Tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class SpaceModel:
    kind: SpaceKind
    name: str
    dimension: int
    picard_rank: int
    basis: Optional[Tuple[str, ...]]
    classes: Mapping[str, DivisorClass]  # read-only
    boundary: Tuple[str, ...]
    colors: Tuple[str, ...]
    eff_generators: Optional[Tuple[str, ...]]
    nef_generators: Optional[Tuple[str, ...]]
    mov_generators: Optional[Tuple[str, ...]]
    anticanonical: Optional[DivisorClass]
    stated_chamber_count: Optional[int]
    automorphisms: Optional[GroupDescriptor]

    @property
    def has_coordinates(self) -> bool:
        return self.basis is not None

    def class_coordinates(self, label: str) -> Tuple[Fraction, ...]:
        cls = self.classes.get(label)
        if cls is None or cls.coordinates is None:
            raise CoordinatesUnknown(
                "class coordinates are not available for %s on %s" % (label, self.name)
            )
        return cls.coordinates

    def cone_spanned_by(self, labels: Sequence[str]) -> RationalCone:
        if self.basis is None:
            raise CoordinatesUnknown(
                "class coordinates are not available for %s" % self.name
            )
        rays = [self.class_coordinates(label) for label in labels]
        return cone_from_rays(rays, ambient_dim=len(self.basis))

    def _generated_cone(self, labels, what: str) -> RationalCone:
        if labels is None:
            raise CoordinatesUnknown(
                "%s cone generators are not recorded for %s" % (what, self.name)
            )
        return self.cone_spanned_by(labels)

    def effective_cone(self) -> RationalCone:
        return self._generated_cone(self.eff_generators, "effective")

    def nef_cone(self) -> RationalCone:
        return self._generated_cone(self.nef_generators, "nef")

    def moving_cone(self) -> RationalCone:
        return self._generated_cone(self.mov_generators, "moving")

    def to_dict(self) -> Dict:
        def listed(values):
            return list(values) if values is not None else None

        return {
            "name": self.name,
            "parameters": kind_parameters(self.kind),
            "dimension": self.dimension,
            "picard_rank": self.picard_rank,
            "basis": listed(self.basis),
            "classes": {
                label: listed(cls.coordinates) for label, cls in sorted(self.classes.items())
            },
            "boundary": list(self.boundary),
            "colors": list(self.colors),
            "effective_generators": listed(self.eff_generators),
            "nef_generators": listed(self.nef_generators),
            "moving_generators": listed(self.mov_generators),
            "anticanonical": listed(self.anticanonical.coordinates)
            if self.anticanonical is not None
            else None,
            "stated_chamber_count": self.stated_chamber_count,
            "automorphisms": str(self.automorphisms)
            if self.automorphisms is not None
            else None,
        }


# -- automorphism rules -----------------------------------------------------


def _two_factor_group(n: int, m: int) -> GroupDescriptor:
    if n < m:
        return GroupProduct(PGL(n + 1), PGL(m + 1))
    return SemidirectLeft(SwapGroup(), GroupProduct(PGL(n + 1), PGL(n + 1)))


def _steps(kind: SpaceKind) -> int:
    """Blow-up steps performed: k for a partial tower, h-1 for the full one."""
    return getattr(kind, "k", kind.h - 1)


def _pair_automorphisms(kind) -> Optional[GroupDescriptor]:
    """Collineation towers, full or partial."""
    n, m, h = kind.n, kind.m, kind.h
    if h <= n:
        return _two_factor_group(n, m)
    # h == n+1: the ambient is a projective space of matrices.  The full
    # tower carries the transpose swap; a partial tower does only when the
    # missing centers are divisors and the space already equals the tower.
    k = _steps(kind)
    if not (k == h - 1 or (n == m and k == n - 1)):
        return None
    if n == 1 and m == 1:
        return PGL(4)
    if n < m:
        return GroupProduct(PGL(n + 1), PGL(m + 1))
    return SemidirectRight(_two_factor_group(n, n), SwapGroup())


def _symmetric_automorphisms(kind) -> Optional[GroupDescriptor]:
    """Quadric towers, full or partial."""
    n, h = kind.n, kind.h
    if h <= n:
        return PGL(n + 1)
    if _steps(kind) < n - 1:  # the final center is a divisor, so k = n-1 suffices
        return None
    if n == 1:
        return PGL(3)
    return SemidirectRight(PGL(n + 1), SwapGroup())


def _kontsevich_gr_automorphisms(kind: KontsevichGr) -> GroupDescriptor:
    n = kind.n
    if n == 2:
        return SemidirectRight(PGL(3), SwapGroup())
    if n == 3:
        return SemidirectLeft(SwapGroup(), SemidirectLeft(SwapGroup(), PGL(4)))
    return SemidirectLeft(SwapGroup(), PGL(n + 1))


# -- model builders ---------------------------------------------------------
#
# A builder returns only what varies between spaces: ``rank``, ``boundary``,
# and where known ``colors``, ``eff``/``nef``/``mov`` generator labels, a
# ``basis`` (whose classes are the unit vectors) with the coordinates of the
# other classes in ``table``, ``minus_k`` coordinates and the ``stated``
# chamber count.  It gives ``dimension`` only where the secant range has
# ended; :func:`build_model` assembles the rest.  The complete-form builders
# add the ``orbit`` Picard relations, and the mapping-space builders the
# ``dictionary`` rule: (class, twin class label) pairs for an isomorphism,
# (cover class, coefficient, class) triples for a pullback.


def _collineations_model(kind: Collineations) -> dict:
    n, m, h = kind.n, kind.m, kind.h
    boundary = _labels("E", h - 1)
    # relations of the dense orbit's Picard group (see orbit_picard_group):
    # one more row for each side of dimension at least h
    if h <= n:
        spec = dict(
            rank=h + 1,
            colors=("H1", "H2") + _labels("D", h - 1),
            eff=boundary + ("H1", "H2"),
            nef=_labels("D", h - 1) + ("H1", "H2"),
        )
        sides = [[1, 0, 0], [0, 1, 0]]
    elif h < m + 1:  # h == n+1 < m+1
        colors = _labels("D", n + 1)
        spec = dict(rank=h, colors=colors, eff=boundary + ("D%d" % (n + 1),), nef=colors)
        sides = [[0, 1, 0]]
    else:  # h == n+1 == m+1
        colors = _labels("D", n)
        spec = dict(rank=h - 1, colors=colors, eff=boundary, nef=colors)
        sides = []
    spec.update(boundary=boundary, orbit=[[1, 0, 1], [0, 1, 1]] + sides + [[0, 0, -h]])

    if h == 1:
        spec.update(
            basis=("H1", "H2"),
            mov=spec["nef"],
            minus_k=_vec(n + 1, m + 1),
            stated=1,
        )
    elif h == 2 and n >= 2:
        half = Fraction(1, 2)
        spec.update(
            basis=("H1", "H2", "E1"),
            table={"D1": (half, half, half), "D2": _vec(1, 1, 0)},
            mov=spec["nef"],
            minus_k=_vec(n + 1, m + 1, 2),
            stated=3,
        )
    elif h == 2 and n == 1 and m >= 2:
        spec.update(
            basis=("D1", "E1"),
            table={"D2": _vec(2, -1)},
            minus_k=_vec(2 * m + 2, 1 - m),
            stated=2,
        )
    elif h == 2 and n == 1 and m == 1:
        spec.update(basis=("D1",), table={"E1": _vec(2)}, minus_k=_vec(4), stated=1)
    return spec


def _quadrics_model(kind: Quadrics) -> dict:
    n, h = kind.n, kind.h
    boundary = _labels("E", h - 1)
    if h <= n:
        colors = _labels("D", h)
        spec = dict(rank=h, eff=boundary + ("D%d" % h,), orbit=[[2], [-h]])
    else:  # h == n+1
        colors = _labels("D", n)
        spec = dict(rank=h - 1, eff=boundary, orbit=[[1, 2], [0, -h]])
    spec.update(boundary=boundary, colors=colors, nef=colors)

    if h == 3 and n >= 3:
        spec.update(
            basis=("H", "E1", "E2"),
            table={"D1": _vec(1, 0, 0), "D2": _vec(2, -1, 0), "D3": _vec(3, -2, -1)},
            mov=colors,
            minus_k=(Fraction(3 * n + 3, 2), Fraction(1 - n), Fraction(3 - n, 2)),
            stated=5,
        )
    elif h == 3 and n == 2:
        spec.update(
            basis=("H", "E1"),
            table={"E2": _vec(3, -2), "D1": _vec(1, 0), "D2": _vec(2, -1)},
            minus_k=_vec(6, -2),
            stated=3,
        )
    elif h == 2 and n == 1:
        spec.update(
            basis=("H",),
            table={"E1": _vec(2), "D1": _vec(1)},
            minus_k=_vec(3),
            stated=1,
        )
    return spec


def _veronese_blowup_model(kind: VeroneseBlowup) -> dict:
    n, h, k = kind.n, kind.h, kind.k
    boundary = _labels("E", k)
    if (n, h, k) == (1, 3, 1):
        # blow-up of the plane along a conic divisor: the plane itself
        return dict(
            dimension=2,
            rank=1,
            basis=("H",),
            table={"D1": _vec(1), "E1": _vec(2)},
            boundary=boundary,
            colors=("D1",),
            eff=("E1",),
            nef=("D1",),
            minus_k=_vec(3),
            stated=1,
        )
    spec = dict(rank=n if h > n and k == n else 1 + k, boundary=boundary)

    if h == 3 and k == 1 and n >= 2:
        spec.update(
            basis=("H", "E1"),
            table={"D1": _vec(1, 0), "D2": _vec(2, -1), "D3": _vec(3, -2)},
            colors=("D1", "D2", "D3"),
            eff=("E1", "D3"),
            nef=("D1", "D2"),
            minus_k=_vec(6, -2) if n == 2 else (Fraction(3 * n + 3, 2), Fraction(1 - n)),
            stated=3,
        )
    elif h == 4 and k == 2 and n >= 3:
        spec.update(
            basis=("H", "E1", "E2"),
            table={
                "D1": _vec(1, 0, 0),
                "D2": _vec(2, -1, 0),
                "D3": _vec(3, -2, -1),
                "D4": _vec(4, -3, -2),
                "P": _vec(6, -3, -2),
            },
            colors=("D1", "D2", "D3", "D4"),
            eff=("E1", "E2", "D4"),
            nef=("D1", "D2", "D3"),
            mov=("D1", "D2", "D3", "P"),
            minus_k=_vec(10, -5, -2)
            if n == 3
            else (Fraction(2 * n + 2), Fraction(-(3 * n - 2), 2), Fraction(2 - n)),
            stated=9,
        )
    return spec


def _segre_blowup_model(kind: SegreBlowup) -> dict:
    n, m, h, k = kind.n, kind.m, kind.h, kind.k
    if h <= n:
        rank = 2 + k
    elif n == m and k == n:
        rank = n
    else:
        rank = 1 + k
    return dict(rank=rank, boundary=_labels("E", k))


def _kontsevich_p_model(kind: KontsevichP) -> dict:
    n = kind.n
    if n == 1:
        return dict(
            dimension=2,
            rank=1,
            basis=("T",),
            table={"Delta": _vec(2)},
            boundary=("Delta",),
            colors=("T",),
            eff=("Delta",),
            nef=("T",),
            minus_k=_vec(3),
            stated=1,
            dictionary=(("T", "D1"), ("Delta", "E1")),
        )
    return dict(
        rank=2,
        basis=("T", "Delta"),
        table={"H": _vec(2, -1), "Ddeg": (Fraction(3, 2), Fraction(-1))},
        boundary=("Delta",),
        colors=("T", "H", "Ddeg"),
        eff=("Delta", "Ddeg"),
        nef=("T", "H"),
        minus_k=_vec(6, -2) if n == 2 else (Fraction(3 * n + 3, 2), Fraction(1 - n)),
        stated=3,
        dictionary=(("T", "D1"), ("H", "D2"), ("Ddeg", "(1/2)*D3"), ("Delta", "E1")),
    )


def _kontsevich_pxp_model(kind: KontsevichPxP) -> dict:
    n, m = kind.n, kind.m
    if n == 1 and m == 1:
        return dict(
            rank=1,
            basis=("Knm",),
            table={"Delta": _vec(2)},
            boundary=("Delta",),
            colors=("Knm",),
            eff=("Delta",),
            nef=("Knm",),
            minus_k=_vec(4),
            stated=1,
            dictionary=(("Knm", "D1"), ("Delta", "E1")),
        )
    if n == 1:
        return dict(
            rank=2,
            basis=("Knm", "Delta"),
            table={"Km": _vec(2, -1)},
            boundary=("Delta",),
            colors=("Knm", "Km"),
            eff=("Delta", "Km"),
            nef=("Knm", "Km"),
            minus_k=_vec(2 * m + 2, 1 - m),
            stated=2,
            dictionary=(("Knm", "D1"), ("Km", "D2"), ("Delta", "E1")),
        )
    half = Fraction(1, 2)
    return dict(
        rank=3,
        basis=("Kn", "Km", "Delta"),
        table={"Knm": (half, half, half)},
        boundary=("Delta",),
        colors=("Kn", "Km", "Knm"),
        eff=("Delta", "Kn", "Km"),
        nef=("Knm", "Kn", "Km"),
        mov=("Knm", "Kn", "Km"),
        minus_k=_vec(n + 1, m + 1, 2),
        stated=3,
        dictionary=(("Kn", "H1"), ("Km", "H2"), ("Knm", "D1"), ("Delta", "E1")),
    )


def _kontsevich_gr_model(kind: KontsevichGr) -> dict:
    n = kind.n
    if n == 2:  # h = 4 > n+1 is past the Veronese secants, so give the dimension
        return dict(dimension=5, rank=2, boundary=("Delta",))
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    # Ddeg is pinned by pulling the fourth tangency class back along the
    # degree-two cover from the symmetric rank model: D4 goes to Ddeg below.
    return dict(
        rank=3,
        basis=("Hs11", "Hs2", "Delta"),
        table={
            "T": (half, half, half),
            "Dunb": (3 * quarter, -quarter, -quarter),
            "P": (3 * quarter, 3 * quarter, -quarter),
            "Ddeg": (-half, Fraction(3, 2), -half),
        },
        boundary=("Delta",),
        colors=("Hs11", "Hs2", "T"),
        eff=("Dunb", "Ddeg", "Delta"),
        nef=("Hs11", "Hs2", "T"),
        mov=("Hs11", "Hs2", "T", "P"),
        minus_k=(Fraction(11 - n, 4), Fraction(3 * n - 1, 4), Fraction(7 - n, 4))
        if n >= 4
        else None,
        stated=9,
        # the pullback of each class of the cover: a multiple of a class here
        dictionary=(
            ("H", 1, "Hs11"),
            ("E1", 2, "Dunb"),
            ("E2", 1, "Delta"),
            ("D1", 1, "Hs11"),
            ("D2", 1, "T"),
            ("D3", 1, "Hs2"),
            ("D4", 1, "Ddeg"),
            ("P", 2, "P"),
        ),
    )


# -- the kind table ---------------------------------------------------------


class _Kind(NamedTuple):
    """What the catalog records about one kind of space.

    ``secant(kind)`` is the secant variety the space blows up and
    ``automorphisms(kind)`` its automorphism group (None where unrecorded).
    A mapping-space kind isomorphic to a form space names that space as its
    ``twin`` and takes the twin's secant and automorphisms instead.  A kind
    that double-covers a form space names it as its ``cover``: its chambers
    and positivity are known only through the cover, and its comparison
    dictionary is the pullback from it.  The parameter letters are the
    kind's dataclass fields, checked by one rule (:func:`_check_parameters`)
    that reads ``lowest_n`` and lets the ``admitted`` tuple pass.
    """

    cli_name: str
    model: Callable[[SpaceKind], dict]
    secant: Optional[Callable[[SpaceKind], SecantInvariants]] = None
    automorphisms: Optional[Callable[[SpaceKind], Optional[GroupDescriptor]]] = None
    twin: Optional[Callable[[SpaceKind], SpaceKind]] = None
    cover: Optional[Callable[[SpaceKind], SpaceKind]] = None
    lowest_n: int = 1
    admitted: Optional[Tuple[int, ...]] = None


_KINDS: Dict[type, _Kind] = {
    Collineations: _Kind(
        "C",
        _collineations_model,
        lambda s: segre_secant_invariants(s.n, s.m, s.h),
        _pair_automorphisms,
    ),
    Quadrics: _Kind(
        "Q",
        _quadrics_model,
        lambda s: veronese_secant_invariants(s.n, s.h),
        _symmetric_automorphisms,
    ),
    SegreBlowup: _Kind(
        "secS",
        _segre_blowup_model,
        lambda s: segre_secant_invariants(s.n, s.m, s.h),
        _pair_automorphisms,
    ),
    VeroneseBlowup: _Kind(
        "secV",
        _veronese_blowup_model,
        lambda s: veronese_secant_invariants(s.n, s.h),
        _symmetric_automorphisms,
        admitted=(1, 3, 1),
    ),
    KontsevichP: _Kind(
        "mbar-p", _kontsevich_p_model, twin=lambda s: VeroneseBlowup(s.n, 3, 1)
    ),
    KontsevichPxP: _Kind(
        "mbar-pxp", _kontsevich_pxp_model, twin=lambda s: Collineations(s.n, s.m, 2)
    ),
    KontsevichGr: _Kind(
        "mbar-gr",
        _kontsevich_gr_model,
        lambda s: veronese_secant_invariants(s.n, 4),
        _kontsevich_gr_automorphisms,
        cover=lambda s: VeroneseBlowup(s.n, 4, 2),
        lowest_n=2,
    ),
}


def _coordinates(spec: dict) -> Dict[str, Tuple[Fraction, ...]]:
    """Every class of a builder's spec: the basis classes are the unit vectors."""

    basis = spec["basis"]
    units = {b: _vec(*(int(i == j) for j in range(len(basis)))) for i, b in enumerate(basis)}
    return {**units, **spec.get("table", {})}


def build_model(kind: SpaceKind) -> SpaceModel:
    """Assemble the catalog entry for one space kind.

    The dimension is that of the secant variety the space blows up.  The
    classes are the coordinate table when there is a basis, and otherwise
    every boundary, color and cone-generator label without coordinates.
    """

    spec = _entry(kind).model(kind)
    basis = spec.get("basis")
    colors = spec.get("colors", ())
    eff, nef = spec.get("eff"), spec.get("nef")
    if basis is not None:
        classes = {label: DivisorClass(label, c) for label, c in _coordinates(spec).items()}
    else:
        labels = spec["boundary"] + colors + (eff or ()) + (nef or ())
        classes = {label: DivisorClass(label) for label in labels}
    minus_k = spec.get("minus_k")
    return SpaceModel(
        kind=kind,
        name=space_name(kind),
        dimension=spec["dimension"] if "dimension" in spec else _secant(kind).dimension,
        picard_rank=spec["rank"],
        basis=basis,
        classes=MappingProxyType(classes),
        boundary=spec["boundary"],
        colors=colors,
        eff_generators=eff,
        nef_generators=nef,
        mov_generators=spec.get("mov"),
        anticanonical=DivisorClass("-K", minus_k) if minus_k is not None else None,
        stated_chamber_count=spec.get("stated"),
        automorphisms=_automorphisms(kind),
    )


# ---------------------------------------------------------------------------
# derived queries


def divisor_classes(kind: SpaceKind) -> Dict[str, DivisorClass]:
    model = build_model(kind)
    if not model.has_coordinates:
        raise CoordinatesUnknown(
            "class coordinates are not available for %s" % model.name
        )
    return dict(model.classes)


def effective_cone(kind: SpaceKind) -> RationalCone:
    return build_model(kind).effective_cone()


def nef_cone(kind: SpaceKind) -> RationalCone:
    return build_model(kind).nef_cone()


def moving_cone(kind: SpaceKind) -> RationalCone:
    return build_model(kind).moving_cone()


def orbit_picard_group(kind: SpaceKind) -> AbelianGroupDescriptor:
    """Picard group of the dense orbit, as a quotient of boundary-free classes.

    The dense orbit of a two-sided or quadric compactification has Picard
    group presented by the characters of its generating line bundles modulo
    the relations coming from the top and bottom determinants and the scaling
    weight.  Only the complete-form kinds carry this presentation; their
    model builders write the relations.
    """

    relations = _entry(kind).model(kind).get("orbit")
    if relations is None:
        raise OutOfScope(
            "orbit Picard groups are computed for the complete collineation and "
            "quadric kinds only"
        )
    return cokernel(IntegerMatrix.from_rows(relations))


def mori_chambers(kind: SpaceKind) -> ChamberDecomposition:
    """Chamber decomposition of the effective cone from boundary and color classes."""

    model = build_model(kind)
    if _entry(kind).cover is not None:
        raise OutOfScope(
            "the chamber decomposition of %s is only known through its "
            "degree-two cover of the symmetric rank model" % model.name
        )
    if model.basis is None:
        raise CoordinatesUnknown(
            "class coordinates are not available for %s" % model.name
        )
    labels = tuple(model.boundary) + tuple(model.colors)
    missing = [lb for lb in labels if model.classes.get(lb) is None]
    if not labels or missing:
        raise OutOfScope(
            "chamber decomposition input classes are not recorded for %s" % model.name
        )
    vectors = [model.class_coordinates(lb) for lb in labels]
    decomposition = gkz_decomposition(vectors, ambient_dim=len(model.basis))
    if model.nef_generators is not None:
        nef = model.nef_cone()
        matches = sum(1 for chamber in decomposition.chambers if chamber == nef)
        if matches != 1:
            raise InternalInconsistency(
                "nef cone must appear as exactly one chamber, found %d" % matches
            )
    return decomposition


def anticanonical_class(kind: SpaceKind) -> DivisorClass:
    model = build_model(kind)
    if model.anticanonical is None:
        raise OutOfScope(
            "the anticanonical class of %s is not recorded" % model.name
        )
    return model.anticanonical


class PositivityClass(enum.Enum):
    FANO = "Fano"
    WEAK_FANO = "WeakFano"
    LOG_FANO_NUMERICAL = "LogFanoNumerical"
    NOT_BIG = "NotBig"


def classify_positivity(kind: SpaceKind) -> PositivityClass:
    """Place the anticanonical class relative to the nef and effective cones."""

    if _entry(kind).cover is not None:
        raise OutOfScope(
            "positivity for the Grassmannian mapping space is read off its "
            "degree-two cover, not classified directly"
        )
    model = build_model(kind)
    if model.anticanonical is None or model.anticanonical.coordinates is None:
        raise OutOfScope(
            "the anticanonical class of %s is not recorded" % model.name
        )
    point = model.anticanonical.coordinates
    nef = model.nef_cone()
    eff = model.effective_cone()
    if nef.contains(point, strict=True):
        return PositivityClass.FANO
    if nef.contains(point) and eff.contains(point, strict=True):
        return PositivityClass.WEAK_FANO
    if eff.contains(point, strict=True):
        return PositivityClass.LOG_FANO_NUMERICAL
    return PositivityClass.NOT_BIG


def automorphism_group(kind: SpaceKind) -> GroupDescriptor:
    group = _automorphisms(kind)
    if group is None:
        raise OutOfScope(
            "the automorphism group of %s is not recorded for partial towers "
            "whose missing centers are not divisors" % space_name(kind)
        )
    return group


# ---------------------------------------------------------------------------
# comparison dictionaries


@dataclass(frozen=True)
class DictionaryEntry:
    source: str
    target: str
    image: Tuple[Fraction, ...]


@dataclass(frozen=True)
class ComparisonDictionary:
    """A linear identification of class lattices between two space models.

    ``matrix_columns`` are the images of the source model's basis classes,
    written in the target model's basis, so ``apply`` is plain matrix-vector
    multiplication over the rationals.
    """

    source: SpaceKind
    target: SpaceKind
    entries: Tuple[DictionaryEntry, ...]
    matrix_columns: Tuple[Tuple[Fraction, ...], ...]

    def apply(self, coordinates: Sequence) -> Tuple[Fraction, ...]:
        coords = [_coerce_fraction(c) for c in coordinates]
        if len(coords) != len(self.matrix_columns):
            raise ValueError(
                "expected %d source coordinates, got %d"
                % (len(self.matrix_columns), len(coords))
            )
        size = len(self.matrix_columns[0])
        out = [Fraction(0)] * size
        for coeff, column in zip(coords, self.matrix_columns):
            for i in range(size):
                out[i] += coeff * column[i]
        return tuple(out)

    def inverse_apply(self, coordinates: Sequence) -> Tuple[Fraction, ...]:
        rows = [
            [self.matrix_columns[j][i] for j in range(len(self.matrix_columns))]
            for i in range(len(self.matrix_columns[0]))
        ]
        solution = solve_rational(rows, coordinates)
        if solution is None:
            raise ValueError("the class does not come from the source lattice")
        return tuple(solution)

    def image_of(self, source_label: str) -> Tuple[Fraction, ...]:
        for entry in self.entries:
            if entry.source == source_label:
                return entry.image
        raise KeyError(source_label)


def kontsevich_dictionary(kind: SpaceKind) -> ComparisonDictionary:
    """Class-lattice dictionary tying a mapping space to its form-space twin.

    For the projective and product targets the dictionary is an isomorphism
    written from the mapping space to its twin; for the Grassmannian it is
    the pullback along the degree-two cover, written from the cover to the
    mapping space, each image a multiple of a mapping-space class.
    """

    entry = _entry(kind)
    spec = entry.model(kind)
    rule = spec.get("dictionary")
    if rule is None:
        raise OutOfScope("no comparison dictionary is recorded for %s" % space_name(kind))
    coordinates = _coordinates(spec)
    if entry.twin is not None:
        # the isomorphism is written in matching bases: every class keeps its
        # coordinate vector under its form-space name
        entries = tuple(DictionaryEntry(src, dst, coordinates[src]) for src, dst in rule)
        columns = tuple(coordinates[label] for label in spec["basis"])
        return ComparisonDictionary(kind, entry.twin(kind), entries, columns)
    source = entry.cover(kind)
    entries = tuple(
        DictionaryEntry(
            src,
            dst if c == 1 else "%d*%s" % (c, dst),
            tuple(c * x for x in coordinates[dst]),
        )
        for src, c, dst in rule
    )
    images = {e.source: e.image for e in entries}
    columns = tuple(images[label] for label in _entry(source).model(source)["basis"])
    return ComparisonDictionary(source, kind, entries, columns)


# ---------------------------------------------------------------------------
# the double-cover coefficient solve and the product identity


def riemann_hurwitz_coefficients(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of the symmetric rank model's anticanonical class.

    Solved from the double-cover relation: the pullback of the class along
    the degree-two cover must equal the mapping space's anticanonical class
    plus the reduced branch class.  Valid for 4 <= n <= 10, where the
    mapping-space anticanonical class is on record.
    """

    _require_int(n=n)
    if not (4 <= n <= 10):
        raise ValueError("the double-cover solve is set up for 4 <= n <= 10")
    dictionary = kontsevich_dictionary(KontsevichGr(n))
    gr = build_model(KontsevichGr(n))
    target = gr.anticanonical.coordinates
    branch = gr.class_coordinates("Dunb")
    try:
        return dictionary.inverse_apply([t + b for t, b in zip(target, branch)])
    except ValueError as exc:
        raise InternalInconsistency("the double-cover relation has no unique solution") from exc


def verify_riemann_hurwitz(n: int) -> VerificationReport:
    """Check the solved anticanonical coefficients against the stated ones."""

    solved = riemann_hurwitz_coefficients(n)
    stated = build_model(VeroneseBlowup(n, 4, 2)).anticanonical.coordinates
    return VerificationReport(
        name="double-cover-anticanonical-solve",
        parameters={"n": n},
        passed=solved == stated,
        details={"solved": list(solved), "stated": list(stated)},
        counterexample=None
        if solved == stated
        else {"solved": list(solved), "stated": list(stated)},
    )


def sanity_check_knm(n: int, m: int) -> VerificationReport:
    """Reduce the long-form product anticanonical expression and compare.

    The anticanonical class of the bidegree-(1,1) mapping space has a
    four-term expression in the pulled-back hyperplane classes, the mixed
    incidence class, and the boundary.  Substituting the boundary relation
    ``Delta = 2*Knm - Kn - Km`` must collapse it to
    ``(n-1)*Kn + (m-1)*Km + 4*Knm``, and that combination must equal the
    model's anticanonical class.
    """

    _require_int(n=n, m=m)
    if n < 1 or m < 1:
        raise ValueError("the product identity requires n, m >= 1")
    den = 2 * n + 2 * m + 4
    c_n = Fraction((n + 1) * (2 * n + m + 3), den)
    c_m = Fraction((m + 1) * (2 * m + n + 3), den)
    c_nm = Fraction((n + 1) * (m + 1), n + m + 2)
    c_delta = Fraction(-(n * m - 3 * n - 3 * m - 7), den)
    reduced = (c_n - c_delta, c_m - c_delta, c_nm + 2 * c_delta)
    expected = (Fraction(n - 1), Fraction(m - 1), Fraction(4))
    coefficients_match = reduced == expected

    # the catalog lists the product space with the smaller factor first, so
    # swap the two hyperplane coefficients when the caller ordered them the
    # other way around
    model = build_model(KontsevichPxP(min(n, m), max(n, m)))
    size = len(model.basis)
    model_coeffs = reduced if n <= m else (reduced[1], reduced[0], reduced[2])

    def coords_or_zero(label):
        cls = model.classes.get(label)
        if cls is None or cls.coordinates is None:
            return (Fraction(0),) * size
        return cls.coordinates

    combo = [Fraction(0)] * size
    for coeff, label in zip(model_coeffs, ("Kn", "Km", "Knm")):
        coords = coords_or_zero(label)
        if coords == (Fraction(0),) * size and coeff != 0:
            coefficients_match = False
        for i in range(size):
            combo[i] += coeff * coords[i]
    model_match = tuple(combo) == model.anticanonical.coordinates

    passed = coefficients_match and model_match
    return VerificationReport(
        name="product-boundary-substitution",
        parameters={"n": n, "m": m},
        passed=passed,
        details={
            "long_form": {
                "Kn": c_n,
                "Km": c_m,
                "Knm": c_nm,
                "Delta": c_delta,
            },
            "reduced": {"Kn": reduced[0], "Km": reduced[1], "Knm": reduced[2]},
            "anticanonical": list(model.anticanonical.coordinates),
        },
        counterexample=None
        if passed
        else {"reduced": [str(r) for r in reduced], "expected": [str(e) for e in expected]},
    )
