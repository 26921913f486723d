"""Tests for rational cones and chamber decompositions.

Membership is cross-checked by an oracle that samples random nonnegative
rational combinations of the generators.  dual_cone only swaps rays and facet
normals, so it is checked against cone_from_rays of the facet normals, which
enumerates them; intersections and single cuts are checked against a vertex
enumeration written here with Laplace determinants.  The chamber counts for
the fixed configurations below were worked out by hand (the 2d ones can be
read off a picture, the 3d ones by listing the slicing hyperplanes).  Chamber
decompositions are also checked against a basis-cone oracle that decides
membership by Cramer's rule and shares no code with the package.  The basis
cones and hyperplanes a chamber complex takes from its table of (d-1)-subset
normals are checked against cone_from_rays on each basis and against the
cofactor normals of each (d-1)-subset.

The walk across chamber walls has two more oracles.  A fan certificate reads
only the chambers it returns: every interior facet is shared by exactly two
chambers with opposite normals, every other facet lies on the support
boundary, and the signatures are distinct.  The slicing the chamber complex
was first built with, every cell of the hyperplane arrangement merged by
signature, is kept here as a reference, with every half from the vertex
enumeration below, and matches the walk exactly.  Towers of Picard rank 3 to
5 over a projective space, 9, 34 and 176 chambers, run through both the
Cramer oracle and the certificate.
"""

import math
import random
from fractions import Fraction
from dataclasses import fields
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from completeforms import cones, spaces
from completeforms.cones import (
    ChamberDecomposition,
    cone_from_rays,
    dual_cone,
    gkz_decomposition,
    primitive_vector,
)
from completeforms.errors import (
    AmbientTooLarge,
    CoordinatesUnknown,
    DimensionMismatch,
    InternalInconsistency,
    NotFullDimensional,
    NotPointed,
    OutOfScope,
    ZeroVector,
)


# ---------------------------------------------------------------- primitives

def test_primitive_vector_normalizes_scale_not_direction():
    assert primitive_vector((2, -4)) == (1, -2)
    assert primitive_vector((Fraction(3, 2), Fraction(-9, 2))) == (1, -3)
    assert primitive_vector((-1, 2)) == (-1, 2)
    assert primitive_vector((2, Fraction(1, 2))) == (4, 1)
    assert primitive_vector((0, 6, -9)) == (0, 2, -3)
    with pytest.raises(ZeroVector, match=r"\(0, 0\)"):
        primitive_vector((0, 0))


def fraction_rank(vectors):
    """Rank by Gaussian elimination over Fraction, independent of lattice._row_reduce."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


integer_vectors = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=5)
)


@settings(max_examples=150, deadline=None)
@given(integer_vectors)
def test_integer_rank_agrees_with_fraction_elimination(vectors):
    assert cones._rank(vectors) == fraction_rank(vectors)


@settings(max_examples=150, deadline=None)
@given(integer_vectors)
def test_kernel_basis_is_primitive_orthogonal_and_complete(vectors):
    dim = len(vectors[0])
    kernel = cones._kernel_basis(vectors, dim)
    assert len(kernel) == dim - fraction_rank(vectors)
    for x in kernel:
        assert all(isinstance(c, int) for c in x)
        assert math.gcd(*x) == 1
        for v in vectors:
            assert sum(a * b for a, b in zip(v, x)) == 0
    if kernel:
        assert fraction_rank(kernel) == len(kernel)


# ---------------------------------------------------------------- construction

def test_redundant_generator_is_dropped():
    c = cone_from_rays([(1, 0), (1, 1), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.facet_normals == ((0, 1), (1, 0))


def test_rays_are_canonicalized_and_sorted():
    a = cone_from_rays([(0, 2), (3, 0)])
    b = cone_from_rays([(1, 0), (0, 1)])
    assert a == b


def test_not_pointed_opposite_rays():
    with pytest.raises(NotPointed):
        cone_from_rays([(1, 0), (-1, 0)])


def test_not_pointed_whole_plane():
    with pytest.raises(NotPointed):
        cone_from_rays([(1, 0), (-1, 1), (-1, -1)])


def test_not_pointed_half_plane():
    with pytest.raises(NotPointed):
        cone_from_rays([(1, 0), (-1, 0), (0, 1)])


def test_lower_dimensional_cone_carries_span_normals():
    c = cone_from_rays([(1, 1, 0)])
    assert c.dimension == 1
    assert not c.is_full_dimensional
    # the span-cutting normals come in +/- pairs
    plus_minus = [n for n in c.facet_normals if tuple(-x for x in n) in c.facet_normals]
    assert len(plus_minus) == 4


def test_dimension_mismatch_on_rays():
    with pytest.raises(DimensionMismatch):
        cone_from_rays([(1, 0), (1, 0, 0)])


# ---------------------------------------------------------------- containment

def test_containment_strict_and_weak():
    nef = cone_from_rays([(1, 0, 0), (2, -1, 0), (3, -2, -1)])
    # interior point: sum of the rays
    assert nef.contains((6, -3, -1), strict=True)
    # a ray is in the cone but not its interior
    assert nef.contains((2, -1, 0))
    assert not nef.contains((2, -1, 0), strict=True)
    assert not nef.contains((-1, 0, 0))


def test_containment_of_fractional_points():
    nef = cone_from_rays([(1, 0, 0), (2, -1, 0), (3, -2, -1)])
    # 2*(1,0,0) + 2*(2,-1,0) + 1/2*(3,-2,-1)
    p = (Fraction(15, 2), Fraction(-3), Fraction(-1, 2))
    assert nef.contains(p, strict=True)
    # 2*(1,0,0) + 2*(2,-1,0) lies on the boundary facet
    assert nef.contains((6, -2, 0))
    assert not nef.contains((6, -2, 0), strict=True)


def test_containment_of_a_point_given_as_an_iterator():
    """The point is read once: a generator is not used up by the length check."""
    c = cone_from_rays([(1, 0), (1, 1)])
    assert not c.contains(iter((0, 1)))
    assert not c.contains(x for x in (0, 1))
    assert c.contains((x for x in (2, 1)), strict=True)
    with pytest.raises(DimensionMismatch):
        c.contains(x for x in (1, 0, 0))


def test_containment_dimension_check():
    c = cone_from_rays([(1, 0)])
    with pytest.raises(DimensionMismatch):
        c.contains((1, 0, 0))


def test_lower_dimensional_cone_has_no_interior():
    c = cone_from_rays([(1, 1, 0)])
    assert c.contains((2, 2, 0))
    assert not c.contains((2, 2, 0), strict=True)
    assert not c.contains((1, 1, 1))


def random_combination_oracle(rays, rng):
    coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in rays]
    point = [sum(c * Fraction(r[i]) for c, r in zip(coeffs, rays)) for i in range(len(rays[0]))]
    return point


@pytest.mark.parametrize("seed", range(5))
def test_membership_oracle_nonnegative_combinations(seed):
    rng = random.Random(seed)
    rays = [(1, 0, 0), (2, -1, 0), (3, -2, -1)]
    c = cone_from_rays(rays)
    for _ in range(25):
        assert c.contains(random_combination_oracle(rays, rng))


# ---------------------------------------------------------------- duality

def test_dual_of_simplicial_plane_cone():
    c = cone_from_rays([(1, 0), (1, 2)])
    d = dual_cone(c)
    assert d.rays == ((0, 1), (2, -1))


def test_dual_requires_full_dimension():
    with pytest.raises(NotFullDimensional):
        dual_cone(cone_from_rays([(1, 1, 0)]))


def test_dual_is_an_involution():
    for rays in [
        [(1, 0), (1, 2)],
        [(1, 0, 0), (2, -1, 0), (3, -2, -1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
    ]:
        c = cone_from_rays(rays)
        dual = cone_from_rays(c.facet_normals, c.ambient_dim)
        assert dual_cone(c) == dual
        assert cone_from_rays(dual.facet_normals, c.ambient_dim) == c


def test_round_trip_rays_to_facets_to_rays():
    # the cone over the facet normals of the cone over the facet normals is
    # the cone itself, each step enumerated from scratch
    c = cone_from_rays([(1, 0, 0), (2, -1, 0), (3, -2, -1)])
    dual = cone_from_rays(c.facet_normals)
    assert dual_cone(c) == dual
    again = cone_from_rays(dual.facet_normals)
    assert again.rays == c.rays
    assert again.facet_normals == c.facet_normals


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5))
def test_random_plane_cones_contain_their_generators(rays):
    try:
        c = cone_from_rays(rays, ambient_dim=2)
    except (NotPointed, ValueError):
        return
    for r in rays:
        if r != (0, 0):
            assert c.contains(r)
    if c.is_full_dimensional:
        assert dual_cone(c) == cone_from_rays(c.facet_normals, 2)


# ---------------------------------------------------------------- chambers

def test_chambers_of_plane_fan_with_interior_ray():
    # three generators, one of them interior: the interior ray splits the
    # support into two chambers
    dec = gkz_decomposition([(1, 0), (1, 1), (0, 1)])
    assert dec.chamber_count == 2
    ray_sets = sorted(c.rays for c in dec.chambers)
    assert ray_sets == [((0, 1), (1, 1)), ((1, 0), (1, 1))]


def test_chambers_of_rank_two_ladder():
    # four generators on a line fan: three chambers, like rungs of a ladder
    dec = gkz_decomposition([(0, 1), (1, 0), (2, -1), (3, -2)])
    assert dec.chamber_count == 3
    ray_sets = sorted(c.rays for c in dec.chambers)
    assert ray_sets == [
        ((0, 1), (1, 0)),
        ((1, 0), (2, -1)),
        ((2, -1), (3, -2)),
    ]


def test_chambers_partition_support():
    dec = gkz_decomposition([(0, 1), (1, 0), (2, -1), (3, -2)])
    # pairwise interiors disjoint: any two chambers meet in a lower-dim cone
    for i, a in enumerate(dec.chambers):
        for b in dec.chambers[i + 1 :]:
            assert a.intersection(b) is None
    # each chamber sits inside the support
    for c in dec.chambers:
        for r in c.rays:
            assert dec.support.contains(r)


def test_chamber_interior_points_classified_uniquely():
    dec = gkz_decomposition([(1, 0, 0), (2, -1, 0), (3, -2, -1), (0, 1, 0), (0, 0, 1)])
    for c in dec.chambers:
        probe = tuple(sum(col) for col in zip(*c.rays))
        owners = [d for d in dec.chambers if d.contains(probe, strict=True)]
        assert owners == [c]


def test_ambient_cap():
    with pytest.raises(AmbientTooLarge):
        gkz_decomposition([(1, 0, 0, 0, 0, 0)])


def test_degenerate_configuration_rejected():
    with pytest.raises(NotFullDimensional):
        gkz_decomposition([(1, 0, 0), (0, 1, 0)])


def test_non_pointed_configuration_rejected():
    with pytest.raises(NotPointed):
        gkz_decomposition([(1, 0), (-1, 0), (0, 1)])


def counted_cone_from_rays(monkeypatch):
    """Patch cones.cone_from_rays to record its rays; returns the record.

    A caller starts from empty memos (``fresh_memos``), or a memoised fan
    would answer without a call.
    """
    calls = []
    real = cones.cone_from_rays

    def counting(rays, ambient_dim=None):
        calls.append(rays)
        return real(rays, ambient_dim)

    monkeypatch.setattr(cones, "cone_from_rays", counting)
    return calls


@pytest.mark.usefixtures("fresh_memos")
def test_a_collapsed_chamber_raises_a_typed_error(monkeypatch):
    """The chamber invariant holds under python -O: no bare assert guards it.

    The start of the walk is cut for real, by single splits; every chamber
    assembly, which cuts a basis cone by the other walls, leaves no half.
    """
    monkeypatch.setattr(cones, "_cut_all", lambda cone, normals: None)
    with pytest.raises(InternalInconsistency, match="collapsed"):
        gkz_decomposition([(1, 0), (1, 1), (0, 1)])


@pytest.mark.usefixtures("fresh_memos")
@pytest.mark.parametrize("ambient, size", [(3, 6), (4, 5)])
def test_only_the_support_is_enumerated(monkeypatch, ambient, size):
    """Basis cones come from the normal table; the walk's first cell and each
    chamber are cut from cones already built."""
    w = list(dict.fromkeys(primitive(v) for v in random_configuration(ambient, size, 0)))
    calls = counted_cone_from_rays(monkeypatch)
    dec = gkz_decomposition(w)
    assert dec.chamber_count > 1
    assert calls == [tuple(w)]


@pytest.mark.usefixtures("fresh_memos")
@pytest.mark.parametrize("ambient, size", [(3, 6), (4, 5)])
def test_a_chamber_is_cut_by_each_wall_once_and_never_by_its_own_facet(monkeypatch, ambient, size):
    cuts = []
    real_cut_all = cones._cut_all

    def recording(cone, normals):
        normals = list(normals)
        cuts.append((cone, normals))
        return real_cut_all(cone, normals)

    monkeypatch.setattr(cones, "_cut_all", recording)
    gkz_decomposition(random_configuration(ambient, size, 0))
    assert any(normals for _, normals in cuts)
    for cone, normals in cuts:
        assert len(set(normals)) == len(normals)
        assert not set(normals) & set(cone.facet_normals)


@pytest.mark.usefixtures("fresh_memos")
def test_integer_configurations_never_build_fractions(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built for integer input")

    monkeypatch.setattr(cones, "_coerce_fraction", refuse)
    gkz_decomposition([(1, 0, 0), (2, -1, 0), (3, -2, -1), (0, 1, 0), (0, 0, 1)])


@pytest.mark.usefixtures("fresh_memos")
def test_no_subset_larger_than_a_basis_is_enumerated(monkeypatch):
    sizes = []

    def recording(items, r):
        sizes.append(r)
        return combinations(items, r)

    monkeypatch.setattr(cones, "combinations", recording)
    gkz_decomposition([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 3)])
    assert sizes and max(sizes) <= 3


# ---------------------------------------------------------------- chamber oracle

def laplace_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def cramer_forms(w):
    """For each basis of w (an index tuple), linear forms with the signs of a point's Cramer coefficients.

    The coefficient of basis vector j is det(basis with vector j replaced by
    the point) / det(basis).  Expanded along row j, the numerator is the
    point dotted with (-1)^j times the cofactor vector of the other vectors;
    scaled by det(basis), that form has the sign of the coefficient.
    """
    forms = []
    for basis in combinations(range(len(w)), len(w[0])):
        rows = [list(w[i]) for i in basis]
        base = laplace_det(rows)
        if base != 0:
            forms.append((basis, [
                [(-1) ** j * base * c for c in cofactor_vector(rows[:j] + rows[j + 1 :])]
                for j in range(len(rows))
            ]))
    return forms


def cramer_signs(forms, point):
    """For each basis, numbers with the signs of point's Cramer coefficients (see cramer_forms)."""
    for basis, rows in forms:
        yield basis, [dot(row, point) for row in rows]


def basis_signature(forms, point):
    """The bases whose cone holds point in its interior, from the configuration's cramer_forms.

    A point on the boundary of a basis cone has no well-defined signature.
    """
    inside = set()
    for basis, signs in cramer_signs(forms, point):
        assert min(signs) != 0, "%s is on the boundary of the cone over %s" % (point, basis)
        if min(signs) > 0:
            inside.add(basis)
    return frozenset(inside)


def generic_support_points(w, forms, count, rng):
    """Positive combinations of w that lie on no hyperplane spanned by w."""
    points = []
    for _ in range(50 * count):
        coeffs = [rng.randint(1, 20) for _ in w]
        p = [sum(c * v[i] for c, v in zip(coeffs, w)) for i in range(len(w[0]))]
        if all(0 not in signs for _, signs in cramer_signs(forms, p)):
            points.append(p)
            if len(points) == count:
                return points
    raise AssertionError("no generic points found")


def strictly_inside(chamber, point):
    return all(sum(a * b for a, b in zip(n, point)) > 0 for n in chamber.facet_normals)


def random_configuration(ambient, size, seed):
    rng = random.Random("chamber-oracle:%d:%d:%d" % (ambient, size, seed))
    return [
        tuple([rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(ambient - 1)])
        for _ in range(size)
    ]


def tower_configuration(r):
    """A full tower of Picard rank r over a projective space, as Q(r, r+1) has it.

    In the basis (D1, E1, ..., E_{r-1}): the boundary E_j and the colors
    D_i = i*D1 - sum_{j<i} (i-j)*E_j for i = 1, ..., r+1 (Vainsencher 1984).
    """
    boundary = [tuple(int(t == j) for t in range(r)) for j in range(1, r)]
    colors = [tuple(i if t == 0 else -(i - t) * (t < i) for t in range(r)) for i in range(1, r + 2)]
    return boundary + colors


def kind_configuration(kind):
    """The integer vectors that spaces.mori_chambers decomposes, scaled to clear denominators."""
    model = spaces.build_model(kind)
    vectors = []
    for label in tuple(model.boundary) + tuple(model.colors):
        coords = model.class_coordinates(label)
        scale = math.lcm(*(Fraction(c).denominator for c in coords))
        vectors.append(tuple(int(c * scale) for c in coords))
    return vectors


ORACLE_CASES = [
    ("random", (ambient, size, seed))
    for ambient, size in ((3, 5), (3, 6), (4, 5))
    for seed in range(2)
] + [
    ("kind", kind)
    for kind in (
        spaces.Quadrics(4, 3),
        spaces.Collineations(2, 2, 2),
        spaces.VeroneseBlowup(4, 4, 2),
    )
]


TOWER_CASES = [("tower", r) for r in (3, 4, 5)]


def oracle_case(source, spec):
    """The configuration of a case and its decomposition."""
    if source == "random":
        w = random_configuration(*spec)
    elif source == "tower":
        w = tower_configuration(spec)
    else:
        return kind_configuration(spec), spaces.mori_chambers(spec)
    return w, gkz_decomposition(w)


def chamber_signatures(forms, dec):
    """The basis-cone signature of each chamber, at the sum of its rays."""
    signatures = []
    for chamber in dec.chambers:
        interior = [sum(col) for col in zip(*chamber.rays)]
        signature = basis_signature(forms, interior)
        assert signature, chamber
        signatures.append(signature)
    return signatures


@pytest.mark.parametrize("source, spec", ORACLE_CASES + [("tower", 5)], ids=str)
def test_chambers_match_the_basis_cone_oracle(source, spec):
    w, dec = oracle_case(source, spec)
    forms = cramer_forms(w)
    signatures = chamber_signatures(forms, dec)
    assert len(set(signatures)) == len(signatures)

    for point in generic_support_points(w, forms, 32, random.Random(repr(spec))):
        owners = [i for i, chamber in enumerate(dec.chambers) if strictly_inside(chamber, point)]
        assert len(owners) == 1, point
        assert basis_signature(forms, point) == signatures[owners[0]], point


@pytest.mark.parametrize("source, spec", ORACLE_CASES + TOWER_CASES, ids=str)
def test_the_chambers_form_a_fan(source, spec):
    """A fan certificate that reads the chambers alone.

    Every facet of a chamber, keyed by its hyperplane and its rays, is either
    shared by exactly two chambers with opposite normals, or is the facet of
    one chamber on a hyperplane with all of W on its inner side, so on the
    support boundary.  The chambers' Cramer signatures are distinct.
    """
    w, dec = oracle_case(source, spec)
    facets = {}
    for chamber in dec.chambers:
        assert len(chamber.facet_normals) >= len(w[0])
        for n in chamber.facet_normals:
            rays = frozenset(r for r in chamber.rays if dot(n, r) == 0)
            assert fraction_rank(rays) == len(w[0]) - 1, (chamber, n)
            line = max(n, tuple(-x for x in n))
            facets.setdefault((line, rays), []).append(n)
    interior = 0
    for (line, rays), normals in facets.items():
        if len(normals) == 2:
            assert normals[0] == tuple(-x for x in normals[1]), (line, rays)
            interior += 1
        else:
            assert len(normals) == 1, (line, rays)
            assert all(dot(normals[0], v) >= 0 for v in w), (line, rays)
    assert interior or dec.chamber_count == 1
    signatures = chamber_signatures(cramer_forms(w), dec)
    assert len(set(signatures)) == len(signatures)


def test_tower_chamber_counts():
    """Towers of Picard rank 3 to 5 over a projective space: 9, 34 and 176 chambers."""
    counts = [gkz_decomposition(tower_configuration(r)).chamber_count for r in (3, 4, 5)]
    assert counts == [9, 34, 176]
    assert set(kind_configuration(spaces.Quadrics(3, 4))) == set(tower_configuration(3))


@pytest.mark.usefixtures("fresh_memos")
def test_the_walk_makes_few_splits(monkeypatch):
    """Tower 4 needs 498 single cuts: 26 to find the first cell and the rest
    to build its 34 chambers.  Slicing it into all 582 cells of its
    arrangement took 5,220."""
    calls = []
    real_split = cones._split

    def counting(cone, normal):
        calls.append(normal)
        return real_split(cone, normal)

    monkeypatch.setattr(cones, "_split", counting)
    assert gkz_decomposition(tower_configuration(4)).chamber_count == 34
    assert len(calls) <= 500


# ---------------------------------------------------------------- normal table oracle

TABLE_CASES = [("random", (ambient, size, seed)) for ambient, size in ((2, 5), (3, 6), (4, 6)) for seed in range(3)]
# coplanar triples and a dependent quadruple, so some bases are dependent
TABLE_CASES += [
    ("fixed", ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1), (2, 1, 1))),
    ("fixed", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1), (1, 0, 1, 1))),
]


@pytest.mark.parametrize("source, spec", TABLE_CASES, ids=str)
def test_the_normal_table_gives_the_basis_cones_and_the_hyperplanes(source, spec):
    """A second algorithm: cone_from_rays on each basis, and cofactor normals of each (d-1)-subset."""
    w = random_configuration(*spec) if source == "random" else spec
    w = tuple(dict.fromkeys(primitive(v) for v in w))
    ambient = len(w[0])
    normals = dict(cones._spanned_hyperplanes(w, [], ambient))

    hyperplanes = set()
    for subset in combinations(w, ambient - 1):
        x = cofactor_vector(subset)
        if any(x):
            x = primitive(x)
            hyperplanes.add(x if next(c for c in x if c) > 0 else tuple(-c for c in x))
    assert gkz_decomposition(w).hyperplane_normals == tuple(sorted(hyperplanes))

    dependent = 0
    for basis in combinations(range(len(w)), ambient):
        cone = cones._basis_cone(w, basis, normals)
        vectors = [w[i] for i in basis]
        if fraction_rank(vectors) < ambient:
            dependent += 1
            assert cone is None, basis
        else:
            assert cone == cone_from_rays(vectors), basis
    assert dependent or source == "random"


# ---------------------------------------------------------------- intersection oracle

def primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cofactor_vector(vectors):
    """The signed maximal minors of d - 1 vectors in R^d: orthogonal to each, zero when dependent."""
    dim = len(vectors[0])
    return [(-1) ** j * laplace_det([v[:j] + v[j + 1 :] for v in vectors]) for j in range(dim)]


def vertex_enumeration(normals, dim):
    """(rays, facet normals) of {x : n . x >= 0 for all n}, or None without interior.

    Each candidate ray is the cofactor vector of dim - 1 normals, which is
    zero exactly when they are dependent, kept with the sign that satisfies
    every inequality.  The normals span R^dim here, so the cone is pointed
    and has interior exactly when its rays span R^dim; its facets are the
    normals vanishing on dim - 1 independent rays.
    """
    normals = sorted({primitive(n) for n in normals})
    rays = set()
    for subset in combinations(normals, dim - 1):
        x = cofactor_vector(subset)
        if not any(x):
            continue
        signs = [dot(n, x) for n in normals]
        if min(signs) >= 0:
            rays.add(primitive(x))
        elif max(signs) <= 0:
            rays.add(primitive([-c for c in x]))
    if fraction_rank(rays) < dim:
        return None
    facets = [n for n in normals if fraction_rank([r for r in rays if dot(n, r) == 0]) == dim - 1]
    return tuple(sorted(rays)), tuple(sorted(facets))


def random_pointed_cone(rng, dim):
    while True:
        count = rng.randint(1, dim + 2)
        low = rng.choice((0, -3))
        rays = [tuple([rng.randint(low, 3)] + [rng.randint(-3, 3) for _ in range(dim - 1)]) for _ in range(count)]
        try:
            return cone_from_rays(rays, dim)
        except NotPointed:
            continue


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_intersection_matches_a_vertex_enumeration(dim):
    rng = random.Random("intersection-oracle:%d" % dim)
    outcomes = set()
    for _ in range(40):
        a, b = random_pointed_cone(rng, dim), random_pointed_cone(rng, dim)
        expected = vertex_enumeration(a.facet_normals + b.facet_normals, dim)
        meet = a.intersection(b)
        if expected is None:
            assert meet is None, (a, b)
        else:
            assert (meet.rays, meet.facet_normals) == expected, (a, b)
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def random_normal(rng, dim):
    while True:
        n = [rng.randint(-3, 3) for _ in range(dim)]
        if any(n):
            return primitive(n)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_a_cut_matches_a_vertex_enumeration(dim):
    """One Motzkin step by ``n`` and one by ``-n``, each against enumerating
    the cone's facets plus its half-space."""
    rng = random.Random("cut-oracle:%d" % dim)
    outcomes = set()
    for _ in range(60):
        a = random_pointed_cone(rng, dim)
        if not a.is_full_dimensional:
            continue
        n = random_normal(rng, dim)
        for normal in (n, cones._neg(n)):
            half = cones._split(a, normal)
            expected = vertex_enumeration(a.facet_normals + (normal,), dim)
            if expected is None:
                assert half is None, (a, normal)
                outcomes.add("empty")
            else:
                assert (half.rays, half.facet_normals) == expected, (a, normal)
                outcomes.add("unchanged" if half == a else "cut")
    assert outcomes == {"unchanged", "empty", "cut"}


def test_a_cut_skips_ray_pairs_that_share_facets_but_no_edge():
    """Below ambient 6 two rays sharing d - 2 facets always span a 2-face.

    The cone over (square) x (square pyramid) in ambient 6 has rays
    (v, apex) for the square's vertices v; opposite ones share the pyramid's
    four side facets but span no 2-face, since the other two rays lie on
    the same facets.  The cut x1 >= 0 separates such a pair.
    """
    corners = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    sides = ((1, 0), (-1, 0), (0, 1), (0, -1))
    pyramid_vertices = [(x, y, 0) for x, y in corners] + [(0, 0, 1)]
    rays = [(1, a, b) + v for a, b in corners for v in pyramid_vertices]
    square = [(1, -a, -b, 0, 0, 0) for a, b in sides]
    pyramid = [(0, 0, 0, 0, 0, 1)] + [(1, 0, 0, -a, -b, -1) for a, b in sides]
    cone = cones.RationalCone(6, tuple(sorted(rays)), tuple(sorted(square + pyramid)))
    n = (0, 1, 0, 0, 0, 0)
    cut = cones._split(cone, n)
    assert (cut.rays, cut.facet_normals) == vertex_enumeration(cone.facet_normals + (n,), 6)
    assert (1, 0, 0, 0, 0, 1) not in cut.rays


# ---------------------------------------------------------------- reference slicing

def sliced_chambers(w):
    """The chamber complex of w by slicing its support into cells, each half a vertex enumeration.

    The support is cut out by the facet normals of cone(w), the rays of its
    dual.  Each hyperplane spanned by w splits every cell it crosses into
    both halves.  A cell's chamber is the intersection of the basis cones
    that hold the sum of its rays, and cells with one signature give one
    chamber.  Returns the sorted (rays, facet normals) of the chambers.
    """
    dim = len(w[0])
    forms = cramer_forms(w)
    hyperplanes = set()
    for subset in combinations(w, dim - 1):
        x = cofactor_vector(subset)
        if any(x):
            hyperplanes.add(max(primitive(x), primitive([-c for c in x])))
    cells = [vertex_enumeration(vertex_enumeration(w, dim)[0], dim)]
    for n in hyperplanes:
        sliced = []
        for rays, facets in cells:
            if min(dot(n, r) for r in rays) < 0 < max(dot(n, r) for r in rays):
                for side in (n, tuple(-c for c in n)):
                    sliced.append(vertex_enumeration(facets + (side,), dim))
            else:
                sliced.append((rays, facets))
        cells = sliced
    chambers = {}
    for rays, _ in cells:
        signature = basis_signature(forms, [sum(col) for col in zip(*rays)])
        if signature not in chambers:
            walls = [n for basis in signature for n in vertex_enumeration([w[i] for i in basis], dim)[0]]
            chambers[signature] = vertex_enumeration(walls, dim)
    return sorted(chambers.values())


def catalog_configurations():
    """One kind for each distinct configuration that mori_chambers decomposes, parameters up to 6."""
    found = {}
    for cls in spaces._KINDS:
        for params in product(range(1, 7), repeat=len(fields(cls))):
            try:
                kind = cls(*params)
            except ValueError:
                continue
            try:
                spaces.mori_chambers(kind)
            except (CoordinatesUnknown, OutOfScope):
                continue
            found.setdefault(frozenset(kind_configuration(kind)), kind)
    return list(found.values())


@pytest.mark.parametrize(
    "ambient, size, seed",
    [(ambient, size, seed) for ambient, size in ((2, 5), (3, 5), (3, 6), (4, 5)) for seed in range(3)],
)
def test_the_walk_matches_the_reference_slicing(ambient, size, seed):
    w = tuple(dict.fromkeys(primitive(v) for v in random_configuration(ambient, size, seed)))
    dec = gkz_decomposition(w)
    assert [(c.rays, c.facet_normals) for c in dec.chambers] == sliced_chambers(w)


def test_the_walk_matches_the_reference_slicing_on_the_catalog():
    """Ambient 1 has no spanned hyperplane and one chamber, so the slicing starts at ambient 2."""
    kinds = catalog_configurations()
    assert len(kinds) >= 7
    for kind in kinds:
        w = tuple(dict.fromkeys(primitive(v) for v in kind_configuration(kind)))
        dec = spaces.mori_chambers(kind)
        if len(w[0]) == 1:
            assert dec.chamber_count == 1
        else:
            assert [(c.rays, c.facet_normals) for c in dec.chambers] == sliced_chambers(w), kind


# ---------------------------------------------------------------- memos

# each refusal next to an integral call with equal values, which fills the memos
CACHED_NEIGHBOURS = [
    (lambda: cone_from_rays([(1, 0), (0, 1)]), lambda: cone_from_rays([(1.0, 0), (0, 1)]), TypeError),
    (lambda: cone_from_rays([(1, 0), (0, 1)]), lambda: cone_from_rays([(True, 0), (0, 1)]), TypeError),
    (lambda: cone_from_rays([(0, 0), (0, 1)]), lambda: cone_from_rays([(0.0, 0), (0, 1)]), TypeError),
    (lambda: cone_from_rays([(1, 0), (0, 1)]), lambda: cone_from_rays([(1, 0), (0, 1)], 2.0), TypeError),
    (lambda: cone_from_rays([(1, 0), (0, 1)]), lambda: cone_from_rays([(1, 0), (0, 1)], True), TypeError),
    (lambda: cone_from_rays([(1, 0), (0, 1)]), lambda: cone_from_rays([(1, 0), (0, 1, 0)]), DimensionMismatch),
    (lambda: cone_from_rays([(1, 0), (0, 1)]), lambda: cone_from_rays([(1, 0), (0, 1)], 3), DimensionMismatch),
    (lambda: cone_from_rays([(1, 0), (0, 1)]), lambda: cone_from_rays([(1, 0), (-1, 0), (0, 1)]), NotPointed),
    (lambda: cone_from_rays([(1, 0), (-1, 1)]), lambda: cone_from_rays([(1, 0), (-1, 0)]), NotPointed),
    (lambda: gkz_decomposition([(1, 0), (1, 1), (0, 1)]),
     lambda: gkz_decomposition([(1.0, 0), (1, 1), (0, 1)]), TypeError),
    (lambda: gkz_decomposition([(1, 0), (1, 1), (0, 1)]),
     lambda: gkz_decomposition([(False, 1), (1, 0), (1, 1)]), TypeError),
    (lambda: gkz_decomposition([(1, 0), (1, 1), (0, 1)]),
     lambda: gkz_decomposition([(1, 0), (1, 1), (0, 1)], 2.0), TypeError),
    (lambda: gkz_decomposition([(1, 0), (1, 1), (0, 1)]),
     lambda: gkz_decomposition([(1, 0), (1, 1, 0), (0, 1)]), DimensionMismatch),
    (lambda: gkz_decomposition([(1, 0), (0, 1)]),
     lambda: gkz_decomposition([(1, 0), (-1, 0), (0, 1)]), NotPointed),
    (lambda: gkz_decomposition([tuple(int(i == j) for j in range(5)) for i in range(5)]),
     lambda: gkz_decomposition([tuple(int(i == j) for j in range(6)) for i in range(6)]),
     AmbientTooLarge),
    (lambda: cone_from_rays([(1, 0, 0), (0, 1, 0)]),
     lambda: gkz_decomposition([(1, 0, 0), (0, 1, 0)]), NotFullDimensional),
    (lambda: cone_from_rays([(1, 0, 0), (0, 1, 0)]),
     lambda: dual_cone(cone_from_rays([(1, 0, 0), (0, 1, 0)])), NotFullDimensional),
    (lambda: gkz_decomposition([(1, 0), (0, 1)]), lambda: gkz_decomposition([]), NotFullDimensional),
    (lambda: gkz_decomposition([(1, 0), (0, 1)]), lambda: gkz_decomposition([], 0), NotFullDimensional),
    (lambda: gkz_decomposition([(1, 0), (1, 1), (0, 1)]),
     lambda: gkz_decomposition([(1, 0), (1, 1), (0, 1), (0, 0)]), ZeroVector),
    (lambda: gkz_decomposition([(1, 0), (0, 1)]),
     lambda: gkz_decomposition([(1, 0), (0, 1)], 0), DimensionMismatch),
    (lambda: gkz_decomposition([(1,), (2,)]), lambda: gkz_decomposition([()]), ZeroVector),
    (lambda: cone_from_rays([], 2), lambda: cone_from_rays([]), DimensionMismatch),
    (lambda: cone_from_rays([], 2), lambda: cone_from_rays([], 0), DimensionMismatch),
    (lambda: cone_from_rays([], 2), lambda: cone_from_rays([], -2), DimensionMismatch),
    (lambda: cone_from_rays([(1,)]), lambda: cone_from_rays([()]), DimensionMismatch),
]


@pytest.mark.parametrize("cached, refused, error", CACHED_NEIGHBOURS)
def test_the_memos_hide_no_refusal(cached, refused, error, fresh_memos):
    cached()
    for _ in range(3):
        with pytest.raises(error):
            refused()
        cached()


@pytest.mark.parametrize("ambient, size", [(3, 5), (3, 6), (4, 5)])
def test_memoised_fans_equal_fans_built_afresh(ambient, size, fresh_memos):
    w = random_configuration(ambient, size, 2)
    first = gkz_decomposition(w)
    support = cone_from_rays(w)
    assert gkz_decomposition(w) is first and cone_from_rays(w) is support
    fresh_memos()
    assert gkz_decomposition(w) is not first
    assert gkz_decomposition(w) == first and cone_from_rays(w) == support
    # another spelling of the configuration is another key, with the same fan
    assert gkz_decomposition([tuple(2 * x for x in v) for v in reversed(w)]) == first


def test_a_rational_ray_shares_the_cone_of_its_primitive_vector(fresh_memos):
    cone = cone_from_rays([(1, 0), (0, 1)])
    assert cone_from_rays([(Fraction(1, 2), 0), (0, 3), (0, 0)]) is cone
    assert cone_from_rays([(0, 1), (1, 0)]) == cone
