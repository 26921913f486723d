"""Tests for rational cones and chamber decompositions.

Membership is cross-checked by an oracle that samples random nonnegative
rational combinations of the generators.  dual_cone only swaps rays and facet
normals, so it is checked against cone_from_rays of the facet normals, which
enumerates them; intersections are checked against a vertex enumeration
written here with Laplace determinants.  The chamber counts for the fixed
configurations below were worked out by hand (the 2d ones can be read off a
picture, the 3d ones by listing the slicing hyperplanes).  Chamber
decompositions are also checked against a basis-cone oracle that decides
membership by Cramer's rule and shares no code with the package.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

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
    DimensionMismatch,
    InternalInconsistency,
    NotFullDimensional,
    NotPointed,
)


# ---------------------------------------------------------------- primitives

def test_primitive_vector_normalizes_scale_not_direction():
    assert primitive_vector((2, -4)) == (1, -2)
    assert primitive_vector((Fraction(3, 2), Fraction(-9, 2))) == (1, -3)
    assert primitive_vector((-1, 2)) == (-1, 2)
    assert primitive_vector((2, Fraction(1, 2))) == (4, 1)
    assert primitive_vector((0, 6, -9)) == (0, 2, -3)
    with pytest.raises(ValueError):
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
        gkz_decomposition([(1, 0, 0, 0, 0)])


def test_degenerate_configuration_rejected():
    with pytest.raises(NotFullDimensional):
        gkz_decomposition([(1, 0, 0), (0, 1, 0)])


def test_non_pointed_configuration_rejected():
    with pytest.raises(NotPointed):
        gkz_decomposition([(1, 0), (-1, 0), (0, 1)])


def test_a_collapsed_chamber_raises_a_typed_error(monkeypatch):
    """The chamber invariant holds under python -O: no bare assert guards it."""
    monkeypatch.setattr(cones, "_cone_from_inequalities", lambda normals, ambient_dim: None)
    with pytest.raises(InternalInconsistency):
        gkz_decomposition([(1, 0), (0, 1)])


def test_integer_configurations_never_build_fractions(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built for integer input")

    monkeypatch.setattr(cones, "Fraction", refuse)
    gkz_decomposition([(1, 0, 0), (2, -1, 0), (3, -2, -1), (0, 1, 0), (0, 0, 1)])


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


def cramer_signs(w, point):
    """For each basis of w (an index tuple), numbers with the signs of point's Cramer coefficients.

    The coefficient of basis vector j is det(basis with vector j replaced by
    point) / det(basis), so its sign is that of the product of the two.
    """
    point = list(point)
    for basis in combinations(range(len(w)), len(point)):
        rows = [list(w[i]) for i in basis]
        base = laplace_det(rows)
        if base != 0:
            yield basis, [
                laplace_det(rows[:j] + [point] + rows[j + 1 :]) * base for j in range(len(rows))
            ]


def basis_signature(w, point):
    """The bases of w whose cone holds point in its interior.

    A point on the boundary of a basis cone has no well-defined signature.
    """
    inside = set()
    for basis, signs in cramer_signs(w, point):
        assert min(signs) != 0, "%s is on the boundary of the cone over %s" % (point, basis)
        if min(signs) > 0:
            inside.add(basis)
    return frozenset(inside)


def generic_support_points(w, count, rng):
    """Positive combinations of w that lie on no hyperplane spanned by w."""
    points = []
    for _ in range(50 * count):
        coeffs = [rng.randint(1, 20) for _ in w]
        p = [sum(c * v[i] for c, v in zip(coeffs, w)) for i in range(len(w[0]))]
        if all(0 not in signs for _, signs in cramer_signs(w, p)):
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


@pytest.mark.parametrize("source, spec", ORACLE_CASES, ids=str)
def test_chambers_match_the_basis_cone_oracle(source, spec):
    if source == "random":
        w = random_configuration(*spec)
        dec = gkz_decomposition(w)
    else:
        w = kind_configuration(spec)
        dec = spaces.mori_chambers(spec)
    signatures = []
    for chamber in dec.chambers:
        interior = [sum(col) for col in zip(*chamber.rays)]
        signature = basis_signature(w, interior)
        assert signature, chamber
        signatures.append(signature)
    assert len(set(signatures)) == len(signatures)

    for point in generic_support_points(w, 32, random.Random(repr(spec))):
        owners = [i for i, chamber in enumerate(dec.chambers) if strictly_inside(chamber, point)]
        assert len(owners) == 1, point
        assert basis_signature(w, point) == signatures[owners[0]], point


# ---------------------------------------------------------------- intersection oracle

def primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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
        x = [(-1) ** j * laplace_det([n[:j] + n[j + 1 :] for n in subset]) for j in range(dim)]
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
