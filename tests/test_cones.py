"""Tests for rational cones and chamber decompositions.

Membership is cross-checked by an oracle that samples random nonnegative
rational combinations of the generators; duality and the rays->facets->rays
round trip are checked structurally.  The chamber counts for the fixed
configurations below were worked out by hand (the 2d ones can be read off a
picture, the 3d ones by listing the slicing hyperplanes).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from completeforms import cones
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
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


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
        assert dual_cone(dual_cone(c)) == c


def test_round_trip_rays_to_facets_to_rays():
    # rebuilding a cone from its facet normals' dual recovers the same rays
    c = cone_from_rays([(1, 0, 0), (2, -1, 0), (3, -2, -1)])
    again = dual_cone(dual_cone(c))
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
        assert dual_cone(dual_cone(c)) == c


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
