"""Tests for the space catalog: invariants, cones, chambers, dictionaries."""

import dataclasses
import itertools
import subprocess
import sys
from fractions import Fraction

import pytest

from completeforms import spaces
from completeforms.errors import CoordinatesUnknown, InternalInconsistency, OutOfScope
from completeforms.groups import (
    GroupProduct,
    PGL,
    SemidirectLeft,
    SemidirectRight,
    SwapGroup,
)
from completeforms.spaces import (
    Collineations,
    DivisorClass,
    KontsevichGr,
    KontsevichP,
    KontsevichPxP,
    PositivityClass,
    Quadrics,
    SegreBlowup,
    VeroneseBlowup,
    anticanonical_class,
    automorphism_group,
    build_model,
    classify_positivity,
    divisor_classes,
    effective_cone,
    kontsevich_dictionary,
    mori_chambers,
    nef_cone,
    orbit_picard_group,
    riemann_hurwitz_coefficients,
    sanity_check_knm,
    verify_riemann_hurwitz,
)


def F(*entries):
    return tuple(Fraction(e) for e in entries)


# ---------------------------------------------------------------------------
# kind validation


def test_kind_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Collineations(3, 2, 2)  # n > m
    with pytest.raises(ValueError):
        Collineations(2, 3, 4)  # h > n+1
    with pytest.raises(ValueError):
        Quadrics(0, 1)
    with pytest.raises(ValueError):
        Quadrics(3, 5)
    with pytest.raises(ValueError):
        SegreBlowup(2, 3, 1, 1)  # no blow-up steps available at h = 1
    with pytest.raises(ValueError):
        SegreBlowup(2, 3, 3, 3)  # k > h-1
    with pytest.raises(ValueError):
        VeroneseBlowup(2, 3, 3)
    with pytest.raises(ValueError):
        VeroneseBlowup(1, 3, 2)  # only (1, 3, 1) is admitted degenerately
    with pytest.raises(ValueError):
        KontsevichP(0)
    with pytest.raises(ValueError):
        KontsevichPxP(3, 2)
    with pytest.raises(ValueError):
        KontsevichGr(1)
    with pytest.raises(TypeError):
        Quadrics(3.0, 2)
    # n and m are capped: past 1000 a secant degree product alone takes seconds
    assert (Quadrics(1000, 2).n, Collineations(2, 1000, 2).m) == (1000, 1000)
    with pytest.raises(ValueError, match="n <= 1000"):
        Quadrics(1001, 2)
    with pytest.raises(ValueError, match="n, m <= 1000"):
        Collineations(2, 1001, 2)


# the bounds each kind was written with, one inequality chain per kind
STATED_BOUNDS = {
    Collineations: lambda n, m, h: 1 <= n <= m and 1 <= h <= n + 1,
    Quadrics: lambda n, h: n >= 1 and 1 <= h <= n + 1,
    SegreBlowup: lambda n, m, h, k: 1 <= n <= m and 1 <= h <= n + 1 and 1 <= k <= h - 1,
    VeroneseBlowup: lambda n, h, k: (n, h, k) == (1, 3, 1)
    or (n >= 1 and 1 <= h <= n + 1 and 1 <= k <= h - 1),
    KontsevichP: lambda n: n >= 1,
    KontsevichPxP: lambda n, m: 1 <= n <= m,
    KontsevichGr: lambda n: n >= 2,
}


@pytest.mark.parametrize("cls", list(STATED_BOUNDS), ids=lambda cls: cls.__name__)
def test_a_kind_constructs_exactly_when_its_stated_bounds_hold(cls):
    arity = len(dataclasses.fields(cls))
    for values in itertools.product(range(-1, 7), repeat=arity):
        if STATED_BOUNDS[cls](*values):
            assert dataclasses.astuple(cls(*values)) == values
        else:
            with pytest.raises(ValueError):
                cls(*values)


def test_degenerate_symmetric_triple_is_admitted():
    model = build_model(VeroneseBlowup(1, 3, 1))
    assert model.dimension == 2
    assert model.picard_rank == 1
    assert model.anticanonical.coordinates == F(3)


# ---------------------------------------------------------------------------
# dimensions


def test_frozen_dimensions():
    assert build_model(Collineations(2, 3, 2)).dimension == 9
    assert build_model(Collineations(1, 1, 2)).dimension == 3
    assert build_model(Collineations(3, 3, 4)).dimension == 15
    assert build_model(Quadrics(2, 3)).dimension == 5
    assert build_model(Quadrics(3, 4)).dimension == 9
    assert build_model(Quadrics(6, 1)).dimension == 6
    assert build_model(KontsevichP(3)).dimension == 8
    assert build_model(KontsevichPxP(2, 3)).dimension == 9
    assert build_model(KontsevichGr(3)).dimension == 9


def test_mapping_space_dimensions_match_their_form_space_twins():
    for n in range(1, 7):
        assert (
            build_model(KontsevichP(n)).dimension
            == build_model(VeroneseBlowup(n, 3, 1)).dimension
        )
        for m in range(n, 7):
            assert (
                build_model(KontsevichPxP(n, m)).dimension
                == build_model(Collineations(n, m, 2)).dimension
            )
    for n in range(3, 9):
        assert (
            build_model(KontsevichGr(n)).dimension
            == build_model(VeroneseBlowup(n, 4, 2)).dimension
        )


# ---------------------------------------------------------------------------
# Picard / class ranks


def test_frozen_picard_ranks():
    assert build_model(Collineations(3, 5, 2)).picard_rank == 3
    assert build_model(Collineations(3, 5, 4)).picard_rank == 4
    assert build_model(Collineations(3, 3, 4)).picard_rank == 3
    assert build_model(Quadrics(5, 3)).picard_rank == 3
    assert build_model(Quadrics(5, 6)).picard_rank == 5
    assert build_model(SegreBlowup(3, 5, 3, 1)).picard_rank == 3
    assert build_model(SegreBlowup(3, 3, 4, 3)).picard_rank == 3
    assert build_model(SegreBlowup(3, 5, 4, 2)).picard_rank == 3
    assert build_model(VeroneseBlowup(4, 3, 1)).picard_rank == 2
    assert build_model(VeroneseBlowup(4, 5, 4)).picard_rank == 4
    assert build_model(VeroneseBlowup(4, 5, 3)).picard_rank == 4
    assert build_model(KontsevichP(4)).picard_rank == 2
    assert build_model(KontsevichPxP(4, 4)).picard_rank == 3
    assert build_model(KontsevichGr(2)).picard_rank == 2


def test_color_count_matches_rank_on_complete_kinds():
    for n in range(1, 7):
        for m in range(n, 7):
            for h in range(1, n + 2):
                model = build_model(Collineations(n, m, h))
                assert len(model.colors) == model.picard_rank
    for n in range(1, 7):
        for h in range(1, n + 2):
            model = build_model(Quadrics(n, h))
            assert len(model.colors) == model.picard_rank


def test_rank_splits_into_boundary_and_orbit_free_rank():
    # the boundary classes and the free part of the dense orbit's Picard
    # group together account for the whole class lattice
    for n in range(1, 9):
        for m in range(n, 9):
            for h in range(1, n + 2):
                model = build_model(Collineations(n, m, h))
                orbit = orbit_picard_group(Collineations(n, m, h))
                assert model.picard_rank == len(model.boundary) + orbit.free_rank
    for n in range(1, 9):
        for h in range(1, n + 2):
            model = build_model(Quadrics(n, h))
            orbit = orbit_picard_group(Quadrics(n, h))
            assert model.picard_rank == len(model.boundary) + orbit.free_rank


def test_partial_tower_at_full_height_matches_the_complete_space():
    # with k = n-1 the one missing center is a divisor, so the partial
    # symmetric tower is the complete space and the ranks must agree
    for n in range(2, 7):
        partial = build_model(VeroneseBlowup(n, n + 1, n - 1))
        complete = build_model(Quadrics(n, n + 1))
        assert partial.picard_rank == complete.picard_rank
        assert partial.dimension == complete.dimension


# ---------------------------------------------------------------------------
# orbit Picard groups


def test_orbit_picard_frozen_cases():
    assert str(orbit_picard_group(Collineations(3, 5, 2))) == "Z^2"
    assert str(orbit_picard_group(Collineations(3, 5, 4))) == "Z"
    assert str(orbit_picard_group(Collineations(3, 3, 4))) == "Z/4"
    assert str(orbit_picard_group(Quadrics(5, 3))) == "Z"
    assert str(orbit_picard_group(Quadrics(5, 4))) == "Z/2 + Z"
    assert str(orbit_picard_group(Quadrics(3, 4))) == "Z/4"


def test_orbit_picard_torsion_tracks_parameters():
    for n in range(1, 9):
        group = orbit_picard_group(Collineations(n, n, n + 1))
        assert group.free_rank == 0
        assert group.invariant_factors == (n + 1,) if n >= 1 else ()
        group = orbit_picard_group(Quadrics(n, n + 1))
        assert group.free_rank == 0
        assert group.invariant_factors == (n + 1,)
    for h in range(1, 7):
        group = orbit_picard_group(Quadrics(8, h)) if h <= 8 else None
        if h % 2 == 1:
            assert str(group) == "Z"
        else:
            assert str(group) == "Z/2 + Z"


def test_orbit_picard_out_of_scope_for_other_kinds():
    with pytest.raises(OutOfScope):
        orbit_picard_group(SegreBlowup(2, 3, 3, 1))
    with pytest.raises(OutOfScope):
        orbit_picard_group(VeroneseBlowup(3, 3, 1))
    with pytest.raises(OutOfScope):
        orbit_picard_group(KontsevichP(3))


# ---------------------------------------------------------------------------
# labels and coordinates


def test_quadric_model_labels_and_coordinates():
    model = build_model(Quadrics(4, 3))
    assert model.basis == ("H", "E1", "E2")
    assert model.boundary == ("E1", "E2")
    assert model.colors == ("D1", "D2", "D3")
    assert model.classes["D2"].coordinates == F(2, -1, 0)
    assert model.classes["D3"].coordinates == F(3, -2, -1)
    assert model.eff_generators == ("E1", "E2", "D3")
    assert model.nef_generators == ("D1", "D2", "D3")


def test_collineation_model_labels_and_coordinates():
    model = build_model(Collineations(2, 3, 2))
    assert model.basis == ("H1", "H2", "E1")
    assert model.boundary == ("E1",)
    assert model.colors == ("H1", "H2", "D1")
    assert model.classes["D1"].coordinates == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert model.classes["D2"].coordinates == F(1, 1, 0)
    assert model.mov_generators == model.nef_generators


def test_symmetric_blowup_model_coordinates():
    table = divisor_classes(VeroneseBlowup(5, 4, 2))
    assert table["D4"].coordinates == F(4, -3, -2)
    assert table["P"].coordinates == F(6, -3, -2)
    model = build_model(VeroneseBlowup(5, 4, 2))
    assert model.eff_generators == ("E1", "E2", "D4")
    assert model.mov_generators == ("D1", "D2", "D3", "P")


def test_divisor_classes_raise_when_no_coordinate_model_exists():
    with pytest.raises(CoordinatesUnknown):
        divisor_classes(Quadrics(5, 4))
    with pytest.raises(CoordinatesUnknown):
        divisor_classes(Collineations(3, 4, 3))
    with pytest.raises(CoordinatesUnknown):
        divisor_classes(SegreBlowup(3, 4, 3, 1))
    with pytest.raises(CoordinatesUnknown):
        divisor_classes(KontsevichGr(2))


def test_nef_cone_rays_for_the_quadric_model():
    cone = nef_cone(Quadrics(4, 3))
    assert cone.rays == (F(1, 0, 0), F(2, -1, 0), F(3, -2, -1))
    minus_k = anticanonical_class(Quadrics(4, 3)).coordinates
    assert minus_k == (Fraction(15, 2), Fraction(-3), Fraction(-1, 2))
    assert cone.contains(minus_k, strict=True)


def test_nef_rays_lie_in_the_effective_cone():
    for kind in [
        Quadrics(4, 3),
        Collineations(2, 3, 2),
        VeroneseBlowup(4, 4, 2),
        VeroneseBlowup(3, 3, 1),
        KontsevichP(4),
        KontsevichPxP(2, 2),
        KontsevichGr(4),
    ]:
        eff = effective_cone(kind)
        for ray in nef_cone(kind).rays:
            assert eff.contains(ray)


# ---------------------------------------------------------------------------
# chamber decompositions


CHAMBER_COUNTS = [
    (Quadrics(3, 3), 5),
    (Quadrics(4, 3), 5),
    (Quadrics(7, 3), 5),
    (Quadrics(2, 3), 3),
    (Collineations(2, 2, 2), 3),
    (Collineations(2, 5, 2), 3),
    (Collineations(1, 3, 2), 2),
    (Collineations(1, 1, 2), 1),
    (Collineations(2, 4, 1), 1),
    (VeroneseBlowup(2, 3, 1), 3),
    (VeroneseBlowup(6, 3, 1), 3),
    (VeroneseBlowup(3, 4, 2), 9),
    (VeroneseBlowup(6, 4, 2), 9),
    (VeroneseBlowup(1, 3, 1), 1),
    (KontsevichP(1), 1),
    (KontsevichP(2), 3),
    (KontsevichP(5), 3),
    (KontsevichPxP(1, 1), 1),
    (KontsevichPxP(1, 4), 2),
    (KontsevichPxP(3, 4), 3),
]


def test_chamber_counts_match_the_recorded_values():
    for kind, expected in CHAMBER_COUNTS:
        decomposition = mori_chambers(kind)
        assert decomposition.chamber_count == expected, kind
        assert build_model(kind).stated_chamber_count == expected, kind


def test_nef_cone_is_one_of_the_chambers():
    for kind in [Quadrics(4, 3), Collineations(2, 3, 2), VeroneseBlowup(4, 4, 2)]:
        decomposition = mori_chambers(kind)
        nef = nef_cone(kind)
        assert sum(1 for c in decomposition.chambers if c == nef) == 1


def test_nine_chamber_decomposition_creates_a_new_ray():
    decomposition = mori_chambers(VeroneseBlowup(4, 4, 2))
    assert F(6, -3, -2) in decomposition.rays


def test_chambers_out_of_scope_cases():
    with pytest.raises(OutOfScope):
        mori_chambers(KontsevichGr(4))
    with pytest.raises(CoordinatesUnknown):
        mori_chambers(Quadrics(5, 4))
    with pytest.raises(CoordinatesUnknown):
        mori_chambers(SegreBlowup(3, 4, 3, 1))


def test_a_nef_cone_missing_from_the_chambers_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(spaces.SpaceModel, "nef_cone", lambda model: model.effective_cone())
    with pytest.raises(InternalInconsistency):
        mori_chambers(Quadrics(4, 3))


# ---------------------------------------------------------------------------
# anticanonical classes and positivity


def test_frozen_anticanonical_classes():
    assert anticanonical_class(Quadrics(4, 3)).coordinates == (
        Fraction(15, 2),
        Fraction(-3),
        Fraction(-1, 2),
    )
    assert anticanonical_class(Quadrics(2, 3)).coordinates == F(6, -2)
    assert anticanonical_class(VeroneseBlowup(3, 4, 2)).coordinates == F(10, -5, -2)
    assert anticanonical_class(VeroneseBlowup(5, 4, 2)).coordinates == (
        Fraction(12),
        Fraction(-13, 2),
        Fraction(-3),
    )
    assert anticanonical_class(Collineations(2, 5, 2)).coordinates == F(3, 6, 2)
    assert anticanonical_class(KontsevichPxP(1, 3)).coordinates == F(8, -2)
    assert anticanonical_class(KontsevichGr(5)).coordinates == (
        Fraction(3, 2),
        Fraction(7, 2),
        Fraction(1, 2),
    )
    with pytest.raises(OutOfScope):
        anticanonical_class(Quadrics(5, 4))
    with pytest.raises(OutOfScope):
        anticanonical_class(KontsevichGr(3))


def test_positivity_table_for_the_two_step_symmetric_model():
    expected = {1: "Fano", 2: "Fano", 3: "Fano", 4: "Fano", 5: "Fano", 6: "Fano",
                7: "WeakFano", 8: "LogFanoNumerical", 9: "LogFanoNumerical",
                10: "LogFanoNumerical", 11: "LogFanoNumerical", 12: "LogFanoNumerical"}
    for n, label in expected.items():
        assert classify_positivity(VeroneseBlowup(n, 3, 1)).value == label, n
        assert classify_positivity(KontsevichP(n)).value == label, n


def test_positivity_table_for_the_quadric_model():
    assert classify_positivity(Quadrics(2, 3)) is PositivityClass.FANO
    assert classify_positivity(Quadrics(3, 3)) is PositivityClass.WEAK_FANO
    for n in range(4, 10):
        assert classify_positivity(Quadrics(n, 3)) is PositivityClass.FANO


def test_positivity_table_for_the_three_step_symmetric_model():
    expected = {3: "Fano", 4: "Fano", 5: "Fano", 6: "WeakFano"}
    expected.update({n: "LogFanoNumerical" for n in range(7, 11)})
    for n, label in expected.items():
        assert classify_positivity(VeroneseBlowup(n, 4, 2)).value == label, n


def test_collineation_spaces_in_range_are_all_fano():
    for n in range(1, 7):
        for m in range(n, 7):
            assert classify_positivity(Collineations(n, m, 2)) is PositivityClass.FANO
            assert classify_positivity(KontsevichPxP(n, m)) is PositivityClass.FANO


def test_positivity_out_of_scope_cases():
    with pytest.raises(OutOfScope):
        classify_positivity(KontsevichGr(4))
    with pytest.raises(OutOfScope):
        classify_positivity(Quadrics(5, 4))


# ---------------------------------------------------------------------------
# automorphism groups


def test_automorphism_expressions():
    assert automorphism_group(Collineations(2, 3, 2)) == GroupProduct(PGL(3), PGL(4))
    assert automorphism_group(Collineations(3, 3, 2)) == SemidirectLeft(
        SwapGroup(), GroupProduct(PGL(4), PGL(4))
    )
    assert str(automorphism_group(Collineations(3, 3, 4))) == "(S2 ⋉ (PGL(4) × PGL(4))) ⋊ S2"
    assert automorphism_group(Collineations(1, 1, 2)) == PGL(4)
    assert automorphism_group(Quadrics(4, 3)) == PGL(5)
    assert str(automorphism_group(Quadrics(4, 5))) == "PGL(5) ⋊ S2"
    assert automorphism_group(Quadrics(1, 2)) == PGL(3)
    assert str(automorphism_group(VeroneseBlowup(2, 3, 1))) == "PGL(3) ⋊ S2"
    assert str(automorphism_group(VeroneseBlowup(3, 4, 2))) == "PGL(4) ⋊ S2"
    assert automorphism_group(VeroneseBlowup(1, 3, 1)) == PGL(3)
    assert automorphism_group(KontsevichP(1)) == PGL(3)
    assert str(automorphism_group(KontsevichP(2))) == "PGL(3) ⋊ S2"
    assert automorphism_group(KontsevichP(5)) == PGL(6)
    assert str(automorphism_group(KontsevichGr(3))) == "S2 ⋉ (S2 ⋉ PGL(4))"
    assert str(automorphism_group(KontsevichGr(6))) == "S2 ⋉ PGL(7)"
    assert str(automorphism_group(KontsevichGr(2))) == "PGL(3) ⋊ S2"
    assert automorphism_group(SegreBlowup(3, 3, 2, 1)) == SemidirectLeft(
        SwapGroup(), GroupProduct(PGL(4), PGL(4))
    )


def test_automorphisms_out_of_scope_for_deep_partial_towers():
    with pytest.raises(OutOfScope):
        automorphism_group(VeroneseBlowup(4, 5, 1))
    with pytest.raises(OutOfScope):
        automorphism_group(SegreBlowup(3, 4, 4, 1))
    # but a partial tower missing only divisorial centers is the complete space
    assert str(automorphism_group(VeroneseBlowup(4, 5, 3))) == "PGL(5) ⋊ S2"


# ---------------------------------------------------------------------------
# comparison dictionaries


def test_projective_mapping_dictionary_is_the_identity_on_the_basis():
    psi = kontsevich_dictionary(KontsevichP(5))
    assert psi.matrix_columns == (F(1, 0), F(0, 1))
    assert psi.image_of("H") == F(2, -1)
    assert psi.image_of("Ddeg") == (Fraction(3, 2), Fraction(-1))
    # the nef generators on the secant side pull back to the tangency and
    # incidence classes
    assert psi.inverse_apply(F(1, 0)) == F(1, 0)  # D1 -> T
    assert psi.inverse_apply(F(2, -1)) == F(2, -1)  # D2 -> H
    source_k = build_model(KontsevichP(5)).anticanonical.coordinates
    target_k = build_model(VeroneseBlowup(5, 3, 1)).anticanonical.coordinates
    assert psi.apply(source_k) == target_k


def test_product_mapping_dictionary_matches_the_collineation_model():
    eta = kontsevich_dictionary(KontsevichPxP(2, 3))
    c_model = build_model(Collineations(2, 3, 2))
    for entry in eta.entries:
        assert c_model.classes[entry.target.replace("*", "")].coordinates == entry.image
    source_k = build_model(KontsevichPxP(2, 3)).anticanonical.coordinates
    assert eta.apply(source_k) == c_model.anticanonical.coordinates


def test_grassmannian_pullback_dictionary():
    phi = kontsevich_dictionary(KontsevichGr(4))
    gr = build_model(KontsevichGr(4))
    # tangency classes pull back to the recorded mapping-space classes
    assert phi.apply(F(2, -1, 0)) == gr.classes["T"].coordinates
    assert phi.apply(F(3, -2, -1)) == gr.classes["Hs2"].coordinates
    assert phi.apply(F(4, -3, -2)) == gr.classes["Ddeg"].coordinates
    # the extra chamber ray pulls back to twice the extra moving generator
    doubled = tuple(2 * c for c in gr.classes["P"].coordinates)
    assert phi.apply(F(6, -3, -2)) == doubled
    # and the pullback is invertible on the classes that come from downstairs
    assert phi.inverse_apply(gr.classes["Hs2"].coordinates) == F(3, -2, -1)


def scaled_class(model, target):
    """Coordinates of a dictionary target such as ``D1``, ``2*P`` or ``(1/2)*D3``."""
    scalar, _, label = target.rpartition("*")
    return tuple(Fraction(scalar.strip("()") or 1) * c for c in model.class_coordinates(label))


def test_every_dictionary_image_agrees_with_the_other_model():
    for n in range(3, 9):
        phi = kontsevich_dictionary(KontsevichGr(n))
        cover = build_model(VeroneseBlowup(n, 4, 2))
        assert phi.source == cover.kind
        for entry in phi.entries:
            assert entry.image == phi.apply(cover.class_coordinates(entry.source)), (n, entry)
    twins = [(KontsevichP(n), VeroneseBlowup(n, 3, 1)) for n in range(1, 7)]
    twins += [
        (KontsevichPxP(n, m), Collineations(n, m, 2)) for n in range(1, 7) for m in range(n, 7)
    ]
    for kind, twin in twins:
        psi = kontsevich_dictionary(kind)
        assert psi.target == twin
        for entry in psi.entries:
            assert entry.image == scaled_class(build_model(twin), entry.target), (kind, entry)


def test_dictionaries_refuse_floats():
    # a float would enter as its binary expansion: 0.1 is 3602879701896397/2^55
    psi = kontsevich_dictionary(KontsevichP(3))
    with pytest.raises(TypeError):
        psi.apply((0.1, 0))
    with pytest.raises(TypeError):
        psi.inverse_apply((0.1, 0))
    assert psi.apply((Fraction(1, 10), 0)) == (Fraction(1, 10), Fraction(0))
    assert psi.inverse_apply(("1/10", 0)) == (Fraction(1, 10), Fraction(0))


def test_dictionary_out_of_scope_cases():
    with pytest.raises(OutOfScope):
        kontsevich_dictionary(KontsevichGr(2))
    with pytest.raises(OutOfScope):
        kontsevich_dictionary(Quadrics(3, 3))


# ---------------------------------------------------------------------------
# the double-cover solve and the product identity


def test_double_cover_solve_frozen_case():
    assert riemann_hurwitz_coefficients(4) == (
        Fraction(10),
        Fraction(-5),
        Fraction(-2),
    )


def test_double_cover_solve_whole_range():
    for n in range(4, 11):
        report = verify_riemann_hurwitz(n)
        assert report.passed, report.details
    with pytest.raises(ValueError):
        riemann_hurwitz_coefficients(3)
    with pytest.raises(ValueError):
        riemann_hurwitz_coefficients(11)


def test_product_identity_frozen_case():
    report = sanity_check_knm(2, 3)
    assert report.passed
    assert report.details["long_form"] == {
        "Kn": Fraction(15, 7),
        "Km": Fraction(22, 7),
        "Knm": Fraction(12, 7),
        "Delta": Fraction(8, 7),
    }
    assert report.details["reduced"] == {
        "Kn": Fraction(1),
        "Km": Fraction(2),
        "Knm": Fraction(4),
    }


def test_product_identity_whole_grid():
    for n in range(1, 7):
        for m in range(1, 7):
            assert sanity_check_knm(n, m).passed, (n, m)
    with pytest.raises(ValueError):
        sanity_check_knm(0, 2)


def test_product_identity_is_symmetric_in_the_two_factors():
    forward = sanity_check_knm(2, 5).details["reduced"]
    backward = sanity_check_knm(5, 2).details["reduced"]
    assert forward == {"Kn": Fraction(1), "Km": Fraction(4), "Knm": Fraction(4)}
    assert backward == {"Kn": Fraction(4), "Km": Fraction(1), "Knm": Fraction(4)}


def test_an_unsolvable_double_cover_relation_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(spaces, "solve_rational", lambda rows, rhs: None)
    with pytest.raises(InternalInconsistency):
        riemann_hurwitz_coefficients(4)


# ---------------------------------------------------------------------------
# serialization


def test_model_to_dict_round_trips_through_plain_types():
    payload = build_model(Quadrics(4, 3)).to_dict()
    assert payload["name"] == "Q(4,3)"
    assert payload["parameters"] == {"n": 4, "h": 3}
    assert payload["basis"] == ["H", "E1", "E2"]
    assert payload["classes"]["D3"] == [Fraction(3), Fraction(-2), Fraction(-1)]
    assert payload["automorphisms"] == "PGL(5)"
    no_coords = build_model(Quadrics(5, 4)).to_dict()
    assert no_coords["basis"] is None
    assert no_coords["anticanonical"] is None


def test_a_built_model_cannot_be_changed():
    model = build_model(Quadrics(4, 3))
    with pytest.raises(TypeError):
        model.classes["X"] = DivisorClass("X", F(1, 1, 1))
    assert "X" not in model.classes


# ---------------------------------------------------------------------------
# import footprint


# each layer is imported, and the closed forms are also evaluated, in a fresh
# interpreter; none of it may load numpy
NUMPY_FREE = {
    "completeforms.spaces": "",
    "completeforms.cones": "",
    "completeforms.secants": "completeforms.secants.rank_count_closed_form(2, 3, 1, 3); "
    "completeforms.secants.symmetric_rank_count_closed_form(3, 2, 5); "
    "completeforms.secants.is_prime(10**18 + 3); ",
}


@pytest.mark.parametrize("module", list(NUMPY_FREE))
def test_the_catalog_layers_import_without_numpy(module):
    """Only the finite-field enumeration needs numpy; the catalog never loads it."""
    code = "import sys, %s; %sprint('numpy' in sys.modules)" % (module, NUMPY_FREE[module])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
