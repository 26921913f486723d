"""Tests for the space catalog: invariants, cones, chambers, dictionaries."""

import dataclasses
import inspect
import itertools
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from completeforms import cli, spaces
from completeforms.errors import CoordinatesUnknown, InternalInconsistency, OutOfScope
from completeforms.groups import (
    GroupProduct,
    PGL,
    SemidirectLeft,
    SemidirectRight,
    SwapGroup,
)
from completeforms.secants import segre_secant_invariants, veronese_secant_invariants
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


def test_building_a_twin_runs_no_fibration_rule(monkeypatch):
    """A twin reads its rank, labels, stated count and dimension off its form
    space's shape and writes its own coordinates, so building every mbar-p(n)
    and mbar-pxp(n,m) with n <= m <= 8 unmemoised never calls the fibration
    rule; building a form space with coordinates calls it once."""
    calls = []
    rule = spaces._fibration_tower
    monkeypatch.setattr(spaces, "_fibration_tower", lambda *args: calls.append(args) or rule(*args))
    twins = [KontsevichP(n) for n in range(1, 9)]
    twins += [KontsevichPxP(n, m) for n in range(1, 9) for m in range(n, 9)]
    for kind in twins:
        assert spaces._model.__wrapped__(kind)[0].has_coordinates, spaces.space_name(kind)
    assert len(twins) == 44 and calls == []
    spaces._model.__wrapped__(Collineations(2, 3, 2))
    assert len(calls) == 1


# the secant variety of each kind's form space, written out per kind
FORM_SECANTS = {
    Collineations: lambda s: segre_secant_invariants(s.n, s.m, s.h),
    SegreBlowup: lambda s: segre_secant_invariants(s.n, s.m, s.h),
    Quadrics: lambda s: veronese_secant_invariants(s.n, s.h),
    VeroneseBlowup: lambda s: veronese_secant_invariants(s.n, s.h),
    KontsevichP: lambda s: veronese_secant_invariants(s.n, 3),
    KontsevichPxP: lambda s: segre_secant_invariants(s.n, s.m, 2),
    KontsevichGr: lambda s: veronese_secant_invariants(s.n, 4),
}


def every_kind_up_to(top):
    """Every kind whose parameters pass the parameter rule, with n <= m <= top."""
    for cls in FORM_SECANTS:
        letters = [f.name for f in dataclasses.fields(cls)]
        for values in itertools.product(range(1, top + 2), repeat=len(letters)):
            try:
                kind = cls(*values)
            except ValueError:
                continue
            if getattr(kind, "m", kind.n) <= top:
                yield kind


def test_a_model_keeps_the_secant_of_its_form_space():
    without = []
    for kind in every_kind_up_to(5):
        model = build_model(kind)
        try:
            expected = FORM_SECANTS[type(kind)](kind)
        except ValueError:
            expected = None
        assert model.secant == expected, kind
        if expected is None:
            without.append(kind)
            form = spaces._form_space(kind)
            assert "dimension" in spaces._KINDS[type(form)].model(form), kind
        else:
            assert model.dimension == expected.dimension, kind
    assert without == [VeroneseBlowup(1, 3, 1), KontsevichP(1), KontsevichGr(2)]


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


def test_a_basis_has_one_class_per_picard_rank():
    """Every kind with n, m, h, k <= 8 that has coordinates, whether a builder
    or the discrepancy rule writes its basis."""
    kinds = [k for k in every_kind_up_to(8) if max(spaces.kind_parameters(k).values()) <= 8]
    models = [build_model(kind) for kind in kinds]
    with_basis = [model for model in models if model.basis is not None]
    assert (len(models), len(with_basis)) == (684, 190)
    for model in with_basis:
        assert model.picard_rank == len(model.basis), model.name


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


def _full_tower_names(top):
    """Each full tower with n <= m <= top: its C or Q name, a secS or secV name, and n.

    A full tower takes all h-1 steps; at h = n+1 over square or symmetric
    forms the last center is a divisor, so the first n-1 steps give it too.
    """
    for n in range(1, top + 1):
        for h in range(2, n + 2):
            for k in [h - 1] + ([n - 1] if h == n + 1 and n >= 2 else []):
                yield Quadrics(n, h), VeroneseBlowup(n, h, k), n
                for m in range(n, top + 1) if k == h - 1 else [n]:
                    yield Collineations(n, m, h), SegreBlowup(n, m, h, k), n


def _named_by_its_steps(data, n):
    """A full tower's to_dict under the label rule of a name with n-1 of its n steps:
    the boundary class E_n is that name's color D_{n+1}."""
    top, color = "E%d" % n, "D%d" % (n + 1)

    def renamed(labels):
        return None if labels is None else [color if label == top else label for label in labels]

    return {
        **data,
        "boundary": [label for label in data["boundary"] if label != top],
        "colors": data["colors"] + [color],
        "classes": dict(zip(renamed(data["classes"]), data["classes"].values())),
        **{
            key: renamed(data[key])
            for key in ("effective_generators", "nef_generators", "moving_generators")
        },
    }


def test_partial_tower_at_full_height_matches_the_complete_space():
    # every full tower gives the same answers under both its names, but for
    # the orbit Picard group, which only the complete-form name records
    pairs = list(_full_tower_names(8))
    assert len(pairs) == 170
    for complete, partial, n in pairs:
        want = build_model(complete).to_dict()
        got = build_model(partial).to_dict()
        if partial.k < partial.h - 1:
            want = _named_by_its_steps(want, n)
        for data in (want, got):
            del data["name"], data["parameters"]
        assert got == want, partial
        if got["basis"] is not None:
            assert mori_chambers(partial).chambers == mori_chambers(complete).chambers
            assert classify_positivity(partial) is classify_positivity(complete)
        assert automorphism_group(partial) == automorphism_group(complete)
        orbit_picard_group(complete)
        with pytest.raises(OutOfScope):
            orbit_picard_group(partial)
    # the admitted secV(1,3;k=1) blows the plane up along a conic divisor
    plane = build_model(VeroneseBlowup(1, 3, 1)).to_dict()
    unnamed = {"name": None, "parameters": None}
    assert {**plane, **unnamed} == {**build_model(Quadrics(1, 2)).to_dict(), **unnamed}


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
    (Quadrics(3, 4), 9),
    (SegreBlowup(2, 3, 2, 1), 3),
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
    for kind in [
        Quadrics(4, 3),
        Collineations(2, 3, 2),
        VeroneseBlowup(4, 4, 2),
        Quadrics(3, 4),
        SegreBlowup(2, 3, 2, 1),
    ]:
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


def wonderful_minus_k(n, m=None):
    """-K of the full tower over P^N of Q(n,n+1) (m None) or C(n,m,n+1), in the
    basis (H, E_1, ..., E_r), as a wonderful variety; it shares no code with
    the fibration rule of ``spaces``.

    These towers are wonderful varieties (De Concini-Procesi 1983): for
    G = SL_{n+1} on quadrics, and G = SL_{n+1} x SL_{m+1} on matrices.  The
    G-stable prime divisors are the boundary E_1..E_n; the colors (B-stable,
    not G-stable) are the D_i, i = 1..n+1, cut by the leading i x i minor,
    but for D_{n+1} over square or symmetric forms, which is the boundary
    divisor E_n.  By Brion (1997; 2007) -K = sum of the boundary + sum_D a_D*D:
    it is the divisor of a B-eigensection of the anticanonical bundle of
    weight 2*rho(P^u), the sum of the roots of the unipotent radical of the
    stabiliser P of the open B-orbit, and the boundary equations have weight
    0.  The minor of D_i has a weight that pairs to some c_i > 0 with the
    coroot of the i-th simple root alpha_i and to 0 with the coroots of the
    others, so a_{D_i} = <2*rho(P^u), alpha_i^vee> / c_i:

    * quadrics: P = B, 2*rho(P^u) = 2*rho, and the principal minor's weight
      is 2*omega_i, twice the fundamental weight, so a_D = 2/2 = 1;
    * square collineations: P = B x B^-, 2*rho(P^u) = (2*rho, 2*rho), and
      the minor's weight is (omega_i, omega_i^*), so a_D = 2;
    * m > n: on the SL_{m+1} side P has Levi T x GL_{m-n}, on the last
      m - n columns, and 2*rho(P^u) = 2*rho - 2*rho(GL_{m-n}).  It pairs to
      2 with alpha_i^vee for i <= n, and to 2 + (m - n - 1) with
      alpha_{n+1}^vee, as each of the m - n - 1 roots e_{n+2} - e_b of
      GL_{m-n} pairs to -1 with it.  So a_D = 2, and m - n + 1 on D_{n+1}.

    The classes are written here: E_j is the j-th unit vector for j <= r,
    D_i = i*H - sum_{j<i, j<=r} (i-j)*E_j, and E_n = D_{n+1} when r = n - 1.
    """
    r = n if m is not None and m > n else n - 1

    def color(i):
        return tuple(i if t == 0 else -(i - t) * (t < i) for t in range(r + 1))

    boundary = [tuple(int(t == j) for t in range(r + 1)) for j in range(1, r + 1)]
    boundary += [color(n + 1)] if r < n else []
    a = {i: 1 if m is None else 2 for i in range(1, n + 1)}
    if r == n:
        a[n + 1] = m - n + 1
    terms = boundary + [tuple(a_i * x for x in color(i)) for i, a_i in a.items()]
    return tuple(sum(column) for column in zip(*terms))


def test_the_wonderful_oracle_reads_the_hand_checked_values():
    assert wonderful_minus_k(4) == (15, -9, -5, -2)
    assert wonderful_minus_k(2, 3) == (12, -5, -1)
    assert wonderful_minus_k(4, 4) == (25, -15, -8, -3)
    assert wonderful_minus_k(1, 1) == (4,)


CATALOG_TOWERS = [Quadrics(1, 2), Quadrics(2, 3), Quadrics(3, 4)]
CATALOG_TOWERS += [Collineations(1, m, 2) for m in range(1, 10)]


@pytest.mark.parametrize("kind", CATALOG_TOWERS, ids=spaces.space_name)
def test_the_catalog_towers_over_projective_space_match_the_wonderful_oracle(kind):
    """Only the C and Q names: a secS or secV name relabels E_n as a color."""
    n, m = kind.n, getattr(kind, "m", None)
    model = build_model(kind)
    assert model.anticanonical.coordinates == wonderful_minus_k(n, m)
    # the classes the oracle writes: the colors and, over square or
    # symmetric forms, the top boundary class E_n = D_{n+1}
    r = len(model.basis) - 1

    def color(i):
        return tuple(i if t == 0 else -(i - t) * (t < i) for t in range(r + 1))

    assert model.colors == tuple("D%d" % i for i in range(1, n + 1 + (r == n)))
    for label in model.colors:
        assert model.class_coordinates(label) == color(int(label[1:]))
    assert len(model.boundary) == n
    if r < n:
        assert model.class_coordinates("E%d" % n) == color(n + 1)


def _towers_over_projective_space():
    """Every full tower over P^N with n <= 8 and n <= m <= 9, coordinates or
    not, with its full C or Q name and what the fibration rule writes for it."""
    for n in range(1, 9):
        for kind in [Quadrics(n, n + 1)] + [Collineations(n, m, n + 1) for m in range(n, 10)]:
            yield kind, spaces._fibration_tower(spaces._tower(kind))


def test_the_discrepancy_rule_matches_the_wonderful_oracle():
    towers = 0
    for kind, rule in _towers_over_projective_space():
        assert rule["minus_k"] == wonderful_minus_k(kind.n, getattr(kind, "m", None)), kind
        towers += 1
    assert towers == 52


def test_the_rule_writes_one_basis_class_per_picard_rank():
    """The rule drops a center of codimension one from the basis; the builder
    reads the rank off the tower's shape (one less over square forms)."""
    towers = 0
    for kind, rule in _towers_over_projective_space():
        assert len(rule["basis"]) == build_model(kind).picard_rank, kind
        towers += 1
    assert towers == 52


# The tables the towers with h <= n were written from by hand before the
# fibration rule wrote them, kept as its reference: (symmetric, h, k, lowest
# n) -> the basis, -K as a function of n and m, and the classes written
# beside the basis.  The rule reads each case's shape off its kind: a secV
# name over symmetric forms, a secS name over pairs (C(n,m,1), taking no
# step, has only its C name).
HALF = Fraction(1, 2)
REFERENCE_TOWERS = {
    (False, 1, 0, 1): (("H1", "H2"), lambda n, m: F(n + 1, m + 1), {}),  # C(n,m,1)
    (False, 2, 1, 2): (  # C(n,m,2)
        ("H1", "H2", "E1"),
        lambda n, m: F(n + 1, m + 1, 2),
        {"D1": (HALF, HALF, HALF), "D2": F(1, 1, 0)},
    ),
    (True, 3, 2, 3): (  # Q(n,3)
        ("H", "E1", "E2"),
        lambda n, m: (Fraction(3 * n + 3, 2), Fraction(1 - n), Fraction(3 - n, 2)),
        {"D1": F(1, 0, 0), "D2": F(2, -1, 0), "D3": F(3, -2, -1)},
    ),
    (True, 3, 1, 3): (  # secV(n,3;1)
        ("H", "E1"),
        lambda n, m: (Fraction(3 * n + 3, 2), Fraction(1 - n)),
        {"D1": F(1, 0), "D2": F(2, -1), "D3": F(3, -2)},
    ),
    (True, 4, 2, 4): (  # secV(n,4;2)
        ("H", "E1", "E2"),
        lambda n, m: (Fraction(2 * n + 2), Fraction(-(3 * n - 2), 2), Fraction(2 - n)),
        {"D1": F(1, 0, 0), "D2": F(2, -1, 0), "D3": F(3, -2, -1), "D4": F(4, -3, -2)},
    ),
}


def _reference_kind(symmetric, h, k, n, m):
    if symmetric:
        return VeroneseBlowup(n, h, k)
    return SegreBlowup(n, m, h, k) if k else Collineations(n, m, h)


def _off_the_reference(rule):
    """The (case, n, m) whose basis, -K or classes ``rule`` writes otherwise
    than the reference tables, for n <= 20 and n <= m <= n+2, given the
    shape ``spaces._tower`` reads off each case's kind; and the count of
    cases checked."""
    off, checked = [], 0
    for (symmetric, h, k, lowest), (basis, minus_k, table) in REFERENCE_TOWERS.items():
        for n in range(lowest, 21):
            for m in [n] if symmetric else range(n, n + 3):
                written = rule(spaces._tower(_reference_kind(symmetric, h, k, n, m)))
                if (written["basis"], written["minus_k"], written["table"]) != (
                    basis, minus_k(n, m), table
                ):
                    off.append((symmetric, h, k, n, m))
                checked += 1
    return off, checked


def test_the_fibration_rule_writes_the_reference_tables():
    assert _off_the_reference(spaces._fibration_tower) == ([], 170)


def _mutant(old, new, name="_fibration_tower"):
    """``spaces.<name>`` with its one ``old`` replaced by ``new``."""
    source = inspect.getsource(getattr(spaces, name))
    assert source.count(old) == 1
    namespace = dict(vars(spaces))
    exec(compile(source.replace(old, new), spaces.__file__, "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize(
    "old, new, off",
    [
        # a color weight: D_i from the pair boundary relation
        ("min(i, j) * (h - max(i, j))", "max(i, j) * (h - min(i, j))", 57),
        # the fibre's codimensions without their -1
        ("1 - codim(j)", "-codim(j)", 110),
        # the symmetric twist (n-h)*D_h/2 read as (n+1-h)*D_h/2
        ("(n - h) * x // 2", "(n + 1 - h) * x // 2", 53),
    ],
)
def test_a_mutant_of_the_fibration_rule_is_caught(old, new, off):
    """Each mutant is off on every case it touches: the 57 C(n,m,2), the 110
    cases with a boundary, the 53 symmetric ones."""
    assert len(_off_the_reference(_mutant(old, new))[0]) == off


def _tower_reprs(**rules) -> dict:
    """The repr of every tower model with n, m <= 6, built unmemoised with
    each of ``rules`` in place of the ``spaces`` function it names, keyed by
    name."""
    reprs = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, rule in rules.items():
            patch.setattr(spaces, name, rule)
        for cls in (Collineations, Quadrics, SegreBlowup, VeroneseBlowup):
            letters = [field.name for field in dataclasses.fields(cls)]
            for values in itertools.product(range(8), repeat=len(letters)):
                params = dict(zip(letters, values))
                if max(params["n"], params.get("m", 0)) > 6:
                    continue
                try:
                    kind = cls(**params)
                except ValueError:
                    continue
                reprs[spaces.space_name(kind)] = repr(spaces._model.__wrapped__(kind)[0])
    return reprs


@pytest.mark.parametrize(
    "old, new, moved",
    [
        # nef keeps the top color D_h in a partial tower
        ("lower + top if plucker or k == h - 1 else lower", "lower + top", 17),
        # D_h is a color even where it is the determinant divisor
        ('() if k == tower.divisor else ("D%d" % h,)', '("D%d" % h,)', 25),
        # the pair colors in the symmetric order, the Plucker classes last
        ("top + lower if plucker else lower + top", "lower + top", 70),
    ],
)
def test_a_mutant_of_the_label_rule_is_caught(old, new, moved):
    """Each mutant changes the model of every tower it touches, of the 287
    with n, m <= 6: the 17 partial towers with labels, the 25 whose last
    center is the determinant divisor (secV(1,3;k=1) among them) and the 70
    full pair towers with 2 <= h <= n."""
    rule = _tower_reprs()
    mutant = _tower_reprs(_tower_labels=_mutant(old, new, "_tower_labels"))
    assert len(rule) == 287
    assert sum(rule[name] != mutant[name] for name in rule) == moved


def test_a_mutant_of_the_determinant_divisor_is_caught():
    """Reading the last center as the determinant divisor over every square
    or symmetric form, not only at h = n+1, puts the top E_j of Q(n,3) and
    C(n,n,2) out of the basis: the fibration rule leaves the reference tables
    on those 37 cases, and each of the 112 square or symmetric tower models
    with h <= n <= 6 changes."""
    mutant = _mutant("h - 1 if h == n + 1 and n == m else None", "h - 1 if n == m else None", "_tower")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_tower", mutant)
        off, checked = _off_the_reference(spaces._fibration_tower)
    assert checked == 170 and len(off) == 37
    rule = _tower_reprs()
    moved = _tower_reprs(_tower=mutant)
    assert sum(rule[name] != moved[name] for name in rule) == 112


def test_positivity_table_for_the_two_step_symmetric_model():
    expected = {1: "Fano", 2: "Fano", 3: "Fano", 4: "Fano", 5: "Fano", 6: "Fano",
                7: "WeakFano", 8: "LogFanoNumerical", 9: "LogFanoNumerical",
                10: "LogFanoNumerical", 11: "LogFanoNumerical", 12: "LogFanoNumerical"}
    for n, label in expected.items():
        assert classify_positivity(VeroneseBlowup(n, 3, 1)).value == label, n
        assert classify_positivity(KontsevichP(n)).value == label, n


def test_positivity_table_for_the_quadric_model():
    assert classify_positivity(Quadrics(2, 3)) is PositivityClass.FANO
    assert classify_positivity(Quadrics(3, 4)) is PositivityClass.FANO
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


def test_a_dictionary_runs_no_builder_again(monkeypatch, fresh_memos):
    """The dictionary rule comes from the model memo with the model, so each
    mapping space's builder runs once, for its model, and not again."""
    runs = dict.fromkeys(spaces._KINDS, 0)

    def counted(cls, builder):
        def run(kind):
            runs[cls] += 1
            return builder(kind)

        return run

    for cls, entry in list(spaces._KINDS.items()):
        monkeypatch.setitem(spaces._KINDS, cls, entry._replace(model=counted(cls, entry.model)))
    for kind in (KontsevichP(2), KontsevichPxP(2, 3), KontsevichGr(5)):
        build_model(kind)
        kontsevich_dictionary(kind)
        assert runs[type(kind)] == 1, kind


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


def test_product_identity_fails_when_the_model_disagrees(monkeypatch, capsys):
    """The negative control: an anticanonical class moved off the identity fails it."""
    real = spaces.build_model

    def perturbed(kind):
        model = real(kind)
        coords = model.anticanonical.coordinates
        moved = dataclasses.replace(model.anticanonical, coordinates=(coords[0] + 1,) + coords[1:])
        return dataclasses.replace(model, anticanonical=moved)

    monkeypatch.setattr(spaces, "build_model", perturbed)
    assert sanity_check_knm(2, 3).passed is False
    assert cli.main("verify --check knm-identity --n 2 --m 3".split()) == 1
    assert '"passed": false' in capsys.readouterr().out


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
# memoised models and fans


def _every_kind_up_to(top):
    """Every kind with parameters n <= m <= top, all admitted h and k."""
    for n in range(1, top + 1):
        yield KontsevichP(n)
        if n >= 2:
            yield KontsevichGr(n)
        for h in range(1, n + 2):
            yield Quadrics(n, h)
            yield from (VeroneseBlowup(n, h, k) for k in range(1, h))
        for m in range(n, top + 1):
            yield KontsevichPxP(n, m)
            for h in range(1, n + 2):
                yield Collineations(n, m, h)
                yield from (SegreBlowup(n, m, h, k) for k in range(1, h))


def _answers(kind):
    """The model and each cone, chamber and positivity answer, or the refusal's class."""
    model = build_model(kind)
    answers = [model]
    for query in (model.effective_cone, model.nef_cone, model.moving_cone, model.chambers,
                  model.positivity):
        try:
            answers.append(query())
        except (CoordinatesUnknown, OutOfScope) as error:
            answers.append(type(error).__name__)
    return answers


def test_memoised_answers_equal_answers_built_afresh(fresh_memos):
    kinds = list(_every_kind_up_to(8))
    # in one pass, siblings of a family answer from each other's memos
    cached = [_answers(kind) for kind in kinds]
    assert sum(not isinstance(a, str) for answers in cached for a in answers[1:]) > 800
    for kind, answers in zip(kinds, cached):
        fresh_memos()
        assert _answers(kind) == answers, kind


def test_a_model_is_shared_by_equal_kinds(fresh_memos):
    model = build_model(Quadrics(4, 3))
    assert build_model(Quadrics(4, 3)) is model
    assert build_model(VeroneseBlowup(4, 3, 2)) is not model
    fresh_memos()
    assert build_model(Quadrics(4, 3)) is not model
    assert build_model(Quadrics(4, 3)) == model


def test_siblings_of_a_family_share_their_fan(fresh_memos):
    """Q(3..6,3) decompose the same five vectors: the second asks no new cone."""
    from completeforms import cones

    first = mori_chambers(Quadrics(4, 3))
    built = cones._cone.cache_info().misses
    assert mori_chambers(Quadrics(5, 3)) is first
    assert cones._cone.cache_info().misses == built


@pytest.mark.parametrize("stranger", [(4, 3), "Q(4,3)", None, {"n": 4, "h": 3}, [4, 3]])
def test_the_model_memo_hides_no_refusal(stranger, fresh_memos):
    build_model(Quadrics(4, 3))
    for _ in range(3):
        with pytest.raises(TypeError, match=r"^not a space kind: %s$" % re.escape(repr(stranger))):
            build_model(stranger)


# ---------------------------------------------------------------------------
# import footprint


def _cli_runs(commands):
    """Code that runs each command through ``cli.main`` in process, stdout
    discarded, and fails unless each exits with its code in ``commands``."""
    return (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = {c: completeforms.cli.main(c.split()) for c in %r}\n"
        "if codes != %r:\n"
        "    raise SystemExit(codes)" % (list(commands), commands)
    )


# each layer is imported, and the closed forms, the numpy-free commands (the
# F_2 enumerating checks among them) and odd-q requests refused by format,
# budget or primality are also run, in a fresh interpreter; none of it may
# load numpy
NUMPY_FREE = {
    "completeforms.spaces": "",
    "completeforms.cones": "",
    "completeforms.secants": "completeforms.secants.rank_count_closed_form(2, 3, 1, 3); "
    "completeforms.secants.symmetric_rank_count_closed_form(3, 2, 5); "
    "completeforms.secants.is_prime(10**18 + 3); ",
    "completeforms.cli": _cli_runs(
        {
            "invariants --space Q --n 4 --h 3": 0,
            "chambers --space secV --n 4 --h 4 --k 2": 0,
            "verify --check tangent-cone --n 3 --m 3 --h 3 --k 1 --symmetric": 0,
            "verify --check rh-solve --n 4": 0,
            "verify --check knm-identity --n 2 --m 3": 0,
            "verify --check census --rows 5 --cols 5 --q 2": 2,
            "verify --check census --rows 2 --cols 3 --q 2": 0,
            "verify --check rank-lemma --rows 3 --cols 3 --k 2 --q 2": 0,
            "verify --check component-split --rows 2 --cols 2 --k 1 --q 2": 0,
            "verify --check census --rows 4 --cols 4 --q 3": 2,
            "verify --check rank-lemma --rows 2 --cols 2 --k 1 --q 9": 2,
            "verify --check component-split --rows 0 --cols 2 --k 1 --q 3": 2,
        }
    ),
}


def _numpy_loaded(module, code):
    """Whether numpy is loaded after importing ``module`` and running ``code``."""
    code = "import sys, %s\n%s\nprint('numpy' in sys.modules)" % (module, code)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize("module", list(NUMPY_FREE))
def test_the_catalog_layers_import_without_numpy(module):
    """Only the odd-q enumeration needs numpy; the catalog and the F_2 checks never load it."""
    assert _numpy_loaded(module, NUMPY_FREE[module]) == "False"


def test_the_numpy_probe_sees_a_census_load_numpy():
    """The positive control: a check that walks an odd q loads numpy, and the probe says so."""
    census = _cli_runs({"verify --check census --rows 2 --cols 2 --q 3 --symmetric": 0})
    assert _numpy_loaded("completeforms.cli", census) == "True"
