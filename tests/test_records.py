"""The behaviour of every public record type, pinned.

Each record is a frozen dataclass as far as a caller can tell: its ``repr``,
its ``==``/``!=`` (``NotImplemented`` against another class), its ``hash``,
``FrozenInstanceError`` on assignment and deletion, ``fields``/``asdict``/
``astuple``/``replace``, ``copy.copy`` and ``pickle``, and the
``__post_init__`` checks that refuse bad input.  The ``repr`` literals and
the ``asdict``/``astuple`` digest were taken from the generated dataclass
methods, so any hand-written replacement has to match them exactly.
"""

import copy
import hashlib
import pickle
from dataclasses import FrozenInstanceError, astuple, asdict, fields, is_dataclass, replace
from fractions import Fraction

import pytest

from completeforms import spaces
from completeforms.cones import cone_from_rays, gkz_decomposition
from completeforms.determinantal import RankCensus
from completeforms.groups import PGL, GroupProduct, SemidirectLeft, SemidirectRight, SwapGroup
from completeforms.lattice import (
    AbelianGroupDescriptor,
    IntegerMatrix,
    RationalVector,
    smith_normal_form,
)
from completeforms.polynomials import SparsePoly, minor_det
from completeforms.reports import VerificationReport
from completeforms.secants import segre_secant_invariants, veronese_secant_invariants
from completeforms.spaces import (
    Collineations,
    DictionaryEntry,
    DivisorClass,
    KontsevichGr,
    KontsevichP,
    KontsevichPxP,
    Quadrics,
    SegreBlowup,
    VeroneseBlowup,
)

# record type -> (a builder of one instance, a builder of a different
# instance of the same type or None when the type has one value, the repr)
RECORDS = {
    "IntegerMatrix": (
        lambda: IntegerMatrix(((1, 2), (3, 4))),
        lambda: IntegerMatrix(((1,),)),
        "IntegerMatrix(entries=((1, 2), (3, 4)))",
    ),
    "RationalVector": (
        lambda: RationalVector.of(1, Fraction(1, 2)),
        lambda: RationalVector.of(0),
        "RationalVector(values=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "AbelianGroupDescriptor": (
        lambda: AbelianGroupDescriptor(1, (2, 4)),
        lambda: AbelianGroupDescriptor(0),
        "AbelianGroupDescriptor(free_rank=1, invariant_factors=(2, 4))",
    ),
    "SmithNormalForm": (
        lambda: smith_normal_form(IntegerMatrix(((2, 0), (0, 3)))),
        lambda: smith_normal_form(IntegerMatrix(((1,),))),
        "SmithNormalForm(u=IntegerMatrix(entries=((1, 1), (3, 2))), "
        "d=IntegerMatrix(entries=((1, 0), (0, 6))), "
        "v=IntegerMatrix(entries=((-1, 3), (1, -2))))",
    ),
    "RationalCone": (
        lambda: cone_from_rays([(1, 0), (1, 2)]),
        lambda: cone_from_rays([(1, 0), (0, 1)]),
        "RationalCone(ambient_dim=2, rays=((1, 0), (1, 2)), facet_normals=((0, 1), (2, -1)))",
    ),
    "ChamberDecomposition": (
        lambda: gkz_decomposition([(1, 0), (0, 1), (1, 1)]),
        lambda: gkz_decomposition([(1, 0), (0, 1)]),
        "ChamberDecomposition(ambient_dim=2, "
        "support=RationalCone(ambient_dim=2, rays=((0, 1), (1, 0)), facet_normals=((0, 1), (1, 0))), "
        "chambers=(RationalCone(ambient_dim=2, rays=((0, 1), (1, 1)), facet_normals=((-1, 1), (1, 0))), "
        "RationalCone(ambient_dim=2, rays=((1, 0), (1, 1)), facet_normals=((0, 1), (1, -1)))), "
        "hyperplane_normals=((0, 1), (1, -1), (1, 0)))",
    ),
    "SparsePoly": (
        lambda: minor_det(1, 1, [0, 1], [0, 1]),
        lambda: SparsePoly.constant(3),
        "SparsePoly(terms=(((((0, 0), 1), ((1, 1), 1)), Fraction(1, 1)), "
        "((((0, 1), 1), ((1, 0), 1)), Fraction(-1, 1))))",
    ),
    "VerificationReport": (
        lambda: VerificationReport("check", {"n": 1}, True, {"seen": 2}),
        lambda: VerificationReport("check", {}, False, counterexample={"x": 1}),
        "VerificationReport(name='check', parameters={'n': 1}, passed=True, "
        "counts={'seen': 2}, details={}, counterexample=None)",
    ),
    "SecantInvariants": (
        lambda: segre_secant_invariants(1, 2, 1),
        lambda: veronese_secant_invariants(2, 1),
        "SecantInvariants(kind='segre_secant', n=1, m=2, h=1, dimension=3, degree=3, "
        "ambient_dimension=5, fills_ambient=False)",
    ),
    "PGL": (lambda: PGL(3), lambda: PGL(4), "PGL(size=3)"),
    "SwapGroup": (SwapGroup, None, "SwapGroup()"),
    "GroupProduct": (
        lambda: GroupProduct(PGL(2), SwapGroup()),
        lambda: GroupProduct(SwapGroup(), PGL(2)),
        "GroupProduct(left=PGL(size=2), right=SwapGroup())",
    ),
    "SemidirectLeft": (
        lambda: SemidirectLeft(SwapGroup(), PGL(3)),
        lambda: SemidirectLeft(SwapGroup(), PGL(4)),
        "SemidirectLeft(acting=SwapGroup(), normal=PGL(size=3))",
    ),
    "SemidirectRight": (
        lambda: SemidirectRight(PGL(3), SwapGroup()),
        lambda: SemidirectRight(PGL(2), SwapGroup()),
        "SemidirectRight(normal=PGL(size=3), acting=SwapGroup())",
    ),
    "Collineations": (
        lambda: Collineations(1, 2, 2),
        lambda: Collineations(2, 2, 2),
        "Collineations(n=1, m=2, h=2)",
    ),
    "Quadrics": (lambda: Quadrics(2, 3), lambda: Quadrics(3, 3), "Quadrics(n=2, h=3)"),
    "SegreBlowup": (
        lambda: SegreBlowup(2, 3, 3, 1),
        lambda: SegreBlowup(2, 3, 3, 2),
        "SegreBlowup(n=2, m=3, h=3, k=1)",
    ),
    "VeroneseBlowup": (
        lambda: VeroneseBlowup(1, 3, 1),
        lambda: VeroneseBlowup(3, 4, 2),
        "VeroneseBlowup(n=1, h=3, k=1)",
    ),
    "KontsevichP": (lambda: KontsevichP(2), lambda: KontsevichP(3), "KontsevichP(n=2)"),
    "KontsevichPxP": (
        lambda: KontsevichPxP(1, 2),
        lambda: KontsevichPxP(2, 2),
        "KontsevichPxP(n=1, m=2)",
    ),
    "KontsevichGr": (lambda: KontsevichGr(3), lambda: KontsevichGr(4), "KontsevichGr(n=3)"),
    "DivisorClass": (
        lambda: DivisorClass("E1", (Fraction(1), Fraction(-1, 2))),
        lambda: DivisorClass("E1"),
        "DivisorClass(label='E1', coordinates=(Fraction(1, 1), Fraction(-1, 2)))",
    ),
    "SpaceModel": (
        lambda: spaces.build_model(Quadrics(1, 2)),
        lambda: spaces.build_model(Quadrics(1, 1)),
        "SpaceModel(kind=Quadrics(n=1, h=2), name='Q(1,2)', dimension=2, "
        "secant=SecantInvariants(kind='veronese_secant', n=1, m=None, h=2, dimension=2, "
        "degree=1, ambient_dimension=2, fills_ambient=True), picard_rank=1, basis=('H',), "
        "classes=mappingproxy({'H': DivisorClass(label='H', coordinates=(Fraction(1, 1),)), "
        "'E1': DivisorClass(label='E1', coordinates=(Fraction(2, 1),)), "
        "'D1': DivisorClass(label='D1', coordinates=(Fraction(1, 1),))}), boundary=('E1',), "
        "colors=('D1',), eff_generators=('E1',), nef_generators=('D1',), mov_generators=None, "
        "anticanonical=DivisorClass(label='-K', coordinates=(Fraction(3, 1),)), "
        "stated_chamber_count=1, automorphisms=PGL(size=3))",
    ),
    "DictionaryEntry": (
        lambda: DictionaryEntry("T", "D1", (Fraction(1),)),
        lambda: DictionaryEntry("T", "D1", (Fraction(2),)),
        "DictionaryEntry(source='T', target='D1', image=(Fraction(1, 1),))",
    ),
    "ComparisonDictionary": (
        lambda: spaces.kontsevich_dictionary(KontsevichP(1)),
        lambda: spaces.kontsevich_dictionary(KontsevichP(2)),
        "ComparisonDictionary(source=KontsevichP(n=1), target=VeroneseBlowup(n=1, h=3, k=1), "
        "entries=(DictionaryEntry(source='T', target='D1', image=(Fraction(1, 1),)), "
        "DictionaryEntry(source='Delta', target='E1', image=(Fraction(2, 1),))), "
        "matrix_columns=((Fraction(1, 1),),))",
    ),
    "RankCensus": (
        lambda: RankCensus(1, 2, 2, False, ((0, 1), (1, 15))),
        lambda: RankCensus(1, 2, 2, True, ((0, 1), (1, 15))),
        "RankCensus(a=1, b=2, q=2, symmetric=False, counts=((0, 1), (1, 15)))",
    ),
}

ROWS = pytest.mark.parametrize("name", sorted(RECORDS))


class _Stranger:
    """Not a record: an object of another class that carries the same fields."""


def _outcome(call):
    """What a call gives: its value, or the name of the error it raises."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 - the error class is the outcome
        return type(error).__name__


def _field_values(record):
    return tuple(getattr(record, f.name) for f in fields(record))


def test_every_public_record_type_has_a_row():
    from completeforms import (
        _enumeration, cones, determinantal, groups, lattice, polynomials, reports, secants,
    )

    # RankCensus is defined in the numpy-free _enumeration; determinantal re-exports it
    public = {
        name
        for module in (
            _enumeration, cones, determinantal, groups, lattice, polynomials, reports, secants, spaces,
        )
        for name, value in vars(module).items()
        if not name.startswith("_")
        and is_dataclass(value)
        and value.__module__ == module.__name__
    }
    assert public == set(RECORDS)


@ROWS
def test_the_repr_is_the_dataclass_repr(name):
    make, _, text = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == text


@ROWS
def test_equality_is_by_class_and_fields(name, fresh_memos):
    make, other, _ = RECORDS[name]
    a = make()
    fresh_memos()  # a memoised cone, fan or model would come back as the same object
    b = make()
    assert a is not b
    assert a == b and not (a != b)
    if other is not None:
        assert a != other() and not (a == other())
    stranger = _Stranger()
    stranger.__dict__.update(vars(a))
    assert a.__eq__(stranger) is NotImplemented
    assert a != stranger and not (a == stranger)
    assert a.__eq__(42) is NotImplemented


def test_two_kinds_with_equal_fields_are_not_equal():
    assert KontsevichP(2) != KontsevichGr(2)
    assert KontsevichP(2).__eq__(KontsevichGr(2)) is NotImplemented
    assert DivisorClass("D1") != DictionaryEntry("D1", "D1", ())


@ROWS
def test_the_hash_is_the_hash_of_the_field_tuple(name):
    make, _, _ = RECORDS[name]
    a = make()
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(_field_values(a)))
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(make()))


def test_a_report_is_unhashable_through_its_dict_fields():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(VerificationReport("check", {}, True))


@ROWS
def test_a_record_is_frozen(name):
    make, _, _ = RECORDS[name]
    a = make()
    before = repr(a)
    for field in [f.name for f in fields(a)] + ["extra"]:
        with pytest.raises(FrozenInstanceError, match="cannot assign to field '%s'" % field):
            setattr(a, field, 1)
        with pytest.raises(FrozenInstanceError, match="cannot delete field '%s'" % field):
            delattr(a, field)
    assert repr(a) == before


@ROWS
def test_the_dataclass_functions_work(name):
    make, other, _ = RECORDS[name]
    a = make()
    names = [f.name for f in fields(a)]
    assert is_dataclass(a) and is_dataclass(type(a))
    assert names == list(type(a).__dataclass_fields__)
    assert type(a)(*_field_values(a)) == a
    assert type(a)(**{n: getattr(a, n) for n in names}) == a
    assert replace(a) == a and replace(a) is not a
    if other is not None:
        b = other()
        assert replace(a, **{n: getattr(b, n) for n in names}) == b
    assert type(a).__match_args__ == tuple(names)


def test_asdict_and_astuple_are_pinned():
    text = "\n".join(
        "%s %s %r %r" % (
            name,
            [f.name for f in fields(make())],
            _outcome(lambda: asdict(make())),
            _outcome(lambda: astuple(make())),
        )
        for name, (make, _, _) in sorted(RECORDS.items())
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "36ad1481b9b6208a31f23fae7f946043316f9fc8d7193b3206b2ee032f6ef080"


@ROWS
def test_copy_and_pickle_keep_the_record(name):
    make, _, _ = RECORDS[name]
    a = make()
    c = copy.copy(a)
    assert c == a and c is not a and repr(c) == repr(a)
    # a SpaceModel keeps its classes in a read-only mappingproxy, which does not pickle
    if name == "SpaceModel":
        with pytest.raises(TypeError, match="mappingproxy"):
            pickle.dumps(a)
        return
    p = pickle.loads(pickle.dumps(a))
    assert p == a and repr(p) == repr(a)


def test_defaults_and_default_factories():
    assert AbelianGroupDescriptor(2) == AbelianGroupDescriptor(2, ())
    assert DivisorClass("H").coordinates is None
    a, b = VerificationReport("x", {}, True), VerificationReport("x", {}, True)
    assert a.counts == {} and a.details == {} and a.counterexample is None
    assert a.counts is not b.counts and a.details is not b.details


@pytest.mark.parametrize(
    "call",
    [
        lambda: PGL(),
        lambda: PGL(1, 2),
        lambda: PGL(3, size=3),
        lambda: PGL(size=3, order=2),
        lambda: SwapGroup(1),
        lambda: AbelianGroupDescriptor(invariant_factors=(2,)),
        lambda: VerificationReport("x", {}, True, {}, {}, None, None),
    ],
    ids=["missing", "extra", "twice", "unknown-keyword", "no-fields", "missing-first", "too-many"],
)
def test_a_wrong_argument_list_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: IntegerMatrix(((1, 2), (3,))), "ragged rows"),
        (lambda: AbelianGroupDescriptor(0, (2, 3)), "divisibility chain"),
        (lambda: AbelianGroupDescriptor(0, (1,)), "must be >= 2"),
        (lambda: AbelianGroupDescriptor(-1), "negative free rank"),
        (lambda: replace(AbelianGroupDescriptor(0, (2, 4)), invariant_factors=(2, 3)), "divisibility"),
        (lambda: Collineations(2, 1, 2), "C requires n <= m"),
        (lambda: Quadrics(2, 4), "Q requires 1 <= h <= n\\+1"),
        (lambda: SegreBlowup(n=2, m=3, h=3, k=3), "secS requires 1 <= k <= h-1"),
        (lambda: KontsevichGr(1), "mbar-gr requires n >= 2"),
        (lambda: replace(KontsevichP(2), n=0), "mbar-p requires n >= 1"),
    ],
)
def test_post_init_still_refuses_bad_input(call, error):
    with pytest.raises(Exception, match=error) as caught:
        call()
    assert caught.type.__name__ in ("DimensionMismatch", "ValueError")


def test_a_kind_parameter_must_be_an_int():
    with pytest.raises(TypeError, match="n must be an int, got True"):
        KontsevichP(True)
