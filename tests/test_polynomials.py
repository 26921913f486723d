"""Tests for sparse polynomials, symbolic minors and the tangent cone check.

The leading-form computation is cross-checked by an oracle that works in a
completely different representation: evaluate the polynomial along the
parametrized line shift + t * direction, collect a univariate polynomial in
t by direct expansion, and read off the coefficient of the lowest power.
That coefficient must agree with the claimed leading form evaluated at the
direction vector, for every direction.
"""

import hashlib
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

from completeforms import cli, polynomials
from completeforms.errors import DimensionMismatch, IndexOutOfRange, TooLarge
from completeforms.lattice import IntegerMatrix
from completeforms.polynomials import (
    MAX_MINOR_SIZE,
    MAX_TANGENT_TERMS,
    SparsePoly,
    _SIGNED_PERMUTATIONS,
    matrix_variable,
    minor_det,
    shift_and_leading_form,
    verify_tangent_cone,
)


# ---------------------------------------------------------------- oracle

def univariate_along_line(poly, shifts, direction):
    """Collect p(shift + t*dir) as {power: coefficient}, via its own arithmetic.

    Each variable becomes the affine expression shift_v + t * dir_v; the
    monomial product is expanded with plain convolution on coefficient lists.
    """
    def affine_power(a, b, e):
        # (a + b t)^e as a list of coefficients in t
        out = [Fraction(1)]
        for _ in range(e):
            nxt = [Fraction(0)] * (len(out) + 1)
            for p, c in enumerate(out):
                nxt[p] += c * a
                nxt[p + 1] += c * b
            out = nxt
        return out

    acc = {}
    for mono, coeff in poly.terms:
        prod = [Fraction(coeff)]
        for v, e in mono:
            a = Fraction(shifts.get(v, 0))
            b = Fraction(direction.get(v, 0))
            fac = affine_power(a, b, e)
            nxt = [Fraction(0)] * (len(prod) + len(fac) - 1)
            for p1, c1 in enumerate(prod):
                for p2, c2 in enumerate(fac):
                    nxt[p1 + p2] += c1 * c2
            prod = nxt
        for p, c in enumerate(prod):
            if c != 0:
                acc[p] = acc.get(p, Fraction(0)) + c
    return {p: c for p, c in acc.items() if c != 0}


def variables_of(poly):
    vs = set()
    for mono, _ in poly.terms:
        for v, _ in mono:
            vs.add(v)
    return sorted(vs)


@pytest.mark.parametrize("seed", range(4))
def test_leading_form_matches_line_expansion_oracle(seed):
    rng = random.Random(seed)
    p = minor_det(2, 2, [0, 1, 2], [0, 1, 2])
    shifts = {(0, 0): 1}
    lead = shift_and_leading_form(p, shifts)
    for _ in range(8):
        direction = {v: Fraction(rng.randint(-3, 3)) for v in variables_of(p)}
        series = univariate_along_line(p, {(0, 0): Fraction(1)}, direction)
        if not series:
            assert lead.evaluate(direction) == 0
            continue
        low = min(series)
        # the lowest t-power of the expansion is the leading form's degree,
        # unless the direction happens to kill the leading form entirely
        val = lead.evaluate(direction)
        if val != 0:
            assert low == lead.degree()
            assert series[low] == val
        else:
            assert low > lead.degree() or low == 0 and lead.degree() == 0


# ---------------------------------------------------------------- arithmetic

def test_two_by_two_minor():
    p = minor_det(1, 1, [0, 1], [0, 1])
    assert str(p) == "z00*z11 - z01*z10"


def test_two_by_two_symmetric_minor_identifies_mirror_entries():
    p = minor_det(1, 1, [0, 1], [0, 1], symmetric=True)
    assert str(p) == "z00*z11 - z01^2"


def test_three_by_three_minor_term_count():
    p = minor_det(2, 2, [0, 1, 2], [0, 1, 2])
    assert len(p.terms) == 6
    assert p.degree() == 3
    # evaluate on a concrete integer matrix and compare with the known value
    entries = {(i, j): [[2, 0, 1], [1, -1, 3], [0, 2, 2]][i][j] for i in range(3) for j in range(3)}
    # 2*(-2-6) - 0 + 1*(2-0)
    assert p.evaluate(entries) == -14


def test_minor_size_cap_and_index_checks():
    with pytest.raises(TooLarge):
        minor_det(5, 5, range(6), range(6))
    with pytest.raises(IndexOutOfRange):
        minor_det(1, 1, [0, 2], [0, 1])
    with pytest.raises(DimensionMismatch):
        minor_det(2, 2, [0, 1], [0])
    with pytest.raises(DimensionMismatch):
        minor_det(1, 2, [0], [0], symmetric=True)
    # a repeated index is not read as a smaller minor: the 2x2 submatrix on
    # rows (0, 0) has determinant 0, not z01
    with pytest.raises(DimensionMismatch):
        minor_det(1, 1, [0, 0], [1, 1])
    with pytest.raises(DimensionMismatch):
        minor_det(2, 2, [0, 1], [2, 2])
    # nor is a float or a bool truncated or read as an index
    with pytest.raises(TypeError):
        minor_det(2, 2, [0.7, 1], [0, 2])
    with pytest.raises(TypeError):
        minor_det(2, 2, [0, 1], [True, 2])


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("size", range(6))
def test_minor_matches_the_bareiss_determinant_at_random_points(size, symmetric):
    # oracle: lattice's fraction-free elimination on the same integer submatrix
    rng = random.Random(100 * size + symmetric)
    for _ in range(6):
        point = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        if symmetric:
            point = [[point[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
        rows = rng.sample(range(6), size)
        cols = rows if symmetric and rng.random() < 0.5 else rng.sample(range(6), size)
        p = minor_det(5, 5, rows, cols, symmetric)
        values = {(i, j): point[i][j] for i in range(6) for j in range(6)}
        sub = IntegerMatrix.from_rows([[point[i][j] for j in sorted(cols)] for i in sorted(rows)])
        assert p.evaluate(values) == sub.determinant()


@pytest.mark.parametrize("size", range(6))
def test_general_minor_has_one_unit_term_per_permutation(size):
    p = minor_det(5, 5, range(size), range(6 - size, 6))
    assert len(p.terms) == math.factorial(size)
    # each term is a product of size distinct entries with coefficient +-1
    assert all(abs(c) == 1 and len(mono) == size for mono, c in p.terms)


def cycle_count(perm):
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return cycles


@pytest.mark.parametrize("size", range(MAX_MINOR_SIZE + 1))
def test_the_sign_table_holds_every_permutation_with_its_cycle_sign(size):
    table = _SIGNED_PERMUTATIONS[size]
    assert len(table) == math.factorial(size)
    assert len({perm for perm, _ in table}) == len(table)
    for perm, sign in table:
        assert sorted(perm) == list(range(size))
        assert sign == (-1) ** (size - cycle_count(perm))


@pytest.mark.parametrize("size", range(MAX_MINOR_SIZE + 1))
def test_a_general_minor_is_built_sorted_from_the_lexicographic_sign_table(size):
    # _leibniz builds a general minor's terms in sign-table order and sorts
    # nothing: the table is lexicographic, so the terms come out sorted
    perms = [perm for perm, _ in _SIGNED_PERMUTATIONS[size]]
    assert perms == sorted(perms) == list(itertools.permutations(range(size)))
    rng = random.Random(size)
    for _ in range(5):
        rows = sorted(rng.sample(range(7), size))
        cols = sorted(rng.sample(range(7), size))
        terms = polynomials._leibniz(rows, cols, False).terms
        assert list(terms) == sorted(terms)
        assert len({mono for mono, _ in terms}) == len(terms)


@pytest.mark.parametrize("seed", range(6))
def test_a_shift_moves_the_evaluation_point(seed):
    # oracle: p(z + s) at x is p at the point x + s, for rational, negative
    # and zero shifts of 1-3 variables; symmetric minors have squared variables
    rng = random.Random(seed)
    for _ in range(10):
        symmetric = rng.random() < 0.6
        size = rng.randint(1, 4)
        rows = rng.sample(range(5), size)
        cols = rows if symmetric and rng.random() < 0.5 else rng.sample(range(5), size)
        p = minor_det(4, 4, rows, cols, symmetric)
        names = variables_of(p)
        moved = rng.sample(names, rng.randint(1, min(3, len(names))))
        shifts = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in moved}
        point = {v: Fraction(rng.randint(-6, 6)) for v in names}
        moved_point = {v: x + shifts.get(v, 0) for v, x in point.items()}
        assert p.shift(shifts).evaluate(point) == p.evaluate(moved_point)


@pytest.mark.parametrize("seed", range(6))
def test_a_symmetric_polynomial_reads_a_below_diagonal_key_as_its_variable(seed):
    # oracle: p(z + s) at x is p at x + s, where s and x name each symmetric
    # variable z(i,j) by (i, j) or (j, i) at random; x + s is summed per variable
    rng = random.Random(seed)

    def spelled(values):
        return {(v[1], v[0]) if rng.random() < 0.5 else v: c for v, c in values.items()}

    for _ in range(10):
        size = rng.randint(1, 4)
        rows = rng.sample(range(5), size)
        cols = rows if rng.random() < 0.5 else rng.sample(range(5), size)
        p = minor_det(4, 4, rows, cols, symmetric=True)
        names = variables_of(p)
        moved = rng.sample(names, rng.randint(1, min(3, len(names))))
        shifts = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in moved}
        point = {v: Fraction(rng.randint(-6, 6)) for v in names}
        moved_point = {v: x + shifts.get(v, 0) for v, x in point.items()}
        assert p.shift(spelled(shifts)).evaluate(spelled(point)) == p.evaluate(spelled(moved_point))


def test_a_below_diagonal_shift_moves_a_symmetric_minor_and_not_a_general_one():
    symmetric = minor_det(1, 1, [0, 1], [0, 1], symmetric=True)
    assert str(symmetric.shift({(1, 0): 1})) == "z00*z11 - z01^2 - 2*z01 - 1"
    # in general mode z10 is a variable of its own
    general = minor_det(1, 1, [0, 1], [0, 1])
    assert str(general.shift({(1, 0): 1})) == "z00*z11 - z01*z10 - z01"


def test_a_symmetric_variable_given_two_values_is_refused():
    p = minor_det(1, 1, [0, 1], [0, 1], symmetric=True)
    with pytest.raises(ValueError, match="variable z01 is given two values"):
        p.shift({(0, 1): 1, (1, 0): 2})
    with pytest.raises(ValueError, match="variable z01 is given two values"):
        p.evaluate({(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 3})
    # the entries of a symmetric matrix name each variable twice, with one value
    assert p.shift({(0, 1): 1, (1, 0): 1}) == p.shift({(0, 1): 1})
    assert p.evaluate({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 3}) == -1


def test_everything_computed_from_a_symmetric_polynomial_is_symmetric():
    import copy
    import pickle

    x = SparsePoly.variable(1, 0, symmetric=True)
    y = SparsePoly.variable(0, 1)  # general, but it names z01 either way
    two = SparsePoly.constant(2)
    results = [
        x + two, x - two, -x, x * two, two * x, x.scale(3), x.scale(0),
        (x * x + x).leading_form(), (x * x + x).homogeneous_part(2), x.shift({(0, 1): 1}),
        shift_and_leading_form(x * x, {(0, 1): 1}), copy.copy(x), pickle.loads(pickle.dumps(x)),
    ]
    for p in results:
        assert p.shift({(1, 0): 1}).evaluate({(1, 0): 0}) == p.evaluate({(0, 1): 1})
    # a general operand is read in symmetric mode: its z10 becomes z01
    assert x + SparsePoly.variable(1, 0) == x.scale(2)
    assert (x * y).evaluate({(1, 0): 3}) == 9
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_polynomial_ring_operations():
    x = SparsePoly.variable(0, 0)
    y = SparsePoly.variable(0, 1)
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    assert (p - q).is_zero
    half = p.scale(Fraction(1, 2))
    assert half + half == p
    assert str(SparsePoly.zero()) == "0"
    assert SparsePoly.constant(0).is_zero


def test_shift_expands_binomially():
    x = SparsePoly.variable(0, 0)
    p = x * x  # (z+1)^2 = z^2 + 2z + 1
    shifted = p.shift({(0, 0): 1})
    assert shifted.evaluate({(0, 0): 0}) == 1
    assert shifted.evaluate({(0, 0): 1}) == 4
    assert shifted.leading_form() == SparsePoly.constant(1)
    assert shifted.degree() == 2


@pytest.mark.parametrize("seed", range(6))
def test_shift_and_leading_form_is_the_leading_form_of_the_shift(seed):
    """The degrees the shift counts while it builds the terms select the
    same terms as summing each monomial's degree afterwards."""
    rng = random.Random("shift-lead:%d" % seed)
    symmetric = seed % 2 == 1
    variables = [SparsePoly.variable(i, j, symmetric) for i in range(2) for j in range(2)]
    p = SparsePoly.zero()
    for _ in range(8):
        term = SparsePoly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice(variables)
        p = p + term
    shifts = {(i, j): Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for i in range(2) for j in range(i, 2)}
    lead = shift_and_leading_form(p, shifts)
    assert lead == p.shift(shifts).leading_form()
    assert lead._symmetric == p._symmetric
    assert shift_and_leading_form(p - p, shifts).is_zero


def counted_expansions(monkeypatch):
    """Wraps ``SparsePoly._shifted``, the full expansion, in a call counter."""
    calls = [0]
    real = SparsePoly._shifted

    def counting(self, shifts):
        calls[0] += 1
        return real(self, shifts)

    monkeypatch.setattr(SparsePoly, "_shifted", counting)
    return calls


@pytest.mark.parametrize("symmetric", [False, True])
def test_a_lowest_level_that_cancels_falls_back_to_the_full_shift(symmetric, monkeypatch):
    # z00 - z11 shifted by 1 at both: the constant level 1 - 1 cancels, and
    # the leading form is the linear level, z00 - z11 again
    calls = counted_expansions(monkeypatch)
    p = SparsePoly.variable(0, 0, symmetric) - SparsePoly.variable(1, 1, symmetric)
    shifts = {(0, 0): 1, (1, 1): 1}
    lead = shift_and_leading_form(p, shifts)
    assert calls[0] == 1
    assert lead == p == p.shift(shifts).leading_form()
    assert lead._symmetric == symmetric
    # (z00 - 1)^2 shifted by 1 is z00^2: the constant and linear levels cancel
    x = SparsePoly.variable(0, 0, symmetric)
    q = x * x - x.scale(2) + SparsePoly.constant(1)
    calls[0] = 0
    lead = shift_and_leading_form(q, {(0, 0): 1})
    assert calls[0] == 1
    assert lead == x * x == q.shift({(0, 0): 1}).leading_form()
    assert lead._symmetric == symmetric


def test_the_tangent_cone_anchor_never_expands_a_shift(monkeypatch):
    # every leading form of the 5x5 anchor is read off its lowest level
    calls = counted_expansions(monkeypatch)
    assert verify_tangent_cone(5, 5, 4, 1).passed
    assert calls[0] == 0


@pytest.mark.parametrize("symmetric", [False, True])
def test_leading_forms_at_the_rank_3_and_4_templates_match_the_full_shift(symmetric):
    # the symbolic digest stops at k = 2: every 4x4 and 5x5 minor of a
    # generic 5x5 matrix against the leading form of its whole shift
    for k in (3, 4):
        template = {(i, i): 1 for i in range(k)}
        for size in (4, 5):
            for rows in itertools.combinations(range(5), size):
                for cols in itertools.combinations(range(5), size):
                    p = minor_det(4, 4, rows, cols, symmetric)
                    lead = shift_and_leading_form(p, template)
                    assert lead.terms == p.shift(template).leading_form().terms
                    assert lead._symmetric == symmetric
                    assert all(type(c) is Fraction for _, c in lead.terms)


def walked_lead(rows, cols, symmetric, shifts, levels=None, walk=polynomials._shifted_minor_lead):
    """The leading form the tangent walk reads off the minor on rows and cols,
    with its own levels unless ``levels`` is given."""
    moved = polynomials._in_mode(SparsePoly.zero(), symmetric)._moved(shifts)
    return walk(rows, cols, symmetric, moved, shifts, {} if levels is None else levels)


def every_template_minor(symmetric):
    """(rows, cols, template) for every minor of a generic 6 x 6 matrix, which
    holds every minor with n, m <= 5, at each rank-k template, k = 1..5."""
    for k in range(1, 6):
        template = {(i, i): 1 for i in range(k)}
        for size in range(1, MAX_MINOR_SIZE + 1):
            for rows in itertools.combinations(range(6), size):
                for cols in itertools.combinations(range(6), size):
                    yield rows, cols, template


@pytest.mark.parametrize("symmetric", [False, True])
def test_the_tangent_walk_reads_every_template_minor_as_the_full_shift(symmetric):
    # the minors share one table of levels, keyed by which cells are
    # shifted: 122 patterns over the five sizes and five templates
    levels = {}
    checked = 0
    for rows, cols, template in every_template_minor(symmetric):
        lead = walked_lead(rows, cols, symmetric, template, levels)
        assert lead.terms == minor_det(5, 5, rows, cols, symmetric).shift(template).leading_form().terms
        assert lead._symmetric == symmetric
        assert all(type(c) is Fraction for _, c in lead.terms)
        checked += 1
    assert checked == 5 * sum(math.comb(6, size) ** 2 for size in range(1, 6)) == 4610
    assert len(levels) == 122


@pytest.mark.parametrize("symmetric", [False, True])
def test_a_level_keyed_by_the_minor_size_alone_is_caught(symmetric):
    # the first minor of each size would set the level of every later one
    mutant = walk_mutant(
        ("levels.get(pattern)", "levels.get(len(pattern))"), ("levels[pattern] =", "levels[len(pattern)] =")
    )
    levels = {}
    wrong = sum(
        walked_lead(rows, cols, symmetric, template, levels, walk=mutant).terms
        != minor_det(5, 5, rows, cols, symmetric).shift(template).leading_form().terms
        for rows, cols, template in every_template_minor(symmetric)
    )
    assert sorted(levels) == [1, 2, 3, 4, 5]
    assert wrong == 3426


def test_the_tangent_cone_anchor_finds_its_level_once(monkeypatch):
    # the anchor's 25 minors of size 5 all have z00 alone shifted, so the
    # sign table of size 5 is read once; the 25 complementary 4 x 4 minors
    # each read the table of size 4
    read = []

    class CountedTables(tuple):
        def __getitem__(self, size):
            read.append(size)
            return tuple.__getitem__(self, size)

    monkeypatch.setattr(polynomials, "_SIGNED_PERMUTATIONS", CountedTables(_SIGNED_PERMUTATIONS))
    assert verify_tangent_cone(5, 5, 4, 1).counts == {"minors_checked": 25}
    assert read.count(5) == 1
    assert read.count(4) == 25


@pytest.mark.parametrize("seed", range(4))
def test_the_tangent_walk_reads_rational_and_mirrored_shifts_as_the_full_shift(seed):
    # shifts off the diagonal, negative, zero and not integral; in symmetric
    # mode a key below the diagonal names its mirror, and a shifted variable
    # met twice in one term enters squared
    rng = random.Random(seed)
    values = [Fraction(1, 2), Fraction(-3, 2), 2, -1, 1, 0]
    for _ in range(60):
        symmetric = rng.random() < 0.5
        size = rng.randint(1, 5)
        rows = sorted(rng.sample(range(6), size))
        cols = rows if symmetric and rng.random() < 0.5 else sorted(rng.sample(range(6), size))
        shifts = {(rng.choice(rows), rng.choice(cols)): rng.choice(values) for _ in range(rng.randint(1, 4))}
        if symmetric:
            shifts = {(i, j): c for (i, j), c in shifts.items() if (j, i) not in shifts or i <= j}
        lead = walked_lead(rows, cols, symmetric, shifts)
        assert lead == minor_det(5, 5, rows, cols, symmetric).shift(shifts).leading_form()
        assert lead._symmetric == symmetric


@pytest.mark.parametrize("symmetric", [False, True])
def test_a_tangent_walk_level_that_cancels_falls_back_to_the_full_shift(symmetric, monkeypatch):
    # every entry of a 2 x 2 minor shifted by 1: the constant level 1 - 1
    # cancels, and the leading form is the linear level
    calls = [0]
    real = polynomials.shift_and_leading_form

    def counting(p, shifts):
        calls[0] += 1
        return real(p, shifts)

    monkeypatch.setattr(polynomials, "shift_and_leading_form", counting)
    shifts = {(i, j): 1 for i in (0, 1) for j in (0, 1)}
    lead = walked_lead((0, 1), (0, 1), symmetric, shifts)
    assert calls[0] == 1
    assert lead == minor_det(1, 1, (0, 1), (0, 1), symmetric).shift(shifts).leading_form()
    assert lead.degree() == 1
    calls[0] = 0
    assert verify_tangent_cone(5, 5, 4, 1).passed
    assert calls[0] == 0


def walk_mutant(*edits):
    """``polynomials._shifted_minor_lead`` with each ``(old, new)`` of ``edits``
    applied, every ``old`` found once."""
    source = inspect.getsource(polynomials._shifted_minor_lead)
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = dict(vars(polynomials))
    exec(compile(source, polynomials.__file__, "exec"), namespace)
    return namespace["_shifted_minor_lead"]


@pytest.mark.parametrize(
    "old, new, symmetric, moved",
    [
        # the unshifted variables of a symmetric term left in row order, so
        # that one monomial is summed under several keys
        ("_merged(sorted(fixed))", "_merged(fixed)", True, 21),
        # a term's shifted cells read as 1, whatever their shift
        ("sign * prod(map(list.__getitem__, factors, perm))", "sign", False, 18),
    ],
)
def test_a_mutant_of_the_tangent_walk_is_caught(old, new, symmetric, moved):
    """Of the 52 minors of size 2 and 3 of a generic 4 x 4 matrix, shifted by
    1 at z00 in symmetric mode and by 2 at z00 and 1 at z11 in general mode,
    the two mutants get 21 and 18 wrong."""
    mutant = walk_mutant((old, new))
    shifts = {(0, 0): 2, (1, 1): 1} if not symmetric else {(0, 0): 1}
    leads = [
        (walked_lead(rows, cols, symmetric, shifts, walk=mutant), minor_det(3, 3, rows, cols, symmetric))
        for size in (2, 3)
        for rows in itertools.combinations(range(4), size)
        for cols in itertools.combinations(range(4), size)
    ]
    assert len(leads) == 52
    assert sum(lead != p.shift(shifts).leading_form() for lead, p in leads) == moved


def test_leading_form_of_shifted_three_minor():
    # shifting z00 by 1 in the full 3x3 determinant leaves the complementary
    # 2x2 minor of rows {1,2} x cols {1,2} as the lowest-degree part
    p = minor_det(2, 2, [0, 1, 2], [0, 1, 2])
    lead = shift_and_leading_form(p, {(0, 0): 1})
    assert lead == minor_det(2, 2, [1, 2], [1, 2])


@pytest.mark.parametrize(
    "call",
    [
        lambda: matrix_variable(0.5, 1),
        lambda: matrix_variable(True, 0),
        lambda: matrix_variable(0, False),
        lambda: SparsePoly.variable(0.5, 1),
        lambda: SparsePoly.variable(1, True, symmetric=True),
        lambda: minor_det(1, 1, [0, 1], [0, 1]).shift({(0.0, 0): 1}),
        lambda: minor_det(1, 1, [0, 1], [0, 1]).evaluate(
            {(True, 0): 1, (0, 0): 1, (0, 1): 1, (1, 1): 1}
        ),
    ],
    ids=["float", "bool-row", "bool-column", "variable", "symmetric-variable", "shift", "evaluate"],
)
def test_a_matrix_position_must_be_an_int(call):
    # a float or bool key would otherwise name a variable, (True, 0) == (1, 0)
    with pytest.raises(TypeError):
        call()


def test_a_matrix_position_is_canonical_and_nonnegative():
    assert matrix_variable(2, 1) == (2, 1)
    assert matrix_variable(2, 1, symmetric=True) == (1, 2)
    with pytest.raises(IndexOutOfRange):
        matrix_variable(-1, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: SparsePoly.from_dict({(((0, 0), 1),): 0.1}),
        lambda p: SparsePoly.constant(0.5),
        lambda p: p.scale(0.1),
        lambda p: p.shift({(0, 0): 0.1}),
        lambda p: p.evaluate({(0, 0): 0.5, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
    ],
    ids=["from_dict", "constant", "scale", "shift", "evaluate"],
)
def test_a_float_value_is_refused_not_read_as_a_binary_fraction(call):
    # 0.1 would become 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        call(minor_det(2, 2, [0, 1], [0, 1]))


def test_exact_values_are_accepted_where_floats_are_refused():
    p = minor_det(2, 2, [0, 1], [0, 1])
    tenth = Fraction(1, 10)
    assert SparsePoly.from_dict({(): tenth}) == SparsePoly.constant(tenth)
    assert p.scale(tenth).shift({(0, 0): tenth}) == p.shift({(0, 0): tenth}).scale(tenth)
    assert p.evaluate({(0, 0): tenth, (0, 1): 1, (1, 0): 2, (1, 1): 3}) == Fraction(-17, 10)


def test_string_rendering_is_graded_lex():
    x00 = SparsePoly.variable(0, 0)
    x01 = SparsePoly.variable(0, 1)
    p = x01 + x00 * x00.scale(3) + SparsePoly.constant(-2)
    assert str(p) == "3*z00^2 + z01 - 2"


# sha256 of the reprs below, fed in loop order, taken before the minors and
# the shift were last rewritten for speed
SYMBOLIC_DIGEST = "5dc83f14e83ae9a316562c6c5261d5e72a6b2fac349cc387772ed962c844a6d5"


def test_the_symbolic_outputs_are_pinned_exactly():
    # every minor of a generic 5x5 matrix in both modes, its leading forms at
    # the rank-1 and rank-2 templates and a non-integral off-diagonal shift:
    # the reprs fix the terms, their order and every coefficient
    digest = hashlib.sha256()
    templates = [{(0, 0): 1}, {(0, 0): 1, (1, 1): 1}]
    for symmetric in (False, True):
        for size in range(1, 6):
            for rows in itertools.combinations(range(5), size):
                for cols in itertools.combinations(range(5), size):
                    p = minor_det(4, 4, rows, cols, symmetric)
                    outputs = [p, *(shift_and_leading_form(p, t) for t in templates)]
                    outputs.append(p.shift({(0, 1): Fraction(1, 3)}))
                    for out in outputs:
                        assert all(type(c) is Fraction for _, c in out.terms)
                        digest.update(repr(out).encode())
    assert digest.hexdigest() == SYMBOLIC_DIGEST


# ---------------------------------------------------------------- tangent cones

def test_tangent_cone_check_trivial_format():
    rep = verify_tangent_cone(1, 1, 1, 1)
    assert rep.passed
    assert rep.details["vertex_dimension"] == 3 - 4 + 3  # nm+n+m - (m)(n) with n=m=1


def test_tangent_cone_square_symmetric_case():
    rep = verify_tangent_cone(3, 3, 3, 1, symmetric=True)
    assert rep.passed
    # ambient P^9 of quadric forms; vertex over the point has dimension 9 - 6
    assert rep.details["ambient_dimension"] == 9
    assert rep.details["vertex_dimension"] == 3
    base = rep.details["cone_base"]
    assert base["kind"] == "veronese_secant"
    assert (base["n"], base["h"]) == (2, 2)


def test_tangent_cone_rectangular_case_counts_minors():
    rep = verify_tangent_cone(2, 3, 2, 1)
    assert rep.passed
    # rows: choose 2 of {1,2}; cols: choose 2 of {1,2,3}
    assert rep.counts["minors_checked"] == 1 * 3
    assert rep.details["vertex_dimension"] == 6 + 2 + 3 - 3 * 2
    base = rep.details["cone_base"]
    assert (base["kind"], base["n"], base["m"], base["h"]) == ("segre_secant", 1, 2, 1)


def test_tangent_cone_full_rank_point_has_no_minors_left():
    # h = min(n,m)+1 means the (h+1)-minors do not exist; nothing to check
    rep = verify_tangent_cone(1, 2, 2, 1)
    assert rep.passed
    assert rep.counts["minors_checked"] == 0
    # the long side alone has C(300, 5) subsets; none of them may be walked
    rep = verify_tangent_cone(300, 3, 4, 1)
    assert rep.passed
    assert rep.counts["minors_checked"] == 0


def test_tangent_cone_oversized_minor_fails_before_listing_subsets():
    # C(40, 20) ~ 1.4e11 row subsets: the first 21x21 minor must raise at once
    with pytest.raises(TooLarge):
        verify_tangent_cone(40, 40, 20, 1)


def test_tangent_cone_walk_is_capped_by_its_term_count():
    # the heaviest case in use: 25 pairs of 5x5 minors, 3,000 Leibniz terms
    rep = verify_tangent_cone(5, 5, 4, 1)
    assert rep.passed and rep.counts["minors_checked"] == 25
    assert 25 * 120 <= MAX_TANGENT_TERMS
    with pytest.raises(TooLarge):
        verify_tangent_cone(40, 40, 4, 1)
    # past the minor cap nothing is counted: C(10^6, 5*10^5) alone takes seconds
    with pytest.raises(TooLarge):
        verify_tangent_cone(10**6, 10**6, 5 * 10**5, 1)


def test_a_tangent_cone_check_without_the_shift_fails(monkeypatch):
    # negative control: with the shift a no-op the leading form is the whole
    # minor, so the very first pair is a counterexample; the lowest level and
    # the full expansion both read the shift off the point _point builds
    monkeypatch.setattr(SparsePoly, "_point", lambda self, values: {})
    rep = verify_tangent_cone(3, 3, 2, 1)
    assert not rep.passed
    assert rep.counts["minors_checked"] == 0
    assert (rep.counterexample["rows"], rep.counterexample["cols"]) == ([0, 1, 2], [0, 1, 2])
    argv = ["verify", "--check", "tangent-cone", "--n", "3", "--m", "3", "--h", "2", "--k", "1"]
    assert cli.main(argv) == 1


def test_tangent_cone_precondition_errors():
    with pytest.raises(ValueError):
        verify_tangent_cone(2, 2, 4, 1)
    with pytest.raises(ValueError):
        verify_tangent_cone(2, 2, 2, 0)
    with pytest.raises(DimensionMismatch):
        verify_tangent_cone(2, 3, 2, 1, symmetric=True)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_tangent_cone_small_grid_all_pass(n, m):
    for h in range(1, min(n, m) + 2):
        for k in range(1, h + 1):
            assert verify_tangent_cone(n, m, h, k).passed
            if n == m:
                assert verify_tangent_cone(n, m, h, k, symmetric=True).passed
