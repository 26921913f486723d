"""Tests for exact integer/rational linear algebra.

The Smith normal form is checked against an oracle that never performs a
single row or column operation: the k-th diagonal entry of the normal form
equals gcd(all k x k minors) / gcd(all (k-1) x (k-1) minors).  The oracle
enumerates every minor by brute force, so it is slow but unarguable.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from completeforms import spaces
from completeforms.errors import DimensionMismatch, UnderDetermined
from completeforms.lattice import (
    AbelianGroupDescriptor,
    IntegerMatrix,
    RationalVector,
    cokernel,
    smith_normal_form,
    solve_rational,
)


# ---------------------------------------------------------------- oracle

def det_by_permutation_expansion(rows):
    """Leibniz-formula determinant, independent of the package's Bareiss code."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def gcd_of_k_minors(rows, k):
    import math

    if k == 0:
        return 1
    nr, nc = len(rows), len(rows[0])
    g = 0
    for rset in itertools.combinations(range(nr), k):
        for cset in itertools.combinations(range(nc), k):
            sub = [[rows[i][j] for j in cset] for i in rset]
            g = math.gcd(g, det_by_permutation_expansion(sub))
    return g


def invariant_factors_oracle(rows):
    """Diagonal of the normal form via determinantal divisors."""
    if not rows or not rows[0]:
        return []
    n = min(len(rows), len(rows[0]))
    out = []
    prev = 1
    for k in range(1, n + 1):
        g = gcd_of_k_minors(rows, k)
        if g == 0:
            out.extend([0] * (n - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


# Frozen expectations, worked out by hand from the oracle formula before the
# implementation existed.
FROZEN_DIAGONALS = [
    ([[2, 4], [6, 8]], [2, 4]),       # g1=2, g2=|16-24|=8, so (2, 8/2)
    ([[1, 0], [0, 1]], [1, 1]),
    ([[4]], [4]),
    ([[0, 0], [0, 0]], [0, 0]),
    ([[2, 0], [0, 3]], [1, 6]),       # g1=1, g2=6
    ([[6, 10], [15, 25]], [1, 0]),    # rank 1, g1=1
]


@pytest.mark.parametrize("rows,expected", FROZEN_DIAGONALS)
def test_snf_diagonal_matches_frozen_oracle_values(rows, expected):
    assert invariant_factors_oracle(rows) == expected
    m = IntegerMatrix.from_rows(rows)
    assert list(smith_normal_form(m).diagonal) == expected


def check_snf_contract(rows):
    m = IntegerMatrix.from_rows(rows)
    snf = smith_normal_form(m)
    u, d, v = snf.u, snf.d, snf.v
    assert (u @ m @ v).entries == d.entries
    assert abs(u.determinant()) == 1
    assert abs(v.determinant()) == 1
    # d is diagonal, nonnegative, and each entry divides the next
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    diag = list(snf.diagonal)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert diag == invariant_factors_oracle(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 4, 4]],
        [[2], [4], [4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[-3, 1], [7, -2]],
        [[2, -2], [0, 2]],
        [[12, 8], [16, 20]],
        [[0, 5], [5, 0]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[1, 3, 0], [0, -1, 2], [5, 0, 8]],
    ],
)
def test_snf_contract_on_fixed_cases(rows):
    check_snf_contract(rows)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_snf_contract_on_random_matrices(nr, nc, data):
    rows = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(nc)]
        for _ in range(nr)
    ]
    check_snf_contract(rows)


def test_snf_is_deterministic():
    rows = [[3, -5, 2], [7, 2, -4], [1, 1, 1]]
    a = smith_normal_form(IntegerMatrix.from_rows(rows))
    b = smith_normal_form(IntegerMatrix.from_rows(rows))
    assert a.u.entries == b.u.entries
    assert a.d.entries == b.d.entries
    assert a.v.entries == b.v.entries


# Exact (u, d, v) triples: U and V are part of the public result, so the
# pivot order that determines them must not drift.
PINNED_TRANSFORMS = {
    "demo": (
        [[2, 2, 0], [2, 8, 6], [0, 6, 18]],
        ((1, 0, 0), (-1, 1, 0), (1, -1, 1)),
        ((2, 0, 0), (0, 6, 0), (0, 0, 12)),
        ((1, -1, 1), (0, 1, -1), (0, 0, 1)),
    ),
    "Collineations(2, 3, 2) orbit relations": (
        [[1, 0, 1], [0, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, -2]],
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, -1, 0, 0), (1, -1, -1, 1, 0), (2, 0, -2, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 0, 0)),
        ((1, 0, -1), (0, 1, -1), (0, 0, 1)),
    ),
    "Quadrics(4, 3) orbit relations": ([[2], [-3]], ((2, 1), (-3, -2)), ((1,), (0,)), ((1,),)),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRANSFORMS))
def test_snf_transforms_are_pinned(name):
    rows, u, d, v = PINNED_TRANSFORMS[name]
    snf = smith_normal_form(IntegerMatrix.from_rows(rows))
    assert (snf.u.entries, snf.d.entries, snf.v.entries) == (u, d, v)


def test_pinned_relation_matrices_are_the_orbit_relations(monkeypatch):
    seen = []

    def recording_cokernel(relations):
        seen.append([list(row) for row in relations.entries])
        return cokernel(relations)

    monkeypatch.setattr(spaces, "cokernel", recording_cokernel)
    spaces.orbit_picard_group(spaces.Collineations(2, 3, 2))
    spaces.orbit_picard_group(spaces.Quadrics(4, 3))
    assert seen == [
        PINNED_TRANSFORMS["Collineations(2, 3, 2) orbit relations"][0],
        PINNED_TRANSFORMS["Quadrics(4, 3) orbit relations"][0],
    ]


# ---------------------------------------------------------------- cokernel

def test_cokernel_single_column_torsion_and_free():
    g = cokernel(IntegerMatrix.from_rows([[2], [-2]]))
    assert g == AbelianGroupDescriptor(free_rank=1, invariant_factors=(2,))
    assert str(g) == "Z/2 + Z"

    g = cokernel(IntegerMatrix.from_rows([[2], [-3]]))
    assert g == AbelianGroupDescriptor(free_rank=1)
    assert str(g) == "Z"


def test_cokernel_pure_torsion():
    g = cokernel(IntegerMatrix.from_rows([[4]]))
    assert g.free_rank == 0
    assert g.invariant_factors == (4,)
    assert str(g) == "Z/4"


def test_cokernel_trivial_and_free():
    assert cokernel(IntegerMatrix.identity(3)).is_trivial
    g = cokernel(IntegerMatrix.zero(2, 3))
    assert g == AbelianGroupDescriptor(free_rank=2)
    assert str(cokernel(IntegerMatrix.zero(2, 3))) == "Z^2"


def test_cokernel_of_three_term_relation_block():
    # Z^5 modulo three independent primitive relations leaves Z^2, no torsion.
    rel = IntegerMatrix.from_rows(
        [
            [1, 0, 1],
            [0, 1, 1],
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, -2],
        ]
    )
    assert cokernel(rel) == AbelianGroupDescriptor(free_rank=2)


def random_unimodular(n, seed):
    import random

    rng = random.Random(seed)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntegerMatrix.from_rows(m)


@pytest.mark.parametrize("seed", range(6))
def test_cokernel_invariant_under_column_basis_change(seed):
    rel = IntegerMatrix.from_rows([[2, 0], [-2, 4], [0, 6]])
    w = random_unimodular(rel.cols, seed)
    assert abs(w.determinant()) == 1
    assert cokernel(rel) == cokernel(rel @ w)


# ---------------------------------------------------------------- solving

def test_solve_rational_unique_solution():
    # This 3x3 system is the one the comparison dictionary produces for the
    # branched double cover at n = 4; the solution was worked out by hand.
    a = [
        [Fraction(1), Fraction(3, 2), Fraction(0)],
        [Fraction(0), Fraction(-1, 2), Fraction(0)],
        [Fraction(0), Fraction(-1, 2), Fraction(1)],
    ]
    b = [Fraction(5, 2), Fraction(5, 2), Fraction(1, 2)]
    x = solve_rational(a, b)
    assert x == RationalVector.of(10, -5, -2)


def test_solve_rational_inconsistent_returns_none():
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_rational_underdetermined_raises():
    with pytest.raises(UnderDetermined):
        solve_rational([[1, 1], [2, 2]], [3, 6])


def test_solve_rational_overdetermined_but_consistent():
    x = solve_rational([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert x == RationalVector.of(2, 3)


def test_solve_rational_accepts_integer_matrix():
    m = IntegerMatrix.from_rows([[2, 1], [1, 1]])
    assert solve_rational(m, [3, 2]) == RationalVector.of(1, 1)


def test_solve_rational_rejects_mismatched_rhs():
    with pytest.raises(DimensionMismatch):
        solve_rational([[1, 0]], [1, 2])


@pytest.mark.parametrize(
    "a,b",
    [
        ([[2, 0], [0, 1, 5]], [2, 1]),
        ([[1], [1, 2]], [1, 1]),
        ([[1, 2], [1]], [1, 1]),
    ],
)
def test_solve_rational_rejects_ragged_rows(a, b):
    with pytest.raises(DimensionMismatch):
        solve_rational(a, b)


mixed_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(mixed_fractions, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(mixed_fractions, min_size=n, max_size=n),
    )
))
def test_solve_rational_recovers_x_from_a_times_x(system):
    """The fraction-free elimination clears mixed denominators row by row."""
    a, x = system
    assume(det_by_permutation_expansion(a) != 0)
    b = [sum(aij * xj for aij, xj in zip(row, x)) for row in a]
    assert solve_rational(a, b) == RationalVector.of(*x)


# ---------------------------------------------------------------- vectors

def test_rational_vector_arithmetic():
    v = RationalVector.of(1, Fraction(1, 2))
    w = RationalVector.of(-1, Fraction(3, 2))
    assert v + w == RationalVector.of(0, 2)
    assert v - w == RationalVector.of(2, -1)
    assert 2 * v == RationalVector.of(2, 1)
    assert v.dot(w) == Fraction(-1, 4)
    assert str(w) == "(-1, 3/2)"


def test_rational_vector_rejects_floats():
    with pytest.raises(TypeError):
        RationalVector.of(0.5)


def test_rational_vector_length_mismatch():
    with pytest.raises(DimensionMismatch):
        RationalVector.of(1) + RationalVector.of(1, 2)


# ---------------------------------------------------------------- matrix api

def test_matrix_multiplication_and_transpose():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert a.column(1) == (2, 4)


def test_matrix_determinant_matches_permutation_expansion():
    rows = [[2, -1, 3], [0, 4, 1], [5, 2, -2]]
    m = IntegerMatrix.from_rows(rows)
    assert m.determinant() == det_by_permutation_expansion(rows)


def test_matrix_rejects_ragged_and_nonint():
    with pytest.raises(DimensionMismatch):
        IntegerMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntegerMatrix.from_rows([[1.5]])
