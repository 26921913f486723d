"""Tests for secant invariants and the finite-field enumeration routines.

The census is checked against the classical closed-form counts of fixed-rank
matrices (MacWilliams' count for symmetric ones), and independently against a
naive pure-Python rank computation on small formats.  The lemma checks are
pinned by hand counts and by closed forms for their tallies.  Degree formulas
are pinned by hand-computed classical values and by the three cross-identities
that specialize them.
"""

from fractions import Fraction
from functools import cache
from math import comb, isqrt, prod

import numpy as np
import pytest

from completeforms import _enumeration, _odd_q, secants
from completeforms.determinantal import (
    ENUMERATION_BUDGET,
    RankCensus,
    is_prime,
    rank_census,
    rank_count_closed_form,
    segre_secant_invariants,
    symmetric_rank_count_closed_form,
    verify_component_split,
    verify_rank_minor_lemma,
    veronese_secant_invariants,
)
from completeforms.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InternalInconsistency,
    NonPrimeField,
)


# ---------------------------------------------------------------- invariants

def test_segre_secant_frozen_examples():
    inv = segre_secant_invariants(3, 3, 2)
    assert inv.dimension == 11
    assert inv.ambient_dimension == 15

    inv = segre_secant_invariants(2, 2, 1)
    assert (inv.dimension, inv.degree) == (4, 6)
    assert not inv.fills_ambient


def test_veronese_secant_frozen_examples():
    inv = veronese_secant_invariants(2, 1)
    assert (inv.dimension, inv.degree) == (2, 4)

    inv = veronese_secant_invariants(3, 3)
    assert (inv.dimension, inv.degree) == (8, 4)
    assert inv.codimension == 1


def test_fills_ambient_edge():
    inv = segre_secant_invariants(2, 4, 3)
    assert inv.fills_ambient
    assert inv.degree == 1
    assert inv.dimension == inv.ambient_dimension == 14

    inv = veronese_secant_invariants(3, 4)
    assert inv.fills_ambient
    assert inv.dimension == 9


def test_segre_degree_cross_identity_h1():
    # first secant of the product embedding has the binomial degree
    for n in range(1, 5):
        for m in range(n, 6):
            assert segre_secant_invariants(n, m, 1).degree == comb(n + m, n)


def test_segre_degree_cross_identity_h_equals_n():
    # the rank <= n locus of square-ish formats has degree C(m+1, n)
    for n in range(1, 5):
        for m in range(n, 6):
            assert segre_secant_invariants(n, m, n).degree == comb(m + 1, n)


def test_veronese_degree_cross_identities():
    for n in range(1, 7):
        assert veronese_secant_invariants(n, 1).degree == 2**n
        assert veronese_secant_invariants(n, n).degree == n + 1


def test_a_broken_integrality_invariant_raises_a_typed_error():
    # raised explicitly, so it holds under python -O; not a ValueError, so
    # the CLI never reports it as bad input
    with pytest.raises(InternalInconsistency):
        secants._integral(Fraction(3, 2), "a degree")
    assert not issubclass(InternalInconsistency, ValueError)


def test_invariants_preconditions():
    with pytest.raises(ValueError):
        segre_secant_invariants(3, 2, 1)  # needs n <= m
    with pytest.raises(ValueError):
        segre_secant_invariants(2, 3, 4)
    with pytest.raises(ValueError):
        veronese_secant_invariants(2, 0)


# every closed form with a valid argument tuple; each argument in turn is
# replaced by an equal float and by a bool
CLOSED_FORMS = [
    (is_prime, (2,)),
    (rank_count_closed_form, (2, 3, 1, 3)),
    (symmetric_rank_count_closed_form, (2, 1, 3)),
    (segre_secant_invariants, (1, 2, 1)),
    (veronese_secant_invariants, (2, 1)),
]


@pytest.mark.parametrize("bad", [float, bool], ids=["float", "bool"])
@pytest.mark.parametrize("form, args", CLOSED_FORMS, ids=[f.__name__ for f, _ in CLOSED_FORMS])
def test_closed_forms_take_only_ints(form, args, bad):
    form(*args)
    for position in range(len(args)):
        wrong = list(args)
        wrong[position] = bad(args[position])
        with pytest.raises(TypeError):
            form(*wrong)


# ---------------------------------------------------------------- census

def naive_rank_mod(rows, q):
    """Row reduction written from scratch for the test, no shared helpers."""
    m = [r[:] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c] % q != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] % q != 0:
                f = m[i][c] * pow(m[rank][c], q - 2, q)
                m[i] = [(x - f * y) % q for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_census(a, b, q, symmetric=False):
    """Rank tally decoding each index on its own (only the upper triangle if symmetric)."""
    positions = [(i, j) for i in range(a) for j in range(i if symmetric else 0, b)]
    counts = {}
    for t in range(q ** len(positions)):
        m = [[0] * b for _ in range(a)]
        for pos, (i, j) in enumerate(positions):
            m[i][j] = (t // q**pos) % q
            if symmetric:
                m[j][i] = m[i][j]
        r = naive_rank_mod(m, q)
        counts[r] = counts.get(r, 0) + 1
    return counts


def test_census_frozen_2x2_over_f2():
    census = rank_census(2, 2, 2)
    assert census.as_dict() == {0: 1, 1: 9, 2: 6}
    assert census.total == 16


@pytest.mark.parametrize(
    "a,b,q",
    [(1, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (1, 4, 3), (3, 3, 2), (3, 2, 2), (4, 1, 3), (3, 2, 3)],
)
def test_census_matches_naive_enumeration(a, b, q):
    vec = rank_census(a, b, q).as_dict()
    naive = naive_census(a, b, q)
    full = {r: naive.get(r, 0) for r in range(min(a, b) + 1)}
    assert vec == full


@pytest.mark.parametrize("a,b,q", [(2, 2, 2), (3, 2, 2), (2, 4, 2), (3, 3, 3), (2, 2, 5), (4, 3, 2)])
def test_census_matches_closed_form(a, b, q):
    census = rank_census(a, b, q)
    for r, count in census.counts:
        assert count == rank_count_closed_form(a, b, r, q)
    assert census.total == q ** (a * b)


def test_census_transpose_symmetry(monkeypatch):
    walked, walk = [], _odd_q._walk

    def recording_walk(q, a, b, symmetric):
        walked.append((a, b))
        return walk(q, a, b, symmetric)

    monkeypatch.setattr(_odd_q, "_walk", recording_walk)
    tall = rank_census(4, 2, 3)
    assert rank_census(2, 4, 3).as_dict() == tall.as_dict()
    # a tall format is walked as its transpose; the record keeps a and b as given
    assert walked == [(2, 4), (2, 4)]
    assert (tall.a, tall.b) == (4, 2)
    assert (tall.to_dict()["a"], tall.to_dict()["b"]) == (4, 2)


def test_symmetric_census_totals_and_consistency():
    sym = rank_census(3, 3, 2, symmetric=True)
    assert sym.total == 2**6
    # cross-check against the plain census restricted to symmetric matrices
    q, a = 2, 3
    by_hand = {}
    for t in range(q ** (a * a)):
        m = [[(t // q ** (i * a + j)) % q for j in range(a)] for i in range(a)]
        if m == [list(col) for col in zip(*m)]:
            r = naive_rank_mod(m, q)
            by_hand[r] = by_hand.get(r, 0) + 1
    assert sym.as_dict() == {r: by_hand.get(r, 0) for r in range(a + 1)}


def test_reference_census_matches_the_vectorized_one():
    for a, b, q, symmetric in [(2, 3, 2, False), (2, 2, 5, False), (3, 3, 2, True), (2, 2, 3, True)]:
        fast = rank_census(a, b, q, symmetric=symmetric).as_dict()
        naive = naive_census(a, b, q, symmetric)
        assert fast == {r: naive.get(r, 0) for r in range(min(a, b) + 1)}


def test_census_preconditions():
    with pytest.raises(NonPrimeField):
        rank_census(2, 2, 4)
    with pytest.raises(NonPrimeField):
        rank_count_closed_form(2, 2, 1, 6)
    with pytest.raises(DimensionMismatch):
        rank_census(2, 3, 2, symmetric=True)
    with pytest.raises(BudgetExceeded):
        rank_census(5, 5, 3)
    # the budget bounds q by 2^24 before the primality check
    with pytest.raises(BudgetExceeded):
        rank_census(1, 1, 10**18 + 3)
    with pytest.raises(BudgetExceeded):
        verify_rank_minor_lemma(1, 1, 1, 10**18 + 3)
    # a huge format is refused without computing q**(a*b), composite q or not
    with pytest.raises(BudgetExceeded):
        rank_census(100000, 100000, 4)
    with pytest.raises(BudgetExceeded):
        rank_census(100000, 100000, 3, symmetric=True)
    with pytest.raises(ValueError):
        rank_census(0, 2, 2)


def test_a_lemma_check_refuses_the_census_request_before_k():
    """The format, budget and primality are checked before k, which is bad here too."""
    with pytest.raises(ValueError, match="^matrix format must be positive, got 0x2$"):
        verify_rank_minor_lemma(0, 2, 1, 2)
    with pytest.raises(BudgetExceeded):
        verify_component_split(5, 5, 9, 2)
    with pytest.raises(NonPrimeField):
        verify_component_split(2, 2, 3, 4, symmetric=True)


def _trial_division_is_prime(q):
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [q for q in range(-5, 10**5 + 1) if is_prime(q) != _trial_division_is_prime(q)] == []


def test_is_prime_rejects_strong_pseudoprimes_and_bounds_its_range():
    # 561 is a Carmichael number; the others are the least strong
    # pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12 prime bases
    for q in (561, 2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(q), q
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and is_prime(10**18 + 3)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)


def test_closed_forms_take_a_huge_prime_at_once():
    assert rank_count_closed_form(1, 1, 1, 10**18 + 3) == 10**18 + 2
    assert symmetric_rank_count_closed_form(1, 1, 10**18 + 3) == 10**18 + 2


def test_census_dataclass_shape():
    census = rank_census(2, 2, 3)
    assert isinstance(census, RankCensus)
    d = census.to_dict()
    assert d["counts"]["0"] == 1
    assert d["total"] == 81


# ---------------------------------------------------------------- lemma checks

def test_rank_minor_lemma_small_cases():
    for a, b, k, q in [(2, 2, 1, 2), (2, 2, 1, 3), (3, 3, 2, 2), (2, 3, 2, 2)]:
        rep = verify_rank_minor_lemma(a, b, k, q)
        assert rep.passed, rep.counterexample
        assert rep.counts["candidates"] > 0


def test_rank_minor_lemma_candidate_count_2x2_f3():
    # rank <= 1 with z00 = 0: first row (0, z01), columns (0, z10);
    # the 15 such matrices were counted by hand
    rep = verify_rank_minor_lemma(2, 2, 1, 3)
    assert rep.counts["candidates"] == 15


def test_component_split_counts_2x2_f3():
    rep = verify_component_split(2, 2, 1, 3)
    assert rep.passed
    # hand count: H1 = first row zero (9 matrices), H2 = first column zero
    # (9 matrices), overlap z00=z01=z10=0 (3 matrices)
    assert rep.counts["h1"] == 9
    assert rep.counts["h2"] == 9
    assert rep.counts["overlap"] == 3
    assert rep.counts["det_zero"] == 15


def test_component_split_symmetric_pieces_coincide():
    rep = verify_component_split(3, 3, 2, 2, symmetric=True)
    assert rep.passed
    assert rep.counts["h1"] == rep.counts["h2"] == rep.counts["overlap"]


def test_lemma_preconditions():
    with pytest.raises(ValueError):
        verify_rank_minor_lemma(2, 2, 3, 2)
    with pytest.raises(ValueError):
        verify_component_split(2, 2, 0, 2)


# ---------------------------------------------------------------- chunked walk
#
# The walk cuts the matrices into digit-aligned chunks of at most
# _enumeration._CHUNK: over an odd q runs of blocks of q^c matrices that
# share their c low digits, over F_2 blocks of 2^c matrices held bit-sliced.
# These tests shrink the chunk so every call spans several chunks, and over
# an odd q ends in a partial run (over F_2 no chunk is partial), and pin the
# results to closed forms.


def walked_chunks(q, a, b, symmetric=False):
    """(first index, matrix count) of each chunk the walk yields."""
    if q == 2:
        return [(lo, n) for lo, n, _ in _enumeration._f2_walk(a, b, symmetric)]
    return [(lo, digits.shape[-1]) for lo, digits in _odd_q._walk(q, a, b, symmetric)]


def small_chunks(monkeypatch, a, b, q, symmetric=False):
    """Chunks of (q//2 + 1) * q^(npos-2) matrices: several per call, and over
    an odd q some cross a change of the top digit and the last is partial."""
    npos = a * (a + 1) // 2 if symmetric else a * b
    monkeypatch.setattr(_enumeration, "_CHUNK", (q // 2 + 1) * q ** (npos - 2))
    sizes = [size for _, size in walked_chunks(q, a, b, symmetric)]
    assert len(sizes) >= 2
    assert (sizes[-1] < sizes[0]) == (q > 2)


def gl_order(k, q):
    return prod(q**k - q**i for i in range(k))


def first_rows_dependent(a, b, k, q):
    """a x b matrices of rank <= k whose first k rows have rank s < k: the other
    a-k rows raise the rank by their image modulo the row space, of dimension
    b-s, and are free inside it."""
    return sum(
        rank_count_closed_form(k, b, s, q)
        * q ** (s * (a - k))
        * sum(rank_count_closed_form(a - k, b - s, t - s, q) for t in range(s, k + 1))
        for s in range(k)
    )


def split_closed_form(a, b, k, q, symmetric=False):
    """Expected split tallies.  An invertible leading block A leaves rank k
    only for the Schur-complement trailing block, so det_zero is the rank <= k
    count minus |invertible A| times the free off-diagonal blocks; h1 and h2
    lie inside det_zero and cover it."""
    if symmetric:
        locus = sum(symmetric_rank_count_closed_form(a, r, q) for r in range(k + 1))
        det_zero = locus - symmetric_rank_count_closed_form(k, k, q) * q ** (k * (a - k))
        return {"rank_locus": locus, "det_zero": det_zero, "h1": det_zero, "h2": det_zero,
                "overlap": det_zero}
    locus = sum(rank_count_closed_form(a, b, r, q) for r in range(k + 1))
    det_zero = locus - gl_order(k, q) * q ** (k * (a - k) + k * (b - k))
    h1 = first_rows_dependent(a, b, k, q)
    h2 = first_rows_dependent(b, a, k, q)
    return {"rank_locus": locus, "det_zero": det_zero, "h1": h1, "h2": h2,
            "overlap": h1 + h2 - det_zero}


# (1, 2, 131): digit sums no longer fit in uint8
@pytest.mark.parametrize(
    "a,b,q", [(5, 4, 2), (20, 1, 2), (4, 2, 3), (2, 3, 5), (3, 2, 5), (1, 2, 131)]
)
def test_chunked_census_matches_closed_form(a, b, q, monkeypatch):
    small_chunks(monkeypatch, a, b, q)
    census = rank_census(a, b, q).as_dict()
    assert census == {r: rank_count_closed_form(a, b, r, q) for r in range(min(a, b) + 1)}


@pytest.mark.parametrize("n,q", [(4, 2), (3, 3), (3, 5)])
def test_chunked_symmetric_census_matches_closed_form(n, q, monkeypatch):
    small_chunks(monkeypatch, n, n, q, True)
    census = rank_census(n, n, q, symmetric=True).as_dict()
    assert census == {r: symmetric_rank_count_closed_form(n, r, q) for r in range(n + 1)}


@pytest.mark.parametrize("a,b,k,q", [(3, 3, 2, 3), (3, 4, 2, 2), (4, 3, 2, 2), (2, 3, 1, 5), (3, 3, 1, 2)])
def test_chunked_lemma_and_split_match_closed_forms(a, b, k, q, monkeypatch):
    small_chunks(monkeypatch, a, b, q)
    want = split_closed_form(a, b, k, q)
    lemma = verify_rank_minor_lemma(a, b, k, q)
    assert lemma.passed
    assert lemma.counts == {"matrices": q ** (a * b), "candidates": want["det_zero"],
                            "rows_degenerate": want["h1"], "cols_degenerate": want["h2"]}
    split = verify_component_split(a, b, k, q)
    assert split.passed
    assert split.counts == dict(want, matrices=q ** (a * b))


@pytest.mark.parametrize("n,k,q", [(3, 2, 2), (3, 1, 3), (2, 1, 5)])
def test_chunked_symmetric_split_matches_closed_form(n, k, q, monkeypatch):
    small_chunks(monkeypatch, n, n, q, True)
    split = verify_component_split(n, n, k, q, symmetric=True)
    assert split.passed
    assert split.counts == dict(split_closed_form(n, n, k, q, True), matrices=q ** (n * (n + 1) // 2))


SPLIT_FLAGS = ("low_rank", "det_zero", "h1", "h2")


def forced_flags(monkeypatch, **forced):
    """Make the named split flags of every chunk read the same for every
    matrix, over F_2 and over odd q alike: -1 (every bit set) for true, 0 for
    false.  Both engines hand the split their flags as bit masks."""
    for module, seam in ((_enumeration, "_f2_flags"), (_odd_q, "_flags")):
        engine = getattr(module, seam)

        def flags(*args, engine=engine):
            return tuple(forced.get(name, mask) for name, mask in zip(SPLIT_FLAGS, engine(*args)))

        monkeypatch.setattr(module, seam, flags)


def forced_zero_minor(monkeypatch, **forced):
    """Make every leading minor read as zero, so the first matrix of rank
    <= k with independent first rows and columns becomes a counterexample."""
    forced_flags(monkeypatch, det_zero=-1, **forced)
    monkeypatch.setattr(_enumeration, "_CHUNK", 1)


@pytest.mark.parametrize("q", [2, 3])
def test_counts_stop_at_the_first_counterexample(q, monkeypatch):
    forced_zero_minor(monkeypatch)
    # index 0 is the zero matrix (degenerate both ways); index 1 has entry
    # (0, 0) = 1 and nothing else, a rank-one counterexample
    lemma = verify_rank_minor_lemma(2, 2, 1, q)
    assert not lemma.passed
    assert lemma.counterexample == {"matrix": [[1, 0], [0, 0]], "index": 1}
    assert lemma.counts == {"matrices": q**4, "candidates": 2, "rows_degenerate": 1,
                            "cols_degenerate": 1}
    split = verify_component_split(2, 2, 1, q)
    assert not split.passed
    assert split.counterexample == {"matrix": [[1, 0], [0, 0]], "index": 1}
    assert split.counts == {"matrices": q**4, "rank_locus": 2, "det_zero": 2, "h1": 1,
                            "h2": 1, "overlap": 1}


@pytest.mark.parametrize("q", [2, 3])
def test_lemma_fails_when_dependent_slices_keep_the_minor(q, monkeypatch):
    # the zero matrix has dependent first rows and columns, so its minor must
    # vanish; a kernel that reads no minor as zero is caught at index 0
    forced_flags(monkeypatch, det_zero=0)
    lemma = verify_rank_minor_lemma(2, 2, 1, q)
    assert not lemma.passed
    assert lemma.counterexample == {"matrix": [[0, 0], [0, 0]], "index": 0}
    assert lemma.counts == {"matrices": q**4, "candidates": 0, "rows_degenerate": 1,
                            "cols_degenerate": 1}


def test_symmetric_split_reports_the_first_asymmetric_index(monkeypatch):
    forced_zero_minor(monkeypatch, h2=-1)
    # every first column now reads as dependent; index 1 ([[1, 0], [0, 0]])
    # is the first matrix of the rank <= 1 locus whose first row is not.  The
    # locus is the zero matrix and the rank-1 ones (3 over F_2, 8 over F_3);
    # the first row is zero on q of them.
    for q, locus in ((2, 4), (3, 9)):
        split = verify_component_split(2, 2, 1, q, symmetric=True)
        assert not split.passed
        assert split.counterexample == {
            "matrix": [[1, 0], [0, 0]],
            "index": 1,
            "reason": "asymmetric split in symmetric mode",
        }
        assert split.counts == {"matrices": q**3, "rank_locus": locus, "det_zero": locus,
                                "h1": q, "h2": locus, "overlap": q}


# ---------------------------------------------------------------- naive oracle
#
# Both engines against the naive rank above, which shares no code with
# them: every format of at most 2^12 matrices over F_2, F_3, F_5 and F_7,
# general and symmetric, at the real chunk and at a chunk of a quarter of
# the walk, which cuts it into at least three pieces (over F_2 both matrices
# apart where there are only two; over odd q the last piece may be partial).

SMALL_WALK = 2**12


def small_formats(q):
    """(a, b, symmetric) of every format over F_q with at most 2^12 matrices."""
    general = [(a, b, False) for a in range(1, 13) for b in range(1, 13) if q ** (a * b) <= SMALL_WALK]
    return general + [(n, n, True) for n in range(1, 5) if q ** (n * (n + 1) // 2) <= SMALL_WALK]


F2_FORMATS = small_formats(2)
ODD_Q_FORMATS = [(a, b, q, symmetric) for q in (3, 5, 7) for a, b, symmetric in small_formats(q)]


@cache
def naive_flags(a, b, q, symmetric):
    """Per matrix, in index order: its naive rank and, for each k, whether its
    leading k-minor vanishes, its first k rows are dependent and its first k
    columns are dependent."""
    positions = [(i, j) for i in range(a) for j in range(i if symmetric else 0, b)]
    table = []
    for t in range(q ** len(positions)):
        m = [[0] * b for _ in range(a)]
        for pos, (i, j) in enumerate(positions):
            m[i][j] = t // q**pos % q
            if symmetric:
                m[j][i] = m[i][j]
        cols = [list(col) for col in zip(*m)]
        flags = {
            k: (naive_rank_mod([row[:k] for row in m[:k]], q) < k,
                naive_rank_mod(m[:k], q) < k,
                naive_rank_mod(cols[:k], q) < k)
            for k in range(1, min(a, b) + 1)
        }
        table.append((naive_rank_mod(m, q), flags))
    return table


@pytest.fixture(params=["real", "small"])
def walk_chunk(request, monkeypatch):
    """Leaves ``_CHUNK`` as it is, or shrinks it to a quarter of the walk."""
    def chunk(a, b, q, symmetric):
        if request.param == "small":
            total = q ** (a * (a + 1) // 2 if symmetric else a * b)
            monkeypatch.setattr(_enumeration, "_CHUNK", max(1, total // 4))
            chunks = len(walked_chunks(q, a, b, symmetric))
            assert chunks == -(-total // _enumeration._CHUNK) >= min(3, total)
    return chunk


def census_matches_the_naive_rank(a, b, q, symmetric):
    ranks = [rank for rank, _ in naive_flags(a, b, q, symmetric)]
    census = rank_census(a, b, q, symmetric).as_dict()
    assert census == {r: ranks.count(r) for r in range(min(a, b) + 1)}


def lemma_and_split_match_the_naive_rank(a, b, q, symmetric):
    table = naive_flags(a, b, q, symmetric)
    for k in range(1, min(a, b) + 1):
        locus = [flags[k] for rank, flags in table if rank <= k]
        # the lemma holds, so both checks must pass
        assert all(det_zero == (h1 or h2) for det_zero, h1, h2 in locus)
        want = {
            "rank_locus": len(locus),
            "det_zero": sum(det_zero for det_zero, _, _ in locus),
            "h1": sum(h1 for _, h1, _ in locus),
            "h2": sum(h2 for _, _, h2 in locus),
            "overlap": sum(h1 and h2 for _, h1, h2 in locus),
        }
        split = verify_component_split(a, b, k, q, symmetric)
        assert (split.passed, split.counterexample) == (True, None)
        assert split.counts == dict(want, matrices=len(table))
        if not symmetric:
            lemma = verify_rank_minor_lemma(a, b, k, q)
            assert (lemma.passed, lemma.counterexample) == (True, None)
            assert lemma.counts == {"matrices": len(table), "candidates": want["det_zero"],
                                    "rows_degenerate": want["h1"], "cols_degenerate": want["h2"]}


@pytest.mark.parametrize("a,b,symmetric", F2_FORMATS)
def test_f2_census_matches_the_naive_rank(a, b, symmetric, walk_chunk):
    walk_chunk(a, b, 2, symmetric)
    census_matches_the_naive_rank(a, b, 2, symmetric)


@pytest.mark.parametrize("a,b,symmetric", F2_FORMATS)
def test_f2_lemma_and_split_match_the_naive_rank(a, b, symmetric, walk_chunk):
    walk_chunk(a, b, 2, symmetric)
    lemma_and_split_match_the_naive_rank(a, b, 2, symmetric)


@pytest.mark.parametrize("a,b,q,symmetric", ODD_Q_FORMATS)
def test_odd_q_census_matches_the_naive_rank(a, b, q, symmetric, walk_chunk):
    walk_chunk(a, b, q, symmetric)
    census_matches_the_naive_rank(a, b, q, symmetric)


@pytest.mark.parametrize("a,b,q,symmetric", ODD_Q_FORMATS)
def test_odd_q_lemma_and_split_match_the_naive_rank(a, b, q, symmetric, walk_chunk):
    walk_chunk(a, b, q, symmetric)
    lemma_and_split_match_the_naive_rank(a, b, q, symmetric)


@pytest.mark.parametrize("a,b", [(4, 6), (3, 8)])
def test_f2_walks_at_the_budget_match_closed_forms(a, b):
    # 2^24 matrices, the whole budget, in chunks of the real size
    assert len(walked_chunks(2, a, b)) == ENUMERATION_BUDGET // _enumeration._CHUNK
    census = rank_census(a, b, 2).as_dict()
    assert census == {r: rank_count_closed_form(a, b, r, 2) for r in range(a + 1)}
    split = verify_component_split(a, b, 2, 2)
    assert split.passed
    assert split.counts == dict(split_closed_form(a, b, 2, 2), matrices=2**24)


@pytest.mark.parametrize(
    "a,b,k,q,symmetric", [(3, 4, 2, 3, False), (3, 3, 1, 7, True), (3, 3, 2, 7, True)]
)
def test_odd_q_splits_across_real_chunks_match_closed_forms(a, b, k, q, symmetric):
    # the odd-q flags of several chunks of the real size, read by one walk
    npos = a * (a + 1) // 2 if symmetric else a * b
    assert len(walked_chunks(q, a, b, symmetric)) >= 2
    want = dict(split_closed_form(a, b, k, q, symmetric), matrices=q**npos)
    split = verify_component_split(a, b, k, q, symmetric)
    assert (split.passed, split.counterexample) == (True, None)
    assert split.counts == want
    if not symmetric:
        lemma = verify_rank_minor_lemma(a, b, k, q)
        assert (lemma.passed, lemma.counterexample) == (True, None)
        assert lemma.counts == {"matrices": want["matrices"], "candidates": want["det_zero"],
                                "rows_degenerate": want["h1"], "cols_degenerate": want["h2"]}


def counted_calls(monkeypatch, module, name):
    """Replaces ``module.name`` by a wrapper that counts its calls; returns the
    one-element list holding the count."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "a,b,q,symmetric",
    [(3, 3, 2, False), (2, 4, 2, False), (4, 2, 2, False), (3, 3, 2, True),
     (3, 3, 3, False), (2, 3, 3, False), (3, 2, 3, False), (3, 3, 3, True),
     (2, 2, 5, False), (2, 3, 5, False), (3, 2, 5, False), (3, 3, 5, True)],
)
def test_a_split_walks_each_distinct_slice_once_per_chunk(a, b, q, symmetric, monkeypatch):
    # four kernel walks per chunk below k = min(a, b); at k = min(a, b) every
    # matrix has rank <= k, and the leading k-block is the first k rows when
    # k = b and the first k columns when k = a, so a square format takes one
    # walk and any other two
    small_chunks(monkeypatch, a, b, q, symmetric)
    chunks = len(walked_chunks(q, a, b, symmetric))
    module, kernel = (_enumeration, "_f2_kernels") if q == 2 else (_odd_q, "_kernel_sizes")
    calls = counted_calls(monkeypatch, module, kernel)
    npos = a * (a + 1) // 2 if symmetric else a * b
    for k in range(1, min(a, b) + 1):
        walks = 4 if k < min(a, b) else 1 if a == b else 2
        want = dict(split_closed_form(a, b, k, q, symmetric), matrices=q**npos)
        calls[0] = 0
        split = verify_component_split(a, b, k, q, symmetric)
        assert calls[0] == walks * chunks
        assert (split.passed, split.counterexample) == (True, None)
        assert split.counts == want
        if k == min(a, b):
            assert want["rank_locus"] == want["matrices"]
        if not symmetric:
            calls[0] = 0
            lemma = verify_rank_minor_lemma(a, b, k, q)
            assert calls[0] == walks * chunks
            assert lemma.counts == {"matrices": want["matrices"], "candidates": want["det_zero"],
                                    "rows_degenerate": want["h1"], "cols_degenerate": want["h2"]}


# (a, b, q, symmetric, chunk): the low digit count c and the blocks per chunk
# follow from the chunk; c = 0 where the chunk is below q
@pytest.mark.parametrize(
    "a,b,q,symmetric,chunk",
    [
        # over F_2 a chunk is one block of 2^c matrices, 2^c <= chunk
        pytest.param(2, 3, 2, False, 6, id="2-3-2-False"),  # c = 2
        pytest.param(2, 2, 2, True, 2, id="2-2-2-True"),  # c = 1
        (3, 3, 2, True, 8),  # c = 3
        # c = 2, runs of 2 blocks, ending in a partial run
        pytest.param(2, 3, 3, False, 18, id="2-3-3-False"),
        pytest.param(2, 2, 3, True, 9, id="2-2-3-True"),  # c = 2, one block per chunk
        (2, 2, 5, False, 75),  # c = 2, runs of 3 blocks
        (2, 2, 5, True, 15),  # c = 1, runs of 3 blocks
        (1, 2, 131, False, 262),  # c = 1, runs of 2 blocks
        (1, 2, 131, False, 50),  # c = 0
        (1, 1, 131, True, 50),  # c = 0
    ],
)
def test_reported_matrix_matches_the_decoded_rows(a, b, q, symmetric, chunk, monkeypatch):
    # the counterexample decoder reads one index; the walks decode whole
    # chunks, bit-sliced over F_2 and in numpy over odd q
    monkeypatch.setattr(_enumeration, "_CHUNK", chunk)
    npos = a * (a + 1) // 2 if symmetric else a * b
    if q == 2:
        walk = (
            (lo, [[[entry >> t & 1 for entry in row] for row in entries] for t in range(n)])
            for lo, n, entries in _enumeration._f2_walk(a, b, symmetric)
        )
    else:
        walk = (
            (lo, [digits[:, :, t].tolist() for t in range(digits.shape[-1])])
            for lo, digits in _odd_q._walk(q, a, b, symmetric)
        )
    index = chunks = 0
    for lo, matrices in walk:
        assert lo == index
        for offset, decoded in enumerate(matrices):
            assert _enumeration._matrix(lo + offset, q, a, b, symmetric) == decoded
        index += len(matrices)
        chunks += 1
    assert index == q**npos
    assert chunks > 2


@pytest.mark.parametrize(
    "a,b,q,symmetric,chunk",
    [(1, 2, 131, False, 300), (1, 2, 131, False, 1000), (1, 2, 131, False, 262),
     (1, 1, 131, False, 50), (1, 1, 131, True, 100), (3, 3, 3, False, 1000), (2, 2, 5, True, 40)],
)
def test_chunks_are_no_more_and_no_smaller_than_plain_pieces(a, b, q, symmetric, chunk, monkeypatch):
    # digit-aligned chunks must not shrink to q^c matrices: a walk takes as
    # many chunks as cutting it into pieces of _CHUNK would
    monkeypatch.setattr(_enumeration, "_CHUNK", chunk)
    total = q ** (a * (a + 1) // 2 if symmetric else a * b)
    chunks = walked_chunks(q, a, b, symmetric)
    sizes = [size for _, size in chunks]
    assert [lo for lo, _ in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]
    assert sum(sizes) == total
    assert len(sizes) == -(-total // chunk)
    assert max(sizes) <= chunk
    assert all(size > chunk // 2 for size in sizes[:-1])


@pytest.mark.parametrize("a,q", [(2, 4093), (1, 16777213)])
def test_large_fields_take_as_many_chunks_as_the_budget(a, q):
    # 1x2/F_4093 and 1x1/F_16777213 are inside the budget; chunks of q^c
    # matrices would make 4,093 of the first and 16.7M of the second
    assert len(walked_chunks(q, 1, a)) == ENUMERATION_BUDGET // _enumeration._CHUNK


@pytest.mark.parametrize(
    "a,b,q,symmetric",
    [(1, 2, 4093, False), (1, 1, 16777213, False), (1, 3, 251, False), (2, 2, 131, True)],
)
def test_large_fields_match_closed_forms(a, b, q, symmetric):
    # inside the budget, and one zero test per line through the origin keeps
    # them short: 1 per matrix where s = 1, q + 1 for the symmetric 2x2; over
    # F_131 the digit sums no longer fit in uint8
    census = rank_census(a, b, q, symmetric).as_dict()
    if symmetric:
        assert census == {r: symmetric_rank_count_closed_form(a, r, q) for r in range(a + 1)}
    else:
        assert census == {r: rank_count_closed_form(a, b, r, q) for r in range(min(a, b) + 1)}


def test_a_kernel_count_that_is_no_rank_stops_the_census(monkeypatch):
    # over F_3 two lines have 0, 1 or 4 normalised kernel vectors, never 2;
    # a count that matches no rank must not drop out of the tallies unseen
    monkeypatch.setattr(_odd_q, "_kernel_sizes", lambda lines, q: np.full(lines.shape[-1], 2))
    with pytest.raises(InternalInconsistency, match="sum to 0, not to their 81"):
        rank_census(2, 2, 3)
