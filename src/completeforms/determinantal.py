"""Determinantal loci: exhaustive finite-field enumeration.

Every closed form lives in :mod:`completeforms.secants` and is re-exported
here; this module only enumerates.
The finite-field routines enumerate *every* matrix of the requested format
over F_q, in numpy chunks of ``_CHUNK`` matrices.  The census and the lemma
checks share one rank kernel: it walks the combinations of the rows on a
matrix's shorter side in Gray-code order, one row added per step (an XOR of
bit masks over F_2), and reads the rank off the number of zero combinations.
Both lemma checks are one walk: dependent first rows or columns always make
the leading minor vanish, so the rank-minor lemma is the forward half of the
component split.  All enumeration is bounded by ``ENUMERATION_BUDGET`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NonPrimeField
from .reports import VerificationReport
from .secants import (  # re-exported: every closed form lives in .secants
    SecantInvariants,
    is_prime,
    rank_count_closed_form,
    segre_secant_invariants,
    symmetric_rank_count_closed_form,
    veronese_secant_invariants,
)

__all__ = [
    "SecantInvariants",
    "RankCensus",
    "segre_secant_invariants",
    "veronese_secant_invariants",
    "rank_census",
    "rank_count_closed_form",
    "symmetric_rank_count_closed_form",
    "verify_rank_minor_lemma",
    "verify_component_split",
]

ENUMERATION_BUDGET = 1 << 24
_CHUNK = 1 << 18


# ------------------------------------------------------------ census

@dataclass(frozen=True)
class RankCensus:
    """Exhaustive rank distribution over all matrices of one format."""

    a: int
    b: int
    q: int
    symmetric: bool
    counts: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "q": self.q,
            "symmetric": self.symmetric,
            "counts": {str(r): c for r, c in self.counts},
            "total": self.total,
        }


def _census_preconditions(a: int, b: int, q: int, symmetric: bool) -> int:
    if a < 1 or b < 1:
        raise ValueError("matrix format must be positive, got %dx%d" % (a, b))
    if symmetric and a != b:
        raise DimensionMismatch("symmetric census needs a == b, got %d != %d" % (a, b))
    # budget before primality, so any q is refused by size; no q**npos past 24 positions
    npos = a * (a + 1) // 2 if symmetric else a * b
    if abs(q) >= 2 and (npos >= ENUMERATION_BUDGET.bit_length() or q**npos > ENUMERATION_BUDGET):
        raise BudgetExceeded(
            "would enumerate %d^%d matrices, budget is %d" % (q, npos, ENUMERATION_BUDGET)
        )
    if not is_prime(q):
        raise NonPrimeField(
            "%d is not prime; enumeration over prime fields only (2, 3, 5 in practice)" % q
        )
    return q**npos


# ------------------------------------------------------------ rank kernel
#
# A chunk of matrices is held as its rows: over F_2 row i is a uint32 bit
# mask (bit j is entry (i, j)), over odd q it is a (b, n) digit array.  Every
# rank the module needs is the rank of a slice of those rows or of the
# matching columns, and one kernel computes them all.


def _positions(a: int, b: int, symmetric: bool):
    """Entry positions in index-digit order: row major, least significant first;
    the symmetric encoding runs over the upper triangle only."""
    return [(i, j) for i in range(a) for j in range(i if symmetric else 0, b)]


def _chunks(total: int):
    """Matrix indices 0..total-1 in int64 arrays of at most ``_CHUNK``."""
    for lo in range(0, total, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)


def _decode_rows(t: np.ndarray, q: int, a: int, b: int, symmetric: bool) -> np.ndarray:
    """Rows of matrices ``t``: an (a, n) uint32 mask array over F_2, else (a, b, n) digits.

    Index t encodes the entries as base-q digits, position (i, j) at digit
    i*b + j (row major, least significant first).  The symmetric encoding
    runs over the upper triangle in the same row-major order.
    """
    if q == 2:
        rows = np.zeros((a, len(t)), dtype=np.uint32)
        if not symmetric:
            for i in range(a):
                rows[i] = (t >> (i * b)) & ((1 << b) - 1)
            return rows
        for pos, (i, j) in enumerate(_positions(a, b, True)):
            bit = ((t >> pos) & 1).astype(np.uint32)
            rows[i] |= bit << j
            rows[j] |= bit << i
        return rows
    # uint8 holds the sum of two digits for q <= 127, which _ranks relies on
    entries = np.empty((a, b, len(t)), dtype=np.min_scalar_type(2 * (q - 1)))
    for i, j in _positions(a, b, symmetric):
        t, entries[i, j] = np.divmod(t, q)
        if symmetric:
            entries[j, i] = entries[i, j]
    return entries


def _columns(rows: np.ndarray, q: int, count: int) -> np.ndarray:
    """The first ``count`` columns of the matrices, in the layout of ``rows``."""
    if q != 2:
        return rows[:, :count].swapaxes(0, 1)
    cols = np.zeros((count, rows.shape[1]), dtype=np.uint32)
    for j in range(count):
        for i, row in enumerate(rows):
            cols[j] |= ((row >> j) & 1) << i
    return cols


def _leading(rows: np.ndarray, q: int, k: int) -> np.ndarray:
    """The leading k x k blocks of the matrices."""
    if q == 2:
        return rows[:k] & ((1 << k) - 1)
    return rows[:k, :k]


def _gray_steps(q: int, s: int) -> list[int]:
    """Digit moved at each step of the modular q-ary Gray code on s digits.

    Step j adds 1 (mod q) to the digit at the number of trailing zero base-q
    digits of j, so the q^s - 1 steps visit every nonzero vector once.
    """
    steps = []
    for j in range(1, q**s):
        i = 0
        while j % q == 0:
            j //= q
            i += 1
        steps.append(i)
    return steps


def _ranks(lines: np.ndarray, q: int) -> np.ndarray:
    """Rank of each matrix spanned by ``lines`` (first axis: the s lines).

    Walks the q^s combinations of the lines in Gray-code order, one line
    added per step, and counts the zero ones: the kernel of a rank-r
    matrix has exactly q^(s-r) elements.
    """
    s = len(lines)
    combo = np.zeros_like(lines[0])
    kernel = np.ones(combo.shape[-1], dtype=np.min_scalar_type(q**s))
    for i in _gray_steps(q, s):
        if q == 2:
            combo ^= lines[i]
            kernel += combo == 0
        else:
            combo += lines[i]
            # unsigned: combo - q wraps above combo exactly when combo < q
            np.minimum(combo, combo - q, out=combo)
            kernel += ~combo.any(axis=0)
    powers = q ** np.arange(s + 1, dtype=np.int64)
    return s - np.searchsorted(powers, kernel)


def _full_ranks(rows: np.ndarray, q: int, a: int, b: int) -> np.ndarray:
    """Ranks of the whole matrices, walked over the shorter side."""
    return _ranks(rows if a <= b else _columns(rows, q, b), q)


def _matrix(index: int, q: int, a: int, b: int, symmetric: bool) -> list[list[int]]:
    """Matrix number ``index`` as nested lists, for a report."""
    matrix = [[0] * b for _ in range(a)]
    for i, j in _positions(a, b, symmetric):
        index, matrix[i][j] = divmod(index, q)
        if symmetric:
            matrix[j][i] = matrix[i][j]
    return matrix


def rank_census(a: int, b: int, q: int, symmetric: bool = False) -> RankCensus:
    """Enumerate every a x b matrix over F_q and tally ranks.

    The non-symmetric result must match :func:`rank_count_closed_form` and
    the symmetric one (all symmetric matrices, encoded by their upper
    triangle) :func:`symmetric_rank_count_closed_form`, rank by rank; those
    comparisons are this module's acceptance checks.
    """
    total = _census_preconditions(a, b, q, symmetric)
    tallies = np.zeros(min(a, b) + 1, dtype=np.int64)
    for t in _chunks(total):
        ranks = _full_ranks(_decode_rows(t, q, a, b, symmetric), q, a, b)
        tallies += np.bincount(ranks, minlength=len(tallies))
    counts = tuple((r, int(c)) for r, c in enumerate(tallies))
    return RankCensus(a, b, q, symmetric, counts)


# ------------------------------------------------------------ lemma checks

_SPLIT_COUNTS = ("rank_locus", "det_zero", "h1", "h2", "overlap")


def _split_tallies(a: int, b: int, k: int, q: int, symmetric: bool):
    """Walk every matrix once and tally the split on the rank <= k locus.

    Per matrix the flags are: rank <= k, leading k-minor zero (leading block
    of rank < k), first k rows dependent (H1) and first k columns dependent
    (H2).  The walk stops at the first matrix of the locus where the minor
    vanishes but neither slice is dependent, or the other way round; the
    counts include it.  Returns the matrix total, the counts by
    ``_SPLIT_COUNTS`` and a counterexample: that matrix, else in symmetric
    mode the first matrix of the locus with H1 != H2, else None.
    """
    if not (1 <= k <= min(a, b)):
        raise ValueError("need 1 <= k <= min(a, b), got k=%d a=%d b=%d" % (k, a, b))
    total = _census_preconditions(a, b, q, symmetric)
    tallies = np.zeros(len(_SPLIT_COUNTS), dtype=np.int64)
    failure = asymmetric = None
    for t in _chunks(total):
        rows = _decode_rows(t, q, a, b, symmetric)
        low_rank = _full_ranks(rows, q, a, b) <= k
        det_zero = _ranks(_leading(rows, q, k), q) < k
        h1 = _ranks(rows[:k], q) < k
        h2 = _ranks(_columns(rows, q, k), q) < k
        wrong = low_rank & (det_zero != (h1 | h2))
        stop = int(wrong.argmax()) + 1 if wrong.any() else len(t)
        flags = np.array([low_rank, det_zero, h1, h2, h1 & h2])[:, :stop]
        tallies += np.count_nonzero(flags & low_rank[:stop], axis=1)
        if wrong[stop - 1]:
            failure = int(t[stop - 1])
            break
        if symmetric and asymmetric is None:
            split = low_rank & (h1 != h2)
            asymmetric = int(t[split.argmax()]) if split.any() else None
    counts = dict(zip(_SPLIT_COUNTS, map(int, tallies)))
    index = asymmetric if failure is None else failure
    if index is None:
        return total, counts, None
    counterexample = {"matrix": _matrix(index, q, a, b, symmetric), "index": index}
    if failure is None:
        counterexample["reason"] = "asymmetric split in symmetric mode"
    return total, counts, counterexample


def verify_rank_minor_lemma(a: int, b: int, k: int, q: int) -> VerificationReport:
    """On the rank <= k locus, a vanishing leading k-minor forces degenerate slices.

    Exhaustively checks: every a x b matrix over F_q of rank at most k whose
    top-left k x k determinant vanishes has its first k rows dependent or its
    first k columns dependent.  This is the forward inclusion of
    :func:`verify_component_split`, read off the same walk: the candidates
    are its ``det_zero`` matrices, the degenerate ones its ``h1`` and ``h2``,
    and it fails where the split fails.
    """
    total, counts, counterexample = _split_tallies(a, b, k, q, False)
    return VerificationReport(
        name="rank-lemma",
        parameters={"a": a, "b": b, "k": k, "q": q},
        passed=counterexample is None,
        counts={
            "matrices": total,
            "candidates": counts["det_zero"],
            "rows_degenerate": counts["h1"],
            "cols_degenerate": counts["h2"],
        },
        counterexample=counterexample,
    )


def verify_component_split(
    a: int, b: int, k: int, q: int, symmetric: bool = False
) -> VerificationReport:
    """The vanishing leading k-minor locus splits into two pieces on rank <= k.

    Within the rank <= k locus, {top-left k x k det = 0} must equal the union
    of H1 = {first k rows dependent} and H2 = {first k columns dependent};
    the report tallies both pieces and their overlap.  In the symmetric case
    the two pieces coincide as sets.
    """
    total, counts, counterexample = _split_tallies(a, b, k, q, symmetric)
    return VerificationReport(
        name="component-split",
        parameters={"a": a, "b": b, "k": k, "q": q, "symmetric": symmetric},
        passed=counterexample is None,
        counts={"matrices": total, **counts},
        counterexample=counterexample,
    )
