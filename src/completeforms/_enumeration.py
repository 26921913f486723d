"""The finite-field enumeration behind :mod:`completeforms.determinantal`,
without numpy.

This module holds the budget ``ENUMERATION_BUDGET`` and the checks every
walk runs first, the census record, the walks' shared helpers, the F_2
engine, the split tally and the bodies of the three checks; the public
module defines the checks by calling these.  The odd-q kernel lives in
:mod:`completeforms._odd_q`, the one module that imports numpy, and this
module imports it only in the odd-q branch of the census and of the split
walk, after those checks, so a refused request or an F_2 check never loads
numpy.  The chunk size ``_CHUNK`` has its home here, and both walks read it
at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

from .errors import BudgetExceeded, DimensionMismatch, NonPrimeField
from .lattice import _Record, _require_int
from .reports import VerificationReport
from .secants import is_prime

ENUMERATION_BUDGET = 1 << 24
# Matrices per chunk, for both engines.  2^16 keeps an odd-q chunk's working
# set inside one core's 2 MiB L2 cache: the digits of a 3x4/F_3 chunk take
# 708 KB, against 2.1 MB at 2^18, before the combination and its temporaries.
# The F_2 engine runs as fast at either size.
_CHUNK = 1 << 16


def _census_preconditions(a: int, b: int, q: int, symmetric: bool) -> int:
    """The number of matrices a census of this format walks, once it may walk them.

    Checks the format, then the budget, then q's primality, so that a
    request is refused before anything is walked or the odd-q kernel is
    imported.
    """
    _require_int(a=a, b=b, q=q)
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


# ------------------------------------------------------------ census

@dataclass(init=False, repr=False, eq=False)
class RankCensus(_Record):
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


# ------------------------------------------------------------ rank kernels
#
# Two engines share one walk order.  Over F_2 a chunk of 2^c consecutive
# matrices is one Python int per entry: bit t is that entry of matrix lo + t.
# Over odd q a chunk is a (rows, cols, n) numpy digit array (odd digits packed
# into ints, with a guard bit per lane, ranked 2.8-6x slower), built and
# ranked in ``_odd_q``.  One walk fills the chunks, the low index digits once
# and the higher digits chunk by chunk.  Every rank the enumeration needs is
# the rank of some rows or columns of a chunk, and each engine has one kernel
# that computes them all: a Gray walk over the combinations of the lines that
# counts the zero ones.  Over F_2 every nonzero combination is its own line
# through the origin; over odd q the nonzero multiples of a kernel vector are
# zero with it, so the kernel counts one vector per line, the one whose last
# nonzero coefficient is 1, and makes (q^s - 1)/(q - 1) zero tests per
# matrix, not q^s - 1.  The odd-q kernel returns that count; the split reads
# each rank off it by table lookup and the census counts each rank's value
# directly.  The F_2 kernel keeps the count bit-sliced, one int per binary
# digit.  Both kernels count in blocks: block p holds the combinations whose
# last line is p, so it reads lines 0..p only.  A census walks rows, row 0 in
# the lowest digits, so the rows above the last repeat every q^(their
# positions) matrices; where the first chunk holds that period, the census
# counts their blocks once, on the first period matrices, and each chunk
# starts from those counts and walks only the last row's block.  The split
# reads both engines' flags as int bit masks, bit t for matrix lo + t.


def _positions(a: int, b: int, symmetric: bool):
    """Entry positions in index-digit order: row major, least significant first;
    the symmetric encoding runs over the upper triangle only."""
    return [(i, j) for i in range(a) for j in range(i if symmetric else 0, b)]


def _f2_walk(a: int, b: int, symmetric: bool):
    """Every a x b matrix over F_2, in chunks: yields ``(lo, n, entries)``, where
    ``entries[i][j]`` is an int whose bit t is entry (i, j) of matrix lo + t,
    for the n = 2^c matrices of the chunk.

    Index t encodes the entries as bits, position (i, j) at bit i*b + j (the
    symmetric encoding runs over the upper triangle, and (j, i) shares the
    int of (i, j)).  A chunk holds 2^c consecutive matrices, for c the number
    of positions or log2 ``_CHUNK``, whichever is smaller.  Its c low
    positions are the same periodic patterns in every chunk, built once by
    doubling; each higher position is 0 or all ones over the chunk.
    """
    positions = _positions(a, b, symmetric)
    c = min(len(positions), _CHUNK.bit_length() - 1)
    n = 1 << c
    ones = (1 << n) - 1
    low = []
    for p in range(c):
        pattern, period = ((1 << (1 << p)) - 1) << (1 << p), 2 << p
        while period < n:
            pattern |= pattern << period
            period <<= 1
        low.append(pattern)
    for high in range(1 << (len(positions) - c)):
        entries = [[0] * b for _ in range(a)]
        for p, (i, j) in enumerate(positions):
            entries[i][j] = low[p] if p < c else ones if high >> (p - c) & 1 else 0
        if symmetric:
            for i, j in positions:
                entries[j][i] = entries[i][j]
        yield high << c, n, entries


def _f2_kernels(lines, n: int, counter=None, first: int = 0) -> list[int]:
    """Kernel sizes of the n matrices spanned by ``lines`` (s lists of ints, as
    ``_f2_walk`` holds them), bit-sliced: bit t of ``counter[j]`` is set when
    matrix t has a kernel of 2^j combinations, that is, rank s - j.

    Counts the zero combinations of the lines into a counter of s + 1 ints
    by ripple carry, starting from the empty combination, which is zero.
    Block p holds the combinations whose last line is p: it starts from line
    p and runs the Gray walk over lines 0..p-1, one line XORed in per step.
    A kernel is a subspace, so its size is a power of two and each matrix has
    exactly one counter bit set.  Given ``counter`` (the counts of blocks
    0..first-1) and ``first``, only blocks first..s-1 are walked, added into
    it; block p reads lines 0..p only.
    """
    ones = (1 << n) - 1
    if counter is None:
        counter = [ones] + [0] * len(lines)

    def add(carry):
        for j, bits in enumerate(counter):
            if not carry:
                break
            counter[j], carry = bits ^ carry, bits & carry

    for p in range(first, len(lines)):
        combo = lines[p]
        add(ones ^ reduce(or_, combo))
        for i in _gray_steps(2, p):
            combo = list(map(xor, combo, lines[i]))
            add(ones ^ reduce(or_, combo))
    return counter


def _f2_flags(entries, n: int, k: int):
    """The split flags of an F_2 chunk as bit masks: rank <= k, leading k-minor
    zero, first k rows dependent, first k columns dependent.

    At k = min(a, b) every matrix has rank <= k, so that flag needs no walk.
    The first k rows are the leading k-block when k = b, and the first k
    columns are when k = a, so such a slice shares the block's walk.
    """
    a, b = len(entries), len(entries[0])
    ones = (1 << n) - 1
    columns = [list(column) for column in zip(*entries)]
    lines = min(entries, columns, key=len)
    block = ones ^ _f2_kernels([row[:k] for row in entries[:k]], n)[0]
    return (
        ones if k == min(a, b) else reduce(or_, _f2_kernels(lines, n)[len(lines) - k:]),
        block,
        block if k == b else ones ^ _f2_kernels(entries[:k], n)[0],
        block if k == a else ones ^ _f2_kernels(columns[:k], n)[0],
    )


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


def _matrix(index: int, q: int, a: int, b: int, symmetric: bool) -> list[list[int]]:
    """Matrix number ``index`` as nested lists, for a report."""
    matrix = [[0] * b for _ in range(a)]
    for i, j in _positions(a, b, symmetric):
        index, matrix[i][j] = divmod(index, q)
        if symmetric:
            matrix[j][i] = matrix[i][j]
    return matrix


def rank_census(a: int, b: int, q: int, symmetric: bool = False) -> RankCensus:
    """The body of :func:`completeforms.determinantal.rank_census`: walks the
    shorter side's rows, taking a tall format as its transpose, and counts
    the blocks of the rows above the last once where a chunk holds their
    period."""
    _census_preconditions(a, b, q, symmetric)
    s, l = min(a, b), max(a, b)
    if q == 2:
        # the rows above the last are the low bits of the index, so they repeat
        # every `period` matrices; where there are such rows and a chunk holds
        # a period, their blocks are counted once, on the first period
        # matrices, tiled over a chunk, and every chunk starts from those
        # counts; else each chunk counts every block
        period = 1 << len(_positions(s - 1, l, symmetric))
        tallies = [0] * (s + 1)
        above = None
        for lo, n, entries in _f2_walk(s, l, symmetric):
            if lo == 0 and 1 < period <= n:
                above = _f2_kernels([[e & (1 << period) - 1 for e in row] for row in entries[:-1]], period)
                width = period
                while width < n:
                    above = [size | size << width for size in above]
                    width <<= 1
                above.append(0)
            start = (None, 0) if above is None else (list(above), s - 1)
            for j, size in enumerate(_f2_kernels(entries, n, *start)):
                tallies[s - j] += size.bit_count()
    else:
        from . import _odd_q

        tallies = _odd_q._rank_tallies(q, s, l, symmetric)
    counts = tuple((r, int(c)) for r, c in enumerate(tallies))
    return RankCensus(a, b, q, symmetric, counts)


# ------------------------------------------------------------ lemma checks

_SPLIT_COUNTS = ("rank_locus", "det_zero", "h1", "h2", "overlap")


def _split_tallies(a: int, b: int, k: int, q: int, symmetric: bool):
    """Walk every matrix once and tally the split on the rank <= k locus.

    The preconditions of the census run first, then the check of k.
    Per matrix the flags are: rank <= k, leading k-minor zero (leading block
    of rank < k), first k rows dependent (H1) and first k columns dependent
    (H2).  The walk stops at the first matrix of the locus where the minor
    vanishes but neither slice is dependent, or the other way round; the
    counts include it.  Returns the matrix total, the counts by
    ``_SPLIT_COUNTS`` and a counterexample: that matrix, else in symmetric
    mode the first matrix of the locus with H1 != H2, else None.
    """
    total = _census_preconditions(a, b, q, symmetric)
    _require_int(k=k)
    if not (1 <= k <= min(a, b)):
        raise ValueError("need 1 <= k <= min(a, b), got k=%d a=%d b=%d" % (k, a, b))
    if q == 2:
        chunks = ((lo, _f2_flags(entries, n, k)) for lo, n, entries in _f2_walk(a, b, symmetric))
    else:
        from . import _odd_q

        chunks = (
            (lo, _odd_q._flags(digits, q, k)) for lo, digits in _odd_q._walk(q, a, b, symmetric)
        )
    tallies = [0] * len(_SPLIT_COUNTS)
    failure = asymmetric = None
    for lo, (low_rank, det_zero, h1, h2) in chunks:
        wrong = low_rank & (det_zero ^ (h1 | h2))
        if wrong:
            offset = (wrong & -wrong).bit_length() - 1
            low_rank &= (2 << offset) - 1
        for i, flag in enumerate((low_rank, det_zero, h1, h2, h1 & h2)):
            tallies[i] += (flag & low_rank).bit_count()
        if wrong:
            failure = lo + offset
            break
        if symmetric and asymmetric is None:
            split = low_rank & (h1 ^ h2)
            asymmetric = lo + (split & -split).bit_length() - 1 if split else None
    counts = dict(zip(_SPLIT_COUNTS, tallies))
    index = asymmetric if failure is None else failure
    if index is None:
        return total, counts, None
    counterexample = {"matrix": _matrix(index, q, a, b, symmetric), "index": index}
    if failure is None:
        counterexample["reason"] = "asymmetric split in symmetric mode"
    return total, counts, counterexample


def verify_rank_minor_lemma(a: int, b: int, k: int, q: int) -> VerificationReport:
    """The body of :func:`completeforms.determinantal.verify_rank_minor_lemma`:
    the forward half of the split, read off the same walk."""
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
    """The body of :func:`completeforms.determinantal.verify_component_split`."""
    total, counts, counterexample = _split_tallies(a, b, k, q, symmetric)
    return VerificationReport(
        name="component-split",
        parameters={"a": a, "b": b, "k": k, "q": q, "symmetric": symmetric},
        passed=counterexample is None,
        counts={"matrices": total, **counts},
        counterexample=counterexample,
    )
