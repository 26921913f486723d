"""Determinantal loci: exhaustive finite-field enumeration.

Every closed form lives in :mod:`completeforms.secants` and is re-exported
here; this module only enumerates.
The finite-field routines enumerate *every* matrix of the requested format
over F_q, in chunks of at most ``_CHUNK`` matrices cut along the base-q
digits of the matrix index, so that the low digits are decoded once per
walk.  Over F_2 a chunk is bit-sliced on Python ints, one int per entry
position whose bit t is that entry of the chunk's t-th matrix; over odd q it
is a numpy digit array.  Each engine has one rank kernel: it walks
combinations of the s lines on a matrix's shorter side in Gray-code order,
one line added per step (over F_2 an XOR of ints), and reads the rank off
the number of zero combinations, which over F_2 a bit-sliced counter holds
and a popcount tallies.  Over odd q the kernel walks only the normalised
combinations, whose last nonzero coefficient is 1: one per line through the
origin, so (q^s - 1)/(q - 1) of them, and a rank-r matrix has
(q^(s-r) - 1)/(q - 1) zero ones.  A census of a tall format walks its
transpose, which has the same ranks, so it always ranks rows; the lemma
checks, which must keep each matrix's index, rank columns too.
Both lemma checks are one walk: dependent first rows or columns always make
the leading minor vanish, so the rank-minor lemma is the forward half of the
component split.  All enumeration is bounded by ``ENUMERATION_BUDGET`` matrices.

numpy is imported at module level although the F_2 engine never uses it.
Importing it lazily would only move its cost (about 0.16 s) from loading
this module into the first odd-q check of a process, and a process that
loads the module once and runs many checks (the benchmark's verify worker)
would pay more there than the F_2 engine saves it.  The command line already
defers importing this module until a check needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

import numpy as np

from .lattice import _Record, _require_int
from .reports import VerificationReport
from .secants import (  # re-exported: every closed form and the budget live in .secants
    ENUMERATION_BUDGET,
    SecantInvariants,
    _census_preconditions,
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

_CHUNK = 1 << 18


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
# into ints, with a guard bit per lane, ranked 2.8-6x slower).  One walk fills
# the chunks, the low index digits once and the higher digits chunk by chunk.
# Every rank the module needs is the rank of some rows or columns of a chunk,
# and each engine has one kernel that computes them all: a Gray walk over the
# combinations of the lines that counts the zero ones.  Over F_2 every
# nonzero combination is its own line through the origin; over odd q the
# nonzero multiples of a kernel vector are zero with it, so the kernel counts
# one vector per line, the one whose last nonzero coefficient is 1, and makes
# (q^s - 1)/(q - 1) zero tests per matrix, not q^s - 1.  The odd-q kernel
# reads each rank off its count by table lookup; the F_2 kernel keeps the
# count bit-sliced, one int per binary digit.  The split reads both engines'
# flags as int bit masks, bit t for matrix lo + t.


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


def _f2_kernels(lines, n: int) -> list[int]:
    """Kernel sizes of the n matrices spanned by ``lines`` (s lists of ints, as
    ``_f2_walk`` holds them), bit-sliced: bit t of ``counter[j]`` is set when
    matrix t has a kernel of 2^j combinations, that is, rank s - j.

    Walks the 2^s combinations of the lines in Gray-code order, one line
    XORed in per step, and adds the mask of the matrices where the
    combination is zero into a counter of s + 1 ints by ripple carry.  A
    kernel is a subspace, so its size is a power of two and each matrix has
    exactly one counter bit set.
    """
    ones = (1 << n) - 1
    combo = None  # the empty combination, which is zero
    counter = [ones] + [0] * len(lines)
    for i in _gray_steps(2, len(lines)):
        combo = list(map(xor, combo, lines[i])) if combo else lines[i]
        carry = ones ^ reduce(or_, combo)
        for j, bits in enumerate(counter):
            if not carry:
                break
            counter[j], carry = bits ^ carry, bits & carry
    return counter


def _f2_flags(entries, n: int, k: int):
    """The split flags of an F_2 chunk as bit masks: rank <= k, leading k-minor
    zero, first k rows dependent, first k columns dependent."""
    ones = (1 << n) - 1
    columns = [list(column) for column in zip(*entries)]
    lines = min(entries, columns, key=len)
    return (
        reduce(or_, _f2_kernels(lines, n)[len(lines) - k:]),
        ones ^ _f2_kernels([row[:k] for row in entries[:k]], n)[0],
        ones ^ _f2_kernels(entries[:k], n)[0],
        ones ^ _f2_kernels(columns[:k], n)[0],
    )


def _walk(q: int, a: int, b: int, symmetric: bool):
    """Every matrix of the format over an odd F_q, in chunks: yields
    ``(lo, digits)``, the entries of matrices lo, lo+1, ... as an (a, b, n)
    digit array.

    Index t encodes the entries as base-q digits, position (i, j) at digit
    i*b + j (row major, least significant first).  The symmetric encoding
    runs over the upper triangle in the same row-major order.  A chunk is a
    run of up to ``_CHUNK // q^c`` blocks of q^c consecutive matrices, for
    the largest c that cuts the walk into no more chunks than pieces of
    ``_CHUNK`` would.  Every block has the same c low digits, so they are
    written once per walk into one buffer, and a chunk rewrites only the
    higher digits that changed, one value per block.  ``digits`` is that
    buffer, overwritten by the next chunk.
    """
    cells = [{(i, j), (j, i)} if symmetric else {(i, j)} for i, j in _positions(a, b, symmetric)]
    npos = len(cells)
    chunks = -(-(q**npos) // _CHUNK)
    c = npos
    while q**c > _CHUNK or -(-(q ** (npos - c)) // (_CHUNK // q**c)) > chunks:
        c -= 1
    block, blocks = q**c, q ** (npos - c)
    run = min(_CHUNK // block, blocks)
    # uint8 holds the sum of two digits for q <= 127, which _ranks relies on
    digits = np.zeros((a, b, run * block), dtype=np.min_scalar_type(2 * (q - 1)))
    for p in range(c):
        for i, j in cells[p]:
            digits[i, j].reshape(-1, q, q**p)[:] = np.arange(q)[:, None]
    held = np.zeros((npos - c, run), dtype=np.uint32)  # the digits from c up, per block
    for first in range(0, blocks, run):
        count = min(run, blocks - first)
        n = count * block
        u = np.arange(first, first + count, dtype=np.uint32)
        for p in range(c, npos):
            u, digit = np.divmod(u, q)
            old = held[p - c, :count]
            if (digit == old).all():
                continue
            for i, j in cells[p]:
                digits[i, j, :n].reshape(count, block)[:] = digit[:, None]
            old[:] = digit
        yield first * block, digits[..., :n]


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
    """Rank of each matrix spanned by ``lines`` (first axis: the s lines), over odd q.

    Counts the zero combinations among the normalised ones, those whose last
    nonzero coefficient is 1.  The nonzero kernel vectors of a rank-r matrix
    fall into (q^(s-r) - 1)/(q - 1) lines through the origin of q - 1
    multiples each, and each line holds exactly one normalised vector, so a
    table indexed by that count gives the rank.  Block p starts from line p
    and runs the Gray walk over lines 0..p-1, one line added per step: the
    normalised combinations with last coefficient at p.  The s blocks make
    (q^s - 1)/(q - 1) zero tests, against q^s - 1 for every combination.
    """
    s = len(lines)
    lines_through_origin = (q**s - 1) // (q - 1)
    kernel = np.zeros(lines.shape[-1], dtype=np.min_scalar_type(lines_through_origin))
    steps = _gray_steps(q, s - 1)
    for p in range(s):
        combo = lines[p].copy()
        kernel += ~combo.any(axis=0)
        for i in steps[: q**p - 1]:
            combo += lines[i]
            # unsigned: combo - q wraps above combo exactly when combo < q
            np.minimum(combo, combo - q, out=combo)
            kernel += ~combo.any(axis=0)
    rank = np.zeros(lines_through_origin + 1, dtype=np.uint8)
    rank[[(q**j - 1) // (q - 1) for j in range(s + 1)]] = range(s, -1, -1)
    return rank.take(kernel)


def _flags(digits: np.ndarray, q: int, k: int):
    """The split flags of an odd-q chunk, as bit masks like ``_f2_flags``."""
    columns = digits.swapaxes(0, 1)
    flags = (
        _ranks(min(digits, columns, key=len), q) <= k,
        _ranks(digits[:k, :k], q) < k,
        _ranks(digits[:k], q) < k,
        _ranks(columns[:k], q) < k,
    )
    return tuple(int.from_bytes(np.packbits(f, bitorder="little").tobytes(), "little") for f in flags)


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
    comparisons are this module's acceptance checks.  A tall format is
    walked as its transpose, a bijection that keeps rank, so the kernel
    always ranks the shorter side's rows; the result keeps ``a`` and ``b``.
    """
    _census_preconditions(a, b, q, symmetric)
    s, l = min(a, b), max(a, b)
    if q == 2:
        tallies = [0] * (s + 1)
        for _, n, entries in _f2_walk(s, l, symmetric):
            for j, size in enumerate(_f2_kernels(entries, n)):
                tallies[s - j] += size.bit_count()
    else:
        tallies = np.zeros(s + 1, dtype=np.int64)
        for _, digits in _walk(q, s, l, symmetric):
            tallies += np.bincount(_ranks(digits, q), minlength=s + 1)
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
    _require_int(k=k)
    if not (1 <= k <= min(a, b)):
        raise ValueError("need 1 <= k <= min(a, b), got k=%d a=%d b=%d" % (k, a, b))
    total = _census_preconditions(a, b, q, symmetric)
    if q == 2:
        chunks = ((lo, _f2_flags(entries, n, k)) for lo, n, entries in _f2_walk(a, b, symmetric))
    else:
        chunks = ((lo, _flags(digits, q, k)) for lo, digits in _walk(q, a, b, symmetric))
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
