"""The odd-q rank kernel of the finite-field enumeration: the one module
that imports numpy.

:mod:`completeforms._enumeration` imports this module inside its odd-q
branches only, and :mod:`completeforms.determinantal` imports it at load, so
that loading the public module pays for numpy up front.  A chunk here is a
(rows, cols, n) numpy digit array; the walk reads the chunk size
``_enumeration._CHUNK`` at call time, where it has its one home.  That size,
2^16 matrices, is chosen so a chunk's working set (its uint8 digits, the
running combination and its temporaries) stays in one core's L2 cache: at
2^18 the digits of a 3x4/F_3 chunk alone took 2.1 MB, and a census ran
slower.  The low digits are the same in every chunk, so the walk writes
them once, each row by doubling its first period, and a mirrored symmetric
cell copies its finished row.  One kernel, ``_kernel_sizes``, counts each
matrix's normalised kernel vectors; the split reads ranks off it by table
lookup and the census tallies them straight from the counts.  The kernel
counts in blocks, one per line, and the census counts the blocks of the rows
above the last row once per walk where the first chunk holds their period;
every chunk then walks only the last row's block.
"""

from __future__ import annotations

import numpy as np

from . import _enumeration
from ._enumeration import _gray_steps, _positions
from .errors import InternalInconsistency


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
    written once per walk into one buffer: digit p repeats every q^(p+1)
    entries and the row length is a multiple of that, so one period is
    written and the filled prefix copied onto the rest of the row, doubling
    it, and a mirrored symmetric cell copies the finished row.  A chunk
    rewrites only the higher digits that changed, one value per block.
    ``digits`` is that buffer, overwritten by the next chunk.
    """
    chunk = _enumeration._CHUNK
    cells = [{(i, j), (j, i)} if symmetric else {(i, j)} for i, j in _positions(a, b, symmetric)]
    npos = len(cells)
    chunks = -(-(q**npos) // chunk)
    c = npos
    while q**c > chunk or -(-(q ** (npos - c)) // (chunk // q**c)) > chunks:
        c -= 1
    block, blocks = q**c, q ** (npos - c)
    run = min(chunk // block, blocks)
    # uint8 holds the sum of two digits for q <= 127, which _ranks relies on
    length = run * block
    digits = np.zeros((a, b, length), dtype=np.min_scalar_type(2 * (q - 1)))
    for p in range(c):
        (i, j), *mirror = cells[p]
        row, filled = digits[i, j], q ** (p + 1)
        row[:filled] = np.arange(q).repeat(q**p)
        while filled < length:
            row[filled : 2 * filled] = row[: min(filled, length - filled)]
            filled *= 2
        for i, j in mirror:
            digits[i, j] = row
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


def _kernel_sizes(lines: np.ndarray, q: int, kernel=None, first: int = 0) -> np.ndarray:
    """Normalised kernel vectors of each matrix spanned by ``lines`` (first
    axis: the s lines), over odd q: (q^(s-r) - 1)/(q - 1) for a matrix of rank r.

    Counts the zero combinations among the normalised ones, those whose last
    nonzero coefficient is 1.  The nonzero kernel vectors of a rank-r matrix
    fall into (q^(s-r) - 1)/(q - 1) lines through the origin of q - 1
    multiples each, and each line holds exactly one normalised vector.
    Block p starts from line p and runs the Gray walk over lines 0..p-1, one
    line added per step: the normalised combinations with last coefficient
    at p.  The s blocks make (q^s - 1)/(q - 1) zero tests, against q^s - 1
    for every combination.  A combination is zero where the bitwise OR of
    its digits over the line is, reduced into one buffer per call; testing
    each digit (``combo.any``) would first cast every digit to bool.  Given
    ``kernel`` (the counts of blocks 0..first-1) and ``first``, only blocks
    first..s-1 are walked, added into it; block p reads lines 0..p only.
    """
    s, n = len(lines), lines.shape[-1]
    if kernel is None:
        kernel = np.zeros(n, dtype=np.min_scalar_type((q**s - 1) // (q - 1)))
    nonzero = np.empty(n, dtype=lines.dtype)
    for p in range(first, s):
        combo = lines[p].copy()
        kernel += np.bitwise_or.reduce(combo, axis=0, out=nonzero) == 0
        for i in _gray_steps(q, p):
            combo += lines[i]
            # unsigned: combo - q wraps above combo exactly when combo < q
            np.minimum(combo, combo - q, out=combo)
            kernel += np.bitwise_or.reduce(combo, axis=0, out=nonzero) == 0
    return kernel


def _ranks(lines: np.ndarray, q: int) -> np.ndarray:
    """Rank of each matrix spanned by ``lines``, over odd q: a table indexed by
    the count of ``_kernel_sizes`` gives it."""
    s = len(lines)
    rank = np.zeros((q**s - 1) // (q - 1) + 1, dtype=np.uint8)
    rank[[(q**j - 1) // (q - 1) for j in range(s + 1)]] = range(s, -1, -1)
    return rank.take(_kernel_sizes(lines, q))


def _flags(digits: np.ndarray, q: int, k: int):
    """The split flags of an odd-q chunk, as bit masks like ``_f2_flags``,
    with the same walks shared or skipped at k = min(a, b)."""
    a, b, n = digits.shape
    columns = digits.swapaxes(0, 1)
    block = _mask(_ranks(digits[:k, :k], q) < k)
    return (
        (1 << n) - 1 if k == min(a, b) else _mask(_ranks(min(digits, columns, key=len), q) <= k),
        block,
        block if k == b else _mask(_ranks(digits[:k], q) < k),
        block if k == a else _mask(_ranks(columns[:k], q) < k),
    )


def _mask(flag: np.ndarray) -> int:
    """A boolean array as an int bit mask, bit t for element t."""
    return int.from_bytes(np.packbits(flag, bitorder="little").tobytes(), "little")


def _rank_tallies(q: int, a: int, b: int, symmetric: bool) -> list[int]:
    """How many a x b matrices over an odd F_q have each rank 0..a, a <= b.

    Each rank r is counted straight off the kernel sizes, as the matrices
    with (q^(a-r) - 1)/(q - 1) normalised kernel vectors.  A count that is
    no such value would fall out of every tally, so each chunk's tallies
    must add up to its matrices.
    """
    # the rows above the last are the low digits of the index, so they repeat
    # every `period` matrices; where there are such rows and the first chunk
    # holds a period, their blocks are counted once, on its first period
    # matrices, and every chunk starts from those counts, turned to its first
    # matrix and tiled over it; else each chunk counts every block
    period = q ** len(_positions(a - 1, b, symmetric))
    tallies = [0] * (a + 1)
    above = None
    for lo, digits in _walk(q, a, b, symmetric):
        n = digits.shape[-1]
        if lo == 0 and 1 < period <= n:
            dtype = np.min_scalar_type((q**a - 1) // (q - 1))
            above = _kernel_sizes(digits[:-1, :, :period], q, np.zeros(period, dtype))
        start = (None, 0) if above is None else (np.tile(np.roll(above, -lo), -(-n // period))[:n], a - 1)
        kernel = _kernel_sizes(digits, q, *start)
        counts = [np.count_nonzero(kernel == (q**j - 1) // (q - 1)) for j in range(a, -1, -1)]
        if sum(counts) != kernel.size:
            raise InternalInconsistency(
                "the rank tallies of matrices %d.. sum to %d, not to their %d"
                % (lo, sum(counts), kernel.size)
            )
        tallies = [t + c for t, c in zip(tallies, counts)]
    return tallies
