"""The odd-q rank kernel of the finite-field enumeration: the one module
that imports numpy.

:mod:`completeforms._enumeration` imports this module inside its odd-q
branches only, and :mod:`completeforms.determinantal` imports it at load, so
that loading the public module pays for numpy up front.  A chunk here is a
(rows, cols, n) numpy digit array; the walk reads the chunk size
``_enumeration._CHUNK`` at call time, where it has its one home.
"""

from __future__ import annotations

import numpy as np

from . import _enumeration
from ._enumeration import _gray_steps, _positions


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


def _rank_tallies(q: int, a: int, b: int, symmetric: bool):
    """How many a x b matrices over an odd F_q have each rank 0..a, a <= b."""
    tallies = np.zeros(a + 1, dtype=np.int64)
    for _, digits in _walk(q, a, b, symmetric):
        tallies += np.bincount(_ranks(digits, q), minlength=a + 1)
    return tallies
