"""Determinantal loci: exhaustive finite-field enumeration.

Every closed form lives in :mod:`completeforms.secants` and is re-exported
here; this module only enumerates.
The finite-field routines enumerate *every* matrix of the requested format
over F_q, in chunks of at most ``_enumeration._CHUNK`` matrices cut along
the base-q digits of the matrix index, so that the low digits are decoded
once per walk.  Over F_2 a chunk is bit-sliced on Python ints, one int per entry
position whose bit t is that entry of the chunk's t-th matrix; over odd q it
is a numpy digit array.  Each engine has one rank kernel: it walks
combinations of the s lines on a matrix's shorter side in blocks, block p
those whose last line is p, each in Gray-code order from line p, one line
added per step (over F_2 an XOR of ints), and reads the rank off the number
of zero combinations, which over F_2 a bit-sliced counter holds and a
popcount tallies.  Over odd q the kernel walks only the normalised
combinations, whose last nonzero coefficient is 1: one per line through the
origin, so (q^s - 1)/(q - 1) of them, and a rank-r matrix has
(q^(s-r) - 1)/(q - 1) zero ones.  A census of a tall format walks its
transpose, which has the same ranks, so it always ranks rows; the lemma
checks, which must keep each matrix's index, rank columns too.  The rows
above a census's last row are the low digits of the index, so where the
first chunk holds their period the census counts their blocks once and
each chunk walks only the last row's block.
Both lemma checks are one walk: dependent first rows or columns always make
the leading minor vanish, so the rank-minor lemma is the forward half of the
component split.  All enumeration is bounded by ``ENUMERATION_BUDGET`` matrices,
which :mod:`completeforms._enumeration` owns and checks before it walks.

numpy is loaded when this module is, on purpose, although the F_2 engine
never uses it: the module imports the odd-q kernel, :mod:`completeforms._odd_q`,
at load.  Importing it lazily would only move its cost (about 0.1-0.17 s)
from loading this module into the first odd-q check of a process, and a
process that loads the module once and runs many checks (the benchmark's
verify worker) would pay it there instead.  The enumeration itself lives in
:mod:`completeforms._enumeration`, which names no numpy and imports the
odd-q kernel only when it walks an odd q; the command line enumerates
through that module, so an F_2 check there never loads numpy.  The three
checks are defined here, each calling its body there, rather than
re-exported, so that they are this module's own functions.
"""

from __future__ import annotations

from . import _enumeration
from . import _odd_q  # noqa: F401 - loads numpy with this module, see above
from ._enumeration import ENUMERATION_BUDGET, RankCensus
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


def rank_census(a: int, b: int, q: int, symmetric: bool = False) -> RankCensus:
    """Enumerate every a x b matrix over F_q and tally ranks.

    The non-symmetric result must match :func:`rank_count_closed_form` and
    the symmetric one (all symmetric matrices, encoded by their upper
    triangle) :func:`symmetric_rank_count_closed_form`, rank by rank; those
    comparisons are this module's acceptance checks.  A tall format is
    walked as its transpose, a bijection that keeps rank, so the kernel
    always ranks the shorter side's rows; the result keeps ``a`` and ``b``.
    """
    return _enumeration.rank_census(a, b, q, symmetric)


def verify_rank_minor_lemma(a: int, b: int, k: int, q: int) -> VerificationReport:
    """On the rank <= k locus, a vanishing leading k-minor forces degenerate slices.

    Exhaustively checks: every a x b matrix over F_q of rank at most k whose
    top-left k x k determinant vanishes has its first k rows dependent or its
    first k columns dependent.  This is the forward inclusion of
    :func:`verify_component_split`, read off the same walk: the candidates
    are its ``det_zero`` matrices, the degenerate ones its ``h1`` and ``h2``,
    and it fails where the split fails.
    """
    return _enumeration.verify_rank_minor_lemma(a, b, k, q)


def verify_component_split(
    a: int, b: int, k: int, q: int, symmetric: bool = False
) -> VerificationReport:
    """The vanishing leading k-minor locus splits into two pieces on rank <= k.

    Within the rank <= k locus, {top-left k x k det = 0} must equal the union
    of H1 = {first k rows dependent} and H2 = {first k columns dependent};
    the report tallies both pieces and their overlap.  In the symmetric case
    the two pieces coincide as sets.
    """
    return _enumeration.verify_component_split(a, b, k, q, symmetric)
