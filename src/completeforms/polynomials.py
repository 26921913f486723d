"""Sparse exact polynomials in the entries of a generic matrix.

Variables are indexed by matrix positions (i, j); in symmetric mode the
positions (i, j) and (j, i) name the same variable, canonically stored with
i <= j.  A polynomial records its mode: a symmetric variable or minor is
symmetric, and so is everything computed from it, so :meth:`SparsePoly.shift`
and :meth:`SparsePoly.evaluate` read a key (j, i) as the variable (i, j).
Coefficients are Fractions, monomials are stored sparsely, and the printing
order is graded lex so that reprs are stable.

The main consumers are the symbolic minors of :func:`minor_det`, built by
the Leibniz formula (a k x k minor has k! terms, hence the 5x5 cap), and the
tangent-cone comparison :func:`verify_tangent_cone`, which shifts a batch of
minors to a distinguished point and compares each lowest-degree homogeneous
part against the complementary minor of the residual block.  It builds both
minors of a pair through the Leibniz routine behind :func:`minor_det`'s
checks, since its own index sets are sorted and distinct by construction.

Both walk many terms, so the inner loops avoid repeated work.  The Leibniz
formula reads one sign table per minor size, each permutation of
``range(size)`` with its sign, built at import and mapped through the
column set of every minor of that size.  A general minor's rows ascend and are
distinct, so each of its monomials is sorted as built and no two coincide:
its terms are built directly, with two shared coefficients +1 and -1, and
sorted once; only a symmetric minor, where z(i,j) and z(j,i) merge, counts
its powers.  :meth:`SparsePoly.shift` expands a monomial in one pass:
unshifted variables are copied as they are, the binomial factors
C(e, t) s^(e-t) of a shifted variable are computed once per exponent (as
ints when s is integral), a factor of 1 is not multiplied in, each
produced monomial is sorted once, and the result is built from its terms
directly, since every coefficient is a Fraction already.
:func:`shift_and_leading_form` expands nothing it would throw away: it reads
the lowest level first, each monomial with its shifted variables replaced by
their values, kept where its unshifted part has the least degree, and falls
back to the full expansion of :meth:`SparsePoly.shift` only when that level
cancels to zero.  Values enter as
ints or Fractions; floats and bools are refused rather than read as binary
fractions.  The matrix format, the indices and the tangent-cone parameters
are ints and not bools; both rules live in :mod:`completeforms.lattice`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

from .errors import DimensionMismatch, IndexOutOfRange, TooLarge
from .lattice import _Record, _coerce_fraction, _require_int
from .reports import VerificationReport
from .secants import segre_secant_invariants, veronese_secant_invariants

__all__ = [
    "SparsePoly",
    "matrix_variable",
    "minor_det",
    "shift_and_leading_form",
    "verify_tangent_cone",
]

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]

MAX_MINOR_SIZE = 5
# the coefficient of a Leibniz term by its sign, shared by every general minor
_SIGNS = {1: Fraction(1), -1: Fraction(-1)}
# cap on the Leibniz terms a tangent-cone check builds: minor pairs times (h+1)!
MAX_TANGENT_TERMS = 10**5


def matrix_variable(i: int, j: int, symmetric: bool = False) -> Var:
    """Canonical variable name for matrix position (i, j); i and j are ints."""
    if type(i) is not int or type(j) is not int:
        _require_int(row=i, column=j)
    if i < 0 or j < 0:
        raise IndexOutOfRange("negative matrix position (%d, %d)" % (i, j))
    if symmetric and i > j:
        return (j, i)
    return (i, j)


def _var_str(v: Var) -> str:
    i, j = v
    if i <= 9 and j <= 9:
        return "z%d%d" % (i, j)
    return "z%d_%d" % (i, j)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


# the Leibniz terms of a size x size determinant, indexed by size up to
# MAX_MINOR_SIZE: each permutation of range(size) with its sign
_SIGNED_PERMUTATIONS = tuple(
    tuple(
        (perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
        for perm in permutations(range(size))
    )
    for size in range(MAX_MINOR_SIZE + 1)
)


def _in_mode(poly: "SparsePoly", symmetric: bool) -> "SparsePoly":
    """``poly``, marked symmetric when ``symmetric`` is true."""
    if symmetric:
        object.__setattr__(poly, "_symmetric", True)
    return poly


@dataclass(init=False, repr=False, eq=False)
class SparsePoly(_Record):
    """Immutable sparse polynomial with Fraction coefficients.

    The mode is not a field: ``==``, ``hash``, ``repr`` and
    ``dataclasses.replace`` read the terms alone, and a polynomial built from
    terms (the constructor, :meth:`from_dict`, ``replace``) is general.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]
    _symmetric = False  # set on a symmetric polynomial by _in_mode

    @classmethod
    def from_dict(cls, d: dict) -> "SparsePoly":
        coeffs = ((m, _coerce_fraction(c)) for m, c in d.items())
        return cls(tuple(sorted((m, c) for m, c in coeffs if c != 0)))

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "SparsePoly":
        c = _coerce_fraction(c)
        return cls(((tuple(), c),)) if c != 0 else cls(())

    @classmethod
    def variable(cls, i: int, j: int, symmetric: bool = False) -> "SparsePoly":
        v = matrix_variable(i, j, symmetric)
        return _in_mode(cls(((((v, 1),), Fraction(1)),)), symmetric)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((_mono_degree(m) for m, _ in self.terms), default=-1)

    def low_degree(self) -> int:
        return min((_mono_degree(m) for m, _ in self.terms), default=-1)

    def _like(self, terms) -> "SparsePoly":
        """A polynomial in this one's mode."""
        return _in_mode(SparsePoly(tuple(terms)), self._symmetric)

    def _from_dict_like(self, d: dict) -> "SparsePoly":
        return _in_mode(SparsePoly.from_dict(d), self._symmetric)

    def _in_common_mode(self, other: "SparsePoly") -> tuple["SparsePoly", "SparsePoly"]:
        """Both operands in one mode: a general one is read as symmetric when the other is."""
        if self._symmetric == other._symmetric:
            return self, other
        return self._as_symmetric(), other._as_symmetric()

    def _as_symmetric(self) -> "SparsePoly":
        """The image under z(i,j), z(j,i) -> z(min, max): the polynomial read as symmetric."""
        if self._symmetric:
            return self
        d: dict[Monomial, Fraction] = {}
        for mono, c in self.terms:
            powers = Counter()
            for (i, j), e in mono:
                powers[(j, i) if i > j else (i, j)] += e
            m = tuple(sorted(powers.items()))
            d[m] = d.get(m, Fraction(0)) + c
        return _in_mode(SparsePoly.from_dict(d), True)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        a, b = self._in_common_mode(other)
        d = dict(a.terms)
        for m, c in b.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return a._from_dict_like(d)

    def __neg__(self) -> "SparsePoly":
        return self._like((m, -c) for m, c in self.terms)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        a, b = self._in_common_mode(other)
        d: dict[Monomial, Fraction] = {}
        for ma, ca in a.terms:
            for mb, cb in b.terms:
                m = _mono_mul(ma, mb)
                d[m] = d.get(m, Fraction(0)) + ca * cb
        return a._from_dict_like(d)

    def scale(self, c) -> "SparsePoly":
        c = _coerce_fraction(c)
        if c == 0:
            return self._like(())
        return self._like((m, c * co) for m, co in self.terms)

    def homogeneous_part(self, degree: int) -> "SparsePoly":
        return self._like((m, c) for m, c in self.terms if _mono_degree(m) == degree)

    def leading_form(self) -> "SparsePoly":
        """Lowest-degree homogeneous component (the whole poly if homogeneous)."""
        if self.is_zero:
            return self
        degrees = [_mono_degree(m) for m, _ in self.terms]
        low = min(degrees)
        return self._like(t for t, d in zip(self.terms, degrees) if d == low)

    def _point(self, values: dict) -> dict:
        """``values`` keyed by the variables they name in this polynomial's mode.

        Each key passes the position rules of :func:`matrix_variable` and each
        value the rational rule.  In symmetric mode (i, j) and (j, i) name one
        variable, so the values are read off a symmetric matrix: both keys may
        be given, with one value.
        """
        point = {}
        for key, c in values.items():
            v = matrix_variable(*key, symmetric=self._symmetric)
            c = _coerce_fraction(c)
            if point.setdefault(v, c) != c:
                raise ValueError("variable %s is given two values" % (_var_str(v),))
        return point

    def shift(self, shifts: dict) -> "SparsePoly":
        """Substitute z_v -> z_v + shifts[v] for each shifted variable.

        Uses the binomial expansion per variable power, so the cost stays
        proportional to the number of produced terms.
        """
        return self._like(term for term, _ in self._shifted(shifts))

    def _moved(self, shifts: dict) -> dict:
        """The nonzero shifts by variable; an integral one enters as an int,
        so the factors built from it stay ints."""
        return {v: c.numerator if c.denominator == 1 else c for v, c in self._point(shifts).items() if c}

    def _shifted(self, shifts: dict) -> list:
        """The sorted nonzero terms of :meth:`shift`, each with its degree.

        A produced monomial's degree is its fixed part's degree plus the
        power picked for each shifted variable, so it is counted as the
        monomial is built rather than summed again afterwards.
        """
        moved = self._moved(shifts)
        # (z + s)^e contributes C(e,t) s^(e-t) z^t; one list per (v, e) met
        expansions: dict[tuple[Var, int], list] = {}
        out: dict[Monomial, Fraction] = {}
        degrees: dict[Monomial, int] = {}
        for mono, coeff in self.terms:
            fixed = []
            fixed_degree = 0
            choices = []
            for v, e in mono:
                if v not in moved:
                    fixed.append((v, e))
                    fixed_degree += e
                    continue
                choice = expansions.get((v, e))
                if choice is None:
                    s = moved[v]
                    choice = expansions[v, e] = [
                        (((v, t),) if t else (), t, comb(e, t) * s ** (e - t)) for t in range(e + 1)
                    ]
                choices.append(choice)
            if not choices:
                prev = out.get(mono)
                out[mono] = coeff if prev is None else prev + coeff
                degrees[mono] = fixed_degree
                continue
            for picks in product(*choices):
                grown = list(fixed)
                degree = fixed_degree
                c = coeff
                for power, t, factor in picks:
                    grown += power
                    degree += t
                    if factor != 1:
                        c *= factor
                m = tuple(sorted(grown))
                prev = out.get(m)
                if prev is None:
                    out[m] = c
                    degrees[m] = degree
                else:
                    out[m] = prev + c
        # every coefficient is already a Fraction, so from_dict's rule is skipped
        return [((m, c), degrees[m]) for m, c in sorted(out.items()) if c]

    def evaluate(self, assignment: dict) -> Fraction:
        """Evaluate at a point; unassigned variables are an error."""
        point = self._point(assignment)
        total = Fraction(0)
        for mono, coeff in self.terms:
            val = coeff
            for v, e in mono:
                if v not in point:
                    raise KeyError("no value for variable %s" % (_var_str(v),))
                val *= point[v] ** e
            total += val
        return total

    def _sort_key(self, mono: Monomial):
        return (-_mono_degree(mono), mono)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda t: self._sort_key(t[0]))
        pieces = []
        for mono, coeff in ordered:
            body = "*".join(
                _var_str(v) + ("^%d" % e if e > 1 else "") for v, e in mono
            )
            mag = abs(coeff)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = "%s*%s" % (mag, body)
            if not pieces:
                pieces.append(chunk if coeff > 0 else "-" + chunk)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + chunk)
        return " ".join(pieces)


def _index_set(indices, top: int, label: str) -> list[int]:
    """The indices sorted, each a distinct int in 0..top."""
    out = list(indices)
    for i in out:
        _require_int(**{label: i})
        if i < 0 or i > top:
            raise IndexOutOfRange("%s %d outside 0..%d" % (label, i, top))
    if len(set(out)) != len(out):
        raise DimensionMismatch("repeated %s index in %r" % (label, out))
    return sorted(out)


def minor_det(
    n: int,
    m: int,
    row_set,
    col_set,
    symmetric: bool = False,
) -> SparsePoly:
    """Symbolic determinant of the submatrix of a generic (n+1) x (m+1) matrix.

    Rows and columns are sets of distinct 0-based ints of equal size.  The
    Leibniz formula gives one signed monomial per permutation of the columns,
    so a k x k minor has k! terms and the size is capped at 5x5.  In symmetric
    mode z(i,j) == z(j,i), so mirrored monomials merge, and n must equal m.
    """
    _require_int(n=n, m=m)
    rows = _index_set(row_set, n, "row")
    cols = _index_set(col_set, m, "column")
    if symmetric and n != m:
        raise DimensionMismatch("symmetric mode needs a square format, got %d != %d" % (n, m))
    if len(rows) != len(cols):
        raise DimensionMismatch(
            "need equally sized row and column sets, got %d and %d" % (len(rows), len(cols))
        )
    if len(rows) > MAX_MINOR_SIZE:
        raise TooLarge("minor size %d exceeds the %dx%d cap" % (len(rows), MAX_MINOR_SIZE, MAX_MINOR_SIZE))
    return _leibniz(rows, cols, symmetric)


def _leibniz(rows, cols, symmetric: bool) -> SparsePoly:
    """The minor on ``rows`` and ``cols``, which :func:`minor_det` has checked:
    ascending distinct ints, as many rows as columns, at most the cap."""
    signed = _SIGNED_PERMUTATIONS[len(rows)]
    if not symmetric:
        # the rows ascend and are distinct, so each Leibniz monomial is sorted
        # as built and no two permutations give the same one
        grid = [[((i, j), 1) for j in cols] for i in rows]
        terms = [(tuple(map(list.__getitem__, grid, perm)), _SIGNS[sign]) for perm, sign in signed]
        return SparsePoly(tuple(sorted(terms)))
    # grid[a][b] names the entry in row rows[a] and column cols[b]
    grid = [[(j, i) if i > j else (i, j) for j in cols] for i in rows]
    terms: dict[Monomial, int] = {}
    for perm, sign in signed:
        powers = Counter(map(list.__getitem__, grid, perm))
        mono = tuple(sorted(powers.items()))
        terms[mono] = terms.get(mono, 0) + sign
    return _in_mode(SparsePoly.from_dict(terms), True)


def shift_and_leading_form(p: SparsePoly, shifts: dict) -> SparsePoly:
    """Lowest-degree homogeneous part of p after the substitution z -> z + shift.

    This is ``p.shift(shifts).leading_form()``, term for term, but the lowest
    level is read first.  The least-degree part a monomial contributes to the
    shift puts every shifted variable's value in for its power, so it has the
    degree of the monomial's unshifted variables; the monomials whose
    unshifted part has the least degree, each with its shifted variables
    replaced by their values, summed, give the leading form.  Only when that
    level cancels to zero is the whole shift expanded and its lowest level
    kept.
    """
    moved = p._moved(shifts)
    low = None
    level: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms:
        fixed = []
        degree = 0
        c = coeff
        for v, e in mono:
            s = moved.get(v)
            if s is None:
                fixed.append((v, e))
                degree += e
            else:
                factor = s**e
                if factor != 1:
                    c *= factor
        if low is not None and degree > low:
            continue
        if low is None or degree < low:
            low, level = degree, {}
        m = mono if len(fixed) == len(mono) else tuple(fixed)
        prev = level.get(m)
        level[m] = c if prev is None else prev + c
    terms = [(m, c) for m, c in sorted(level.items()) if c]
    if terms or not p.terms:
        return p._like(terms)
    # a shift is invertible, so the full expansion of a nonzero p is nonzero
    shifted = p._shifted(shifts)
    low = min(degree for _, degree in shifted)
    return p._like(term for term, degree in shifted if degree == low)


def _equal_up_to_sign(terms, other) -> bool:
    """Whether two sorted term tuples name one polynomial or a polynomial and its negative."""
    return terms == other or len(terms) == len(other) and all(
        m == n and c == -d for (m, c), (n, d) in zip(terms, other)
    )


def verify_tangent_cone(
    n: int,
    m: int,
    h: int,
    k: int,
    symmetric: bool = False,
) -> VerificationReport:
    """Check the affine tangent-cone factorization at a rank-k point.

    Shift the generic matrix by the rank-k template (ones in the first k
    diagonal slots).  For every (h+1)-minor whose row and column sets contain
    all of 0..k-1, the lowest-degree homogeneous part of the shifted minor
    must equal, up to sign, the complementary (h+1-k)-minor of the trailing
    block.  That identity is what exhibits the tangent cone as a cone over a
    smaller secant, and the report also carries the predicted vertex
    dimension and the label of that smaller secant.  A walk of more than
    ``MAX_TANGENT_TERMS`` Leibniz terms raises :class:`TooLarge` up front.
    """
    _require_int(n=n, m=m, h=h, k=k)
    if symmetric and n != m:
        raise DimensionMismatch("symmetric mode needs n == m, got %d != %d" % (n, m))
    if not (1 <= k <= h <= min(n, m) + 1):
        raise ValueError(
            "need 1 <= k <= h <= min(n, m) + 1, got k=%d h=%d n=%d m=%d" % (k, h, n, m)
        )

    shifts = {(i, i): 1 for i in range(k)}
    checked = 0
    counterexample = None
    prefix = tuple(range(k))
    extra = h + 1 - k
    # at h = min(n, m) + 1 one side has no (h+1-k)-subset, and the other side's
    # subsets, possibly C(300, 4) of them, are never walked.  Past the minor cap
    # the first minor would raise, so the pairs are counted only below it,
    # where the count is cheap for any n and m.
    walked = h <= min(n, m)
    if walked and h + 1 > MAX_MINOR_SIZE:
        raise TooLarge(
            "a tangent-cone walk is capped at %dx%d minors, got %dx%d minors (h = %d)"
            % (MAX_MINOR_SIZE, MAX_MINOR_SIZE, h + 1, h + 1, h)
        )
    terms = comb(n + 1 - k, extra) * comb(m + 1 - k, extra) * factorial(h + 1) if walked else 0
    if terms > MAX_TANGENT_TERMS:
        raise TooLarge(
            "a tangent-cone walk is capped at %d Leibniz terms, this one would build %d (h = %d)"
            % (MAX_TANGENT_TERMS, terms, h)
        )
    pairs = (
        (r, c)
        for r in (combinations(range(k, n + 1), extra) if walked else ())
        for c in combinations(range(k, m + 1), extra)
    )
    for extra_rows, extra_cols in pairs:
        rows = prefix + extra_rows
        cols = prefix + extra_cols
        lead = shift_and_leading_form(_leibniz(rows, cols, symmetric), shifts)
        expected = _leibniz(extra_rows, extra_cols, symmetric)
        if not _equal_up_to_sign(lead.terms, expected.terms):
            counterexample = {
                "rows": list(rows),
                "cols": list(cols),
                "leading_form": str(lead),
                "expected_minor": str(expected),
            }
            break
        checked += 1

    if symmetric:
        ambient = veronese_secant_invariants(n, h).ambient_dimension
        vertex_dim = ambient - (n - k + 1) * (n - k + 2) // 2
        base = {
            "kind": "veronese_secant",
            "n": n - k,
            "h": h - k,
            "dimension": veronese_secant_invariants(n - k, h - k).dimension if h > k else None,
        }
    else:
        ambient = segre_secant_invariants(min(n, m), max(n, m), h).ambient_dimension
        vertex_dim = n * m + n + m - (m + 1 - k) * (n + 1 - k)
        base = {
            "kind": "segre_secant",
            "n": n - k,
            "m": m - k,
            "h": h - k,
            # the secant formula wants the shorter side first; n > m is allowed here
            "dimension": segre_secant_invariants(min(n, m) - k, max(n, m) - k, h - k).dimension
            if h > k
            else None,
        }

    return VerificationReport(
        name="tangent-cone",
        parameters={"n": n, "m": m, "h": h, "k": k, "symmetric": symmetric},
        passed=counterexample is None,
        counts={"minors_checked": checked},
        details={"vertex_dimension": vertex_dim, "cone_base": base, "ambient_dimension": ambient},
        counterexample=counterexample,
    )
