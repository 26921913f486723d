"""Exact integer and rational linear algebra.

Everything here runs on Python ints and :class:`fractions.Fraction`; there is
no floating point anywhere.  The two workhorses are :func:`smith_normal_form`,
which returns the full ``(U, D, V)`` transform data, and :func:`cokernel`,
which turns a relation matrix into a finitely generated abelian group
descriptor.  The normal form reduces one integer tableau
``[[M, I_rows], [I_cols, 0]]``, so each row operation reaches ``U`` and each
column operation reaches ``V`` by being applied once.  Rational solving is
deliberately strict: a system with a positive-dimensional solution space
raises instead of picking a point.  One fraction-free elimination routine on
integer rows, ``_row_reduce``, serves :func:`solve_rational` (after clearing
denominators) and the rank and kernel computations of
:mod:`completeforms.cones`.

This bottom layer is also the one home of the package's two input rules.
``_require_int`` is the int rule: a named value is an int and not a bool.
``_coerce_fraction`` is the rational rule: an int or a Fraction becomes a
Fraction, and a float (a binary fraction) or a bool is refused.  Every other
module calls these two and checks no type of its own.

Beside them lives ``_Record``, the base of every record the package returns.
A record is declared ``@dataclass(init=False, repr=False, eq=False)`` over it,
so the decorator only collects the fields, and the base's methods read them:
the record behaves as ``@dataclass(frozen=True)`` would make it, but no
method is generated.  Generating them (six ``exec`` calls per frozen class)
was most of the time the command line spent importing the package.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, UnderDetermined

__all__ = [
    "IntegerMatrix",
    "RationalVector",
    "AbelianGroupDescriptor",
    "SmithNormalForm",
    "smith_normal_form",
    "cokernel",
    "solve_rational",
]


def _require_int(**values) -> None:
    """The int rule: each named value is an int and not a bool."""
    for label, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError("%s must be an int, got %r" % (label, value))


_set = object.__setattr__


class _Record:
    """Base of the package's records: the methods of a frozen dataclass, written once.

    Each method reads the record's ``__dataclass_fields__`` (plain fields
    only, no ``ClassVar`` or ``InitVar``) and does what the method generated
    by ``@dataclass(frozen=True)`` does: ``__init__`` binds positional and
    keyword arguments, fills defaults and default factories, then calls
    ``__post_init__``; ``__repr__`` is ``Name(field=value, ...)``; ``==``
    compares the field tuples of two instances of one class and gives
    ``NotImplemented`` otherwise; ``hash`` is the hash of the field tuple;
    assigning or deleting an attribute raises ``FrozenInstanceError``.
    """

    def __init__(self, *args, **kwargs):
        declared = self.__dataclass_fields__
        if kwargs or len(args) != len(declared):
            args = _bind(type(self), args, kwargs)
        # one attribute at a time: filling __dict__ in one update would turn
        # the instance's inline attribute values into a dict, slower to read
        for name, value in zip(declared, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = [f.name for f in fields(self) if f.compare]
        return [getattr(self, n) for n in compared] == [getattr(other, n) for n in compared]

    def __hash__(self):
        return hash(tuple(
            getattr(self, f.name) for f in fields(self) if (f.compare if f.hash is None else f.hash)
        ))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The field values of ``cls(*args, **kwargs)``, bound as a generated ``__init__`` binds them."""
    if not args and kwargs.keys() == cls.__dataclass_fields__.keys():
        return [kwargs[name] for name in cls.__dataclass_fields__]
    where = "%s.__init__()" % cls.__qualname__
    declared = fields(cls)
    if len(args) > len(declared):
        raise TypeError("%s takes %d positional arguments but %d were given"
                        % (where, len(declared) + 1, len(args) + 1))
    for f in declared[:len(args)]:
        if f.name in kwargs:
            raise TypeError("%s got multiple values for argument %r" % (where, f.name))
    values = list(args)
    missing = []
    for f in declared[len(args):]:
        if f.name in kwargs:
            values.append(kwargs.pop(f.name))
        elif f.default is not MISSING:
            values.append(f.default)
        elif f.default_factory is not MISSING:
            values.append(f.default_factory())
        else:
            missing.append(repr(f.name))
    if kwargs:
        raise TypeError("%s got an unexpected keyword argument %r" % (where, next(iter(kwargs))))
    if missing:
        raise TypeError("%s missing required arguments: %s" % (where, ", ".join(missing)))
    return values


@dataclass(init=False, repr=False, eq=False)
class IntegerMatrix(_Record):
    """Immutable dense matrix with integer entries, stored row major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        width = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != width:
                raise DimensionMismatch("ragged rows in matrix literal")
            for x in row:
                if type(x) is not int:
                    _require_int(entry=x)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        ot = other.transpose().entries
        return IntegerMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination.

        >>> IntegerMatrix.from_rows([[2, 0], [1, 3]]).determinant()
        6
        """
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(x) for x in row) + "]" for row in self.entries)


def _coerce_fraction(x) -> Fraction:
    """The rational rule: an int or a Fraction, as a Fraction; a float or a bool is refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise TypeError("a rational value must be an int or a Fraction, got %r" % (x,))
    return Fraction(x)


@dataclass(init=False, repr=False, eq=False)
class RationalVector(_Record):
    """Immutable vector of exact rationals."""

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, *xs) -> "RationalVector":
        return cls(tuple(_coerce_fraction(x) for x in xs))

    @classmethod
    def from_iterable(cls, xs: Iterable) -> "RationalVector":
        return cls(tuple(_coerce_fraction(x) for x in xs))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def _check(self, other: "RationalVector"):
        if len(self) != len(other):
            raise DimensionMismatch("vector lengths %d and %d" % (len(self), len(other)))

    def __add__(self, other: "RationalVector") -> "RationalVector":
        self._check(other)
        return RationalVector(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._check(other)
        return RationalVector(tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "RationalVector":
        return RationalVector(tuple(-a for a in self.values))

    def scale(self, c) -> "RationalVector":
        c = _coerce_fraction(c)
        return RationalVector(tuple(c * a for a in self.values))

    __rmul__ = scale

    def dot(self, other: "RationalVector") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self.values, other.values)), Fraction(0))

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.values) + ")"


@dataclass(init=False, repr=False, eq=False)
class AbelianGroupDescriptor(_Record):
    """A finitely generated abelian group, free part plus invariant factors.

    ``invariant_factors`` lists the torsion orders >= 2 in divisibility order
    (each divides the next); factors equal to 1 are never stored.  Any
    iterable of factors is stored as a tuple, so equal groups compare and
    hash equal.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        _require_int(free_rank=self.free_rank)
        try:
            _set(self, "invariant_factors", tuple(self.invariant_factors))
        except TypeError:
            raise TypeError(
                "invariant_factors must be an iterable of ints, got %r" % (self.invariant_factors,)
            ) from None
        for f in self.invariant_factors:
            _require_int(invariant_factor=f)
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for f in self.invariant_factors:
            if f < 2:
                raise ValueError("invariant factors must be >= 2, got %r" % (f,))
            if prev is not None and f % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = f

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self) -> str:
        parts = ["Z/%d" % f for f in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        return " + ".join(parts) if parts else "0"


@dataclass(init=False, repr=False, eq=False)
class SmithNormalForm(_Record):
    """Transform data ``u @ matrix @ v == d`` with ``u``, ``v`` unimodular."""

    u: IntegerMatrix
    d: IntegerMatrix
    v: IntegerMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))


def smith_normal_form(m: IntegerMatrix) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns ``SmithNormalForm(u, d, v)`` with ``u @ m @ v == d``, ``d``
    diagonal with nonnegative entries forming a divisibility chain, and
    ``det(u), det(v) in {+1, -1}``.  Pivoting always picks the smallest
    nonzero entry in absolute value (ties by lowest row, then column), so the
    output is a deterministic function of the input.

    The reduction runs on one tableau ``tab = [[m, I_rows], [I_cols, 0]]``: an
    operation on its first ``rows`` rows acts on ``m`` and records itself in
    ``u`` (top right), one on its first ``cols`` columns acts on ``m`` and
    records itself in ``v`` (bottom left), and ``d`` is the top-left block.
    """
    rows, cols = m.rows, m.cols
    tab = [list(a + e) for a, e in zip(m.entries, IntegerMatrix.identity(rows).entries)]
    tab += [list(e) + [0] * rows for e in IntegerMatrix.identity(cols).entries]

    def add_row(src, dst, c):
        tab[dst] = [x + c * y for x, y in zip(tab[dst], tab[src])]

    def add_col(src, dst, c):
        for row in tab:
            row[dst] += c * row[src]

    for t in range(min(rows, cols)):
        while True:
            trailing = ((i, j, x) for i in range(t, rows) for j, x in enumerate(tab[i][t:cols], t))
            pivot = min(((abs(x), i, j) for i, j, x in trailing if x), default=None)
            if pivot is None:
                break
            _, i, j = pivot
            tab[t], tab[i] = tab[i], tab[t]
            for row in tab:
                row[t], row[j] = row[j], row[t]
            if tab[t][t] < 0:
                tab[t] = [-x for x in tab[t]]
            p = tab[t][t]
            for i in range(t + 1, rows):
                add_row(t, i, -(tab[i][t] // p))
            for j in range(t + 1, cols):
                add_col(t, j, -(tab[t][j] // p))
            if any(tab[i][t] for i in range(t + 1, rows)) or any(tab[t][t + 1 : cols]):
                continue
            # Row and column are clear; force the divisibility chain by folding
            # in the first lower row with an entry the pivot does not divide.
            stray = next(
                (i for i in range(t + 1, rows) if any(x % p for x in tab[i][t + 1 : cols])), None
            )
            if stray is None:
                break
            add_row(stray, t, 1)

    return SmithNormalForm(
        u=IntegerMatrix(tuple(tuple(row[cols:]) for row in tab[:rows])),
        d=IntegerMatrix(tuple(tuple(row[:cols]) for row in tab[:rows])),
        v=IntegerMatrix(tuple(tuple(row[:cols]) for row in tab[rows:])),
    )


def cokernel(relations: IntegerMatrix) -> AbelianGroupDescriptor:
    """Quotient of Z^g by the column span of a g x r relation matrix.

    >>> str(cokernel(IntegerMatrix.from_rows([[2], [-2]])))
    'Z/2 + Z'
    >>> str(cokernel(IntegerMatrix.from_rows([[2], [-3]])))
    'Z'
    """
    g = relations.rows
    diag = smith_normal_form(relations).diagonal
    nonzero = [d for d in diag if d != 0]
    factors = tuple(d for d in nonzero if d != 1)
    return AbelianGroupDescriptor(free_rank=g - len(nonzero), invariant_factors=factors)


def _row_reduce(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of integer rows, in place.

    Each elimination step replaces row i by ``p*row_i - f*row_r``, where ``p``
    is the pivot of row r and ``f`` the entry of row i in the pivot column,
    and then divides row i by the gcd of its entries.  Returns the rows and
    the pivot columns: row r has its pivot in column ``pivots[r]`` and a zero
    in every other pivot column, and the rows past ``len(pivots)`` are zero.
    Every row stays a nonzero multiple of the row that Gauss-Jordan over the
    rationals would give, so the pivots are the same.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return rows, pivots


def _as_fraction_rows(a) -> list[list[Fraction]]:
    if isinstance(a, IntegerMatrix):
        return [[Fraction(x) for x in row] for row in a.entries]
    return [[_coerce_fraction(x) for x in row] for row in a]


def solve_rational(a, b: Sequence) -> RationalVector | None:
    """Solve ``a @ x == b`` exactly over the rationals.

    Returns the unique solution when the system is consistent with full column
    rank, ``None`` when it is inconsistent, and raises
    :class:`UnderDetermined` when the solution space is positive-dimensional.
    ``a`` may be an :class:`IntegerMatrix` or any nested sequence of ints and
    Fractions.
    """
    rows = _as_fraction_rows(a)
    rhs = [_coerce_fraction(x) for x in b]
    if len(rows) != len(rhs):
        raise DimensionMismatch("matrix has %d rows but rhs has %d entries" % (len(rows), len(rhs)))
    if not rows:
        return RationalVector(())
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch("ragged rows in matrix literal")
    aug = []
    for row, r in zip(rows, rhs):
        scale = lcm(*(x.denominator for x in row), r.denominator)
        aug.append([int(x * scale) for x in row] + [int(r * scale)])
    aug, pivots = _row_reduce(aug)
    if ncols in pivots:  # a pivot in the rhs column: 0 == nonzero
        return None
    if len(pivots) < ncols:
        raise UnderDetermined("solution space has dimension %d" % (ncols - len(pivots)))
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = Fraction(aug[i][ncols], aug[i][c])
    return RationalVector(tuple(x))
