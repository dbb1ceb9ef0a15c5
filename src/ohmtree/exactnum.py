"""Exact scalars and dense rational linear algebra.

Scalars are plain ``int`` (unbounded in Python) and ``fractions.Fraction``,
which is canonical by construction: always reduced, denominator positive.
That canonicity is what lets every identity in this package be checked
against literal zero instead of a tolerance.  A :class:`Matrix` is canonical
the same way: integer rows over one positive common denominator, in lowest
terms, with a ``Fraction`` built only when an entry is read.  Its
:meth:`~Matrix.det` and :meth:`~Matrix.inverse` are fraction-free (Bareiss)
eliminations on the integer rows.  The field-generic Gauss-Jordan routine
:func:`invert_rows` serves the float mirror of the derivative check and is the
tests' exact oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

Scalar = Union[int, Fraction]


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a string like ``"3/4"``, or a Fraction to a Fraction.

    Floats are rejected on purpose: silently converting binary floats would
    poison exact residual checks.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class SingularMatrixError(ValueError):
    """Elimination found no usable pivot; ``pivot`` is the failing column."""

    def __init__(self, pivot: int):
        super().__init__(f"singular matrix: no pivot available for column {pivot}")
        self.pivot = pivot


class Matrix:
    """Dense rational matrix, row-major, treated as immutable: integer rows
    ``numerators`` over one ``denominator`` > 0, in lowest terms.  The form is
    canonical, so equal matrices compare and hash equal however built."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        m = [[x if isinstance(x, int) else rational(x) for x in row] for row in entries]
        if any(len(row) != len(m[0]) for row in m):
            raise ValueError("ragged rows")
        den = lcm(*(x.denominator for row in m for x in row))
        self._set([[x.numerator * den // x.denominator for x in row] for row in m], den)

    def _set(self, num: Sequence[Sequence[int]], den: int) -> "Matrix":
        g = gcd(den, *chain.from_iterable(num))
        g = -g if den < 0 else g
        num = num if g == 1 else [[x // g for x in row] for row in num]
        self._num, self._den = tuple(map(tuple, num)), den // g
        self.rows, self.cols = len(num), len(num[0]) if num else 0
        return self

    @classmethod
    def from_integer_rows(cls, num: Sequence[Sequence[int]], den: int) -> "Matrix":
        """The matrix ``num / den`` for integer rows and a nonzero integer
        denominator, reduced to lowest terms with a positive denominator."""
        return cls.__new__(cls)._set(num, den)

    numerators = property(lambda self: self._num)
    denominator = property(lambda self: self._den)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def filled(cls, rows: int, cols: int, value: Scalar = 0) -> "Matrix":
        return cls([[rational(value)] * cols for _ in range(rows)])

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self._den) for x in self._num[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._den == other._den and (
            self._num == other._num
        )

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )
        a, b, rows = self._den, other._den, zip(self._num, other._num)
        num = [[x * b + y * a for x, y in zip(r, s)] for r, s in rows]
        return Matrix.from_integer_rows(num, a * b)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"dimension mismatch: {self.rows}x{self.cols} * "
                    f"{other.rows}x{other.cols}"
                )
            cols = list(zip(*other._num))
            num = [[sum(map(mul, row, col)) for col in cols] for row in self._num]
            return Matrix.from_integer_rows(num, self._den * other._den)
        c = rational(other)
        num = [[c.numerator * x for x in row] for row in self._num]
        return Matrix.from_integer_rows(num, c.denominator * self._den)

    __rmul__ = __mul__

    def transpose(self) -> "Matrix":
        return Matrix.from_integer_rows(list(zip(*self._num)), self._den)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def drop(self, i: int, j: int) -> "Matrix":
        """Matrix with row i and column j removed."""
        return Matrix.from_integer_rows(
            [
                [x for cj, x in enumerate(row) if cj != j]
                for ri, row in enumerate(self._num)
                if ri != i
            ],
            self._den,
        )

    def _check_square(self) -> None:
        if self.rows != self.cols:
            raise ValueError(f"not square: {self.rows}x{self.cols}")

    def det(self) -> Fraction:
        """Exact determinant via fraction-free (Bareiss) elimination on the
        integer rows, divided by the denominator to the n-th power at the
        end.  The empty 0x0 matrix has determinant 1."""
        self._check_square()
        n = self.rows
        if n == 0:
            return Fraction(1)
        work = [list(row) for row in self._num]
        sign = 1
        prev = 1
        for k in range(n - 1):
            piv = next((r for r in range(k, n) if work[r][k]), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                work[k], work[piv] = work[piv], work[k]
                sign = -sign
            pivot = work[k][k]
            for i in range(k + 1, n):
                fall = work[i][k]
                for j in range(k + 1, n):
                    # Bareiss update: division by the previous pivot is exact.
                    work[i][j] = (work[i][j] * pivot - fall * work[k][j]) // prev
                work[i][k] = 0
            prev = pivot
        return Fraction(sign * work[n - 1][n - 1], self._den ** n)

    def inverse(self) -> "Matrix":
        """Exact inverse A^-1 of A = N / d by fraction-free (Bareiss)
        Gauss-Jordan elimination: N | d I becomes prev I | prev A^-1, each
        update dividing exactly by the previous pivot, and the right block is
        reduced over the last pivot prev, whose sign may be negative.  Pivots
        and the SingularMatrixError column are those of invert_rows."""
        self._check_square()
        n, d = self.rows, self._den
        w = [[*r, *(d * (i == j) for j in range(n))] for i, r in enumerate(self._num)]
        prev = 1
        for k in range(n):
            piv = next((r for r in range(k, n) if w[r][k]), None)
            if piv is None:
                raise SingularMatrixError(k)
            w[k], w[piv] = w[piv], w[k]
            p, top = w[k][k], w[k]
            for i in range(n):
                if i != k:
                    f = w[i][k]
                    w[i] = [(p * x - f * y) // prev for x, y in zip(w[i], top)]
            prev = p
        return Matrix.from_integer_rows([row[n:] for row in w], prev)


def invert_rows(rows: Sequence[Sequence], unit) -> list:
    """Inverse of the square matrix ``rows`` by Gauss-Jordan elimination,
    taking the first nonzero pivot of each column.

    Works in any scalar field: ``unit`` is its one, ``Fraction(1)`` for the
    exact inverse or ``1.0`` for the float mirror of the derivative check.
    Raises SingularMatrixError (carrying the failing pivot column) when no
    nonzero pivot exists.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    b = [[unit * (i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(col)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv_p = 1 / a[col][col]
        a[col] = [x * inv_p for x in a[col]]
        b[col] = [x * inv_p for x in b[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    return b
