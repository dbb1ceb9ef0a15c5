"""Exact scalars and dense rational linear algebra.

Scalars are plain ``int`` (unbounded in Python) and ``fractions.Fraction``,
which is canonical by construction: always reduced, denominator positive.
That canonicity is what lets every identity in this package be checked
against literal zero instead of a tolerance.  :meth:`Matrix.det` and
:meth:`Matrix.inverse` are fraction-free (Bareiss) eliminations on rows scaled
to integers.  The field-generic Gauss-Jordan routine :func:`invert_rows` serves
the float mirror of the derivative check and is the tests' exact oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm, prod
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
    """Dense matrix with Fraction entries, row-major, treated as immutable."""

    __slots__ = ("rows", "cols", "_m")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        m = tuple(tuple(rational(x) for x in row) for row in entries)
        self.rows = len(m)
        self.cols = len(m[0]) if m else 0
        if any(len(row) != self.cols for row in m):
            raise ValueError("ragged rows")
        self._m = m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def filled(cls, rows: int, cols: int, value: Scalar = 0) -> "Matrix":
        v = rational(value)
        return cls([[v] * cols for _ in range(rows)])

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._m[i][j]

    def row(self, i: int) -> tuple:
        return self._m[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._m == other._m

    def __hash__(self):
        return hash(self._m)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._m)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._m, other._m)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._m, other._m)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"dimension mismatch: {self.rows}x{self.cols} * "
                    f"{other.rows}x{other.cols}"
                )
            cols = other.transpose()._m
            return Matrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self._m
                ]
            )
        c = rational(other)
        return Matrix([[c * x for x in row] for row in self._m])

    def __rmul__(self, other):
        return self.__mul__(other)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self._m))) if self.rows else Matrix([])

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def drop(self, i: int, j: int) -> "Matrix":
        """Matrix with row i and column j removed."""
        return Matrix(
            [
                [x for cj, x in enumerate(row) if cj != j]
                for ri, row in enumerate(self._m)
                if ri != i
            ]
            if self.rows > 1
            else []
        )

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )

    def _check_square(self) -> None:
        if self.rows != self.cols:
            raise ValueError(f"not square: {self.rows}x{self.cols}")

    def det(self) -> Fraction:
        """Exact determinant via fraction-free (Bareiss) elimination.

        Rows are scaled to integers first (:meth:`_integer_rows`), so every
        intermediate value stays an integer; the scaling is divided back out
        at the end.  The empty 0x0 matrix has determinant 1.
        """
        self._check_square()
        n = self.rows
        if n == 0:
            return Fraction(1)
        scales, work = self._integer_rows()
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
        return Fraction(sign * work[n - 1][n - 1], prod(scales))

    def _integer_rows(self) -> tuple:
        """Each row's scale, the LCM of its denominators, and the rows times
        their scales as lists of ints."""
        scales = [reduce(lcm, (x.denominator for x in row), 1) for row in self._m]
        return scales, [[int(x * d) for x in row] for d, row in zip(scales, self._m)]

    def inverse(self) -> "Matrix":
        """Exact inverse by fraction-free (Bareiss) Gauss-Jordan elimination:
        D A | D, D the row scales, is reduced to prev * I | prev * A^-1, prev
        the last pivot, each update dividing exactly by the previous pivot.
        Pivots and the SingularMatrixError column are those of invert_rows."""
        self._check_square()
        n = self.rows
        scales, w = self._integer_rows()
        for i, row in enumerate(w):
            row += [scales[i] * (i == j) for j in range(n)]
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
        return Matrix([[Fraction(x, prev) for x in row[n:]] for row in w])


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
