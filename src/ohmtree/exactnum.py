"""Exact scalars and dense rational linear algebra.

Scalars are plain ``int`` (unbounded in Python) and ``fractions.Fraction``,
which is canonical by construction: always reduced, denominator positive.
That canonicity is what lets every identity in this package be checked
against literal zero instead of a tolerance.  A :class:`Matrix` is canonical
the same way: integer rows over one positive common denominator, in lowest
terms, with a ``Fraction`` built only when an entry is read.  Its
:meth:`~Matrix.det` and :meth:`~Matrix.inverse` share one fraction-free
(Bareiss) forward elimination on the integer rows, which skips a row whose
multiplier is 0 and rescales it lazily; the inverse finishes with
fraction-free back substitution.  No row is exchanged: every matrix
eliminated is positive semidefinite, so a zero pivot has a zero column below
it.  :func:`remember` is the package's one memo: inside :func:`remembering`,
which ``verify.run_suite`` opens around each instance, it answers an equal
key once (``det`` and ``inverse`` of a matrix, a graph's surgeries,
Laplacian and cofactor); outside it nothing is kept.  The field-generic
Gauss-Jordan routine :func:`invert_rows` serves the float mirror of the
derivative check and is the tests' exact oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Hashable, Iterator, Optional, Sequence, Union

Scalar = Union[int, Fraction]

# (kind, ...) -> answer inside remembering(), None outside it
_memo: Optional[dict] = None


@contextmanager
def remembering() -> Iterator[None]:
    """Within this block, :func:`remember` gives back the answer already
    computed for an equal key; a nested block shares the memo, and it is
    dropped when the outermost block exits.  Keys compare with ``==``, and
    ``Matrix`` and ``Multigraph`` equality are structural, so a hash
    collision is never taken for identity."""
    global _memo
    outer, _memo = _memo, {} if _memo is None else _memo
    try:
        yield
    finally:
        _memo = outer


def remember(key: Hashable, compute: Callable[[], object]):
    """``compute()``, or inside :func:`remembering` the answer kept for an
    equal ``key``; no answer is None, and an error is not kept."""
    if _memo is None:
        return compute()
    answer = _memo.get(key)
    if answer is None:
        answer = _memo[key] = compute()
    return answer


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
    canonical, so equal matrices compare and hash equal however built.
    :meth:`det` and :meth:`inverse` are meant for symmetric positive
    semidefinite matrices; any other gets the exact answer or a ValueError."""

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

    def __getitem__(self, key) -> Fraction:
        i, j = key
        self._check_index(i, j)
        return Fraction(self._num[i][j], self._den)

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
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

    def drop(self, i: int, j: int) -> "Matrix":
        """Matrix with row i and column j removed."""
        self._check_index(i, j)
        kept = [row[:j] + row[j + 1 :] for h, row in enumerate(self._num) if h != i]
        return Matrix.from_integer_rows(kept, self._den)

    def _check_index(self, i: int, j: int) -> None:  # none counts from the end
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"row {i} or column {j} outside {self.rows}x{self.cols}")

    def _check_square(self) -> None:
        if self.rows != self.cols:
            raise ValueError(f"not square: {self.rows}x{self.cols}")

    def det(self) -> Fraction:
        """Exact determinant, remembered for an equal matrix inside
        :func:`remembering`."""
        return remember(("det", self), self._det)

    def inverse(self) -> "Matrix":
        """Exact inverse, remembered for an equal matrix inside
        :func:`remembering`; a singular matrix raises SingularMatrixError."""
        return remember(("inverse", self), self._inverse)

    def _det(self) -> Fraction:
        """Exact determinant of N / d: the forward sweep of :func:`_eliminate`
        on the integer rows N leaves det(N) as its last pivot, divided by d
        to the n-th power; 0 when a column has no pivot.  The empty 0x0
        matrix has determinant 1."""
        self._check_square()
        try:
            last = _eliminate([list(row) for row in self._num], self.rows)
        except SingularMatrixError:
            return Fraction(0)
        return Fraction(last, self._den ** self.rows)

    def _inverse(self) -> "Matrix":
        """Exact inverse A^-1 of A = N / d: the forward sweep of
        :func:`_eliminate` turns N | d I into U | B, and fraction-free back
        substitution solves U Y = D B from the bottom row up, D the last
        pivot, Y_i = (D B_i - sum over j > i of U_ij Y_j) / U_ii.  Each division
        is exact because Y = D A^-1 is integral; zero U_ij are skipped, so a
        banded U costs about n^2 times its bandwidth.  The answer is Y / D.
        Pivots and the errors at a zero pivot are those of invert_rows."""
        self._check_square()
        n, d = self.rows, self._den
        w = [[*r, *(d * (i == j) for j in range(n))] for i, r in enumerate(self._num)]
        last = _eliminate(w, n)
        y = [None] * n
        for i in range(n - 1, -1, -1):
            row = w[i]
            acc = [last * x for x in row[n:]]
            for j in range(i + 1, n):
                u = row[j]
                if u:
                    acc = [a - u * b for a, b in zip(acc, y[j])]
            y[i] = [a // row[i] for a in acc]
        return Matrix.from_integer_rows(y, last)


def _eliminate(w: list, n: int) -> int:
    """Fraction-free (Bareiss) forward elimination, in place, of the first n
    columns of the integer rows ``w``, carrying any later columns along; each
    update divides exactly by the previous pivot.  It pivots on the diagonal,
    as invert_rows does, and raises as it does at a zero pivot.  Rescaling is
    lazy: a step whose multiplier in a row is 0 would only scale that row by
    p_k / p_(k-1), so it is skipped; those factors telescope, so the stored
    row is the eager one times base[i] / prev, base[i] the previous pivot of
    its last update.  Its next update divides by base[i], not prev; a pivot
    row is caught up by prev / base[i].  Each division is exact.  Returns the
    last pivot, 1 when n is 0.  Row i is left with its pivot U_ii in column i
    and U_ij to the right of it, the integers of the eager sweep; entries to
    its left are stale."""
    prev = 1
    base = [1] * n
    for k in range(n):
        if not w[k][k]:  # positive semidefinite: the column below is zero too
            if any(w[r][k] for r in range(k + 1, n)):
                raise ValueError(f"zero pivot in column {k} needs a row exchange")
            raise SingularMatrixError(k)
        top = w[k]
        if base[k] != prev:
            top[k:] = [x * prev // base[k] for x in top[k:]]
        p, cols = top[k], range(k + 1, len(top))
        for i in range(k + 1, n):
            row = w[i]
            f = row[k]
            if f:  # divide by the row's own previous pivot: catch-up folded in
                prev = base[i]
                for j in cols:
                    row[j] = (row[j] * p - f * top[j]) // prev
                base[i] = p
        prev = p
    return prev


def invert_rows(rows: Sequence[Sequence], unit) -> list:
    """Inverse of the square matrix ``rows`` by Gauss-Jordan elimination,
    pivoting on the diagonal.

    Works in any scalar field: ``unit`` is its one, ``Fraction(1)`` for the
    exact inverse or ``1.0`` for the float mirror of the derivative check.
    A zero pivot raises SingularMatrixError(column) when the column below it
    is zero too, else a ValueError, since it would need a row exchange.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    b = [[unit * (i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        if a[col][col] == 0:
            if any(a[r][col] != 0 for r in range(col + 1, n)):
                raise ValueError(f"zero pivot in column {col} needs a row exchange")
            raise SingularMatrixError(col)
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
