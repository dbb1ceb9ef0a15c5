"""Integer polynomial sequences behind fan and wheel tree counts.

Covers the Morgan-Voyce family B_n, whose values count fan spanning trees,
and the companion family W_n, whose values count wheel spanning trees.  Each
runs its recurrence at the point it is given: an int, or ``X`` for the polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Sequence, Union


class IntPolynomial:
    """Polynomial with integer coefficients, stored ascending by degree.  A
    coefficient or scalar that is not an integer raises TypeError rather than
    being truncated."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(index(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other) -> "IntPolynomial":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
        )

    __radd__ = __add__

    def __mul__(self, other) -> "IntPolynomial":
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: Union[int, Fraction]) -> Union[int, Fraction]:
        """Exact Horner evaluation."""
        acc: Union[int, Fraction] = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPolynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "IntPolynomial(" + " + ".join(parts) + ")"


def _as_poly(v) -> IntPolynomial:
    return v if isinstance(v, IntPolynomial) else IntPolynomial((index(v),))


X = IntPolynomial((0, 1))
Point = Union[int, IntPolynomial]  # an int gives a value, X the polynomial


def _recurrence(n: int, a1, step, sign: int, shift: int = 0):
    """x_n of the second-order recurrence x_0 = 1, x_1 = a1,
    x_k = step * x_{k-1} + sign * x_{k-2} + shift, in the ring of ``step``."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    prev, cur = 0 * step + 1, a1
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, step * cur + sign * prev + shift
    return cur


def morgan_voyce(n: int, x: Point) -> Point:
    """B_n at x: B_0 = 1, B_1 = x + 2, B_n = (x + 2) B_{n-1} - B_{n-2}."""
    return _recurrence(n, x + 2, x + 2, -1)


def w_poly(n: int, x: Point) -> Point:
    """W_n at x: W_0 = 1, W_1 = x + 4, W_n = (x + 2) W_{n-1} - W_{n-2} + 2."""
    return _recurrence(n, x + 4, x + 2, -1, 2)
