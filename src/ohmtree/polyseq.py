"""Integer polynomial sequences behind fan and wheel tree counts.

Covers the Morgan-Voyce family B_n, the companion family W_n whose values
count wheel spanning trees, the classical companion C_n, Fibonacci and Lucas
numbers and polynomials, and the two triangular coefficient arrays.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Sequence, Union


class IntPolynomial:
    """Polynomial with integer coefficients, stored ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(int(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes as one (zero included)
        return hash(sum(self.coeffs)) if self.degree < 1 else hash(self.coeffs)

    def __add__(self, other) -> "IntPolynomial":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
        )

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "IntPolynomial":
        return _as_poly(other) + (-self)

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

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def dilated(self, k: int) -> "IntPolynomial":
        """Substitute x^k for x."""
        out = [0] * (k * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPolynomial(out)

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
    return v if isinstance(v, IntPolynomial) else IntPolynomial((int(v),))


X = IntPolynomial((0, 1))


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("index must be nonnegative")


def _recurrence(n: int, a0, a1, step, sign: int, shift: int = 0):
    """x_n of the second-order recurrence x_0 = a0, x_1 = a1,
    x_k = step * x_{k-1} + sign * x_{k-2} + shift."""
    _check_index(n)
    prev, cur = a0, a1
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, step * cur + sign * prev + shift
    return cur


def morgan_voyce(n: int) -> IntPolynomial:
    """B_n: B_0 = 1, B_1 = 2 + x, B_n = (x + 2) B_{n-1} - B_{n-2}."""
    return _recurrence(n, IntPolynomial((1,)), X + 2, X + 2, -1)


def w_poly(n: int) -> IntPolynomial:
    """W_n: W_0 = 1, W_1 = x + 4, W_n = (x + 2) W_{n-1} - W_{n-2} + 2."""
    return _recurrence(n, IntPolynomial((1,)), X + 4, X + 2, -1, 2)


def companion_poly(n: int) -> IntPolynomial:
    """Companion Morgan-Voyce C_n: C_0 = 2, C_1 = x + 2, same recurrence as
    B_n.  Satisfies x * W_{n-1}(x) + 2 = C_n(x)."""
    return _recurrence(n, IntPolynomial((2,)), X + 2, X + 2, -1)


def fibonacci_poly(n: int) -> IntPolynomial:
    """F_0 = 0, F_1 = 1, F_n = x F_{n-1} + F_{n-2}."""
    return _recurrence(n, IntPolynomial(), IntPolynomial((1,)), X, 1)


def lucas_poly(n: int) -> IntPolynomial:
    """L_0 = 2, L_1 = x, L_n = x L_{n-1} + L_{n-2}."""
    return _recurrence(n, IntPolynomial((2,)), X, X, 1)


def fibonacci(n: int) -> int:
    return _recurrence(n, 0, 1, 1, 1)


def lucas(n: int) -> int:
    return _recurrence(n, 2, 1, 1, 1)


def triangular_fan(n: int, k: int) -> int:
    """Coefficient array of the B_n family via the recurrence
    T(n,k) = T(n-1,k-1) + 2 T(n-1,k) - T(n-2,k), T(0,0) = 1, zero outside
    0 <= k <= n.  Row n lists the coefficients of B_n(x).
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    prev2: List[int] = []
    prev: List[int] = [1]
    for r in range(1, n + 1):
        cur = []
        for c in range(r + 1):
            v = (
                (prev[c - 1] if 0 <= c - 1 < len(prev) else 0)
                + 2 * (prev[c] if c < len(prev) else 0)
                - (prev2[c] if c < len(prev2) else 0)
            )
            cur.append(v)
        prev2, prev = prev, cur
    return prev[k]


def triangular_wheel(n: int, k: int) -> int:
    """Coefficient array of the W_n family by the closed form
    (2n + 2) / (n + 2 + k) * C(n + 2 + k, n - k); the division is exact and
    asserted rather than rounded.  Row n lists the coefficients of W_n(x)."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    num = (2 * n + 2) * comb(n + 2 + k, n - k)
    den = n + 2 + k
    if num % den:
        raise AssertionError(f"non-integral wheel coefficient at ({n}, {k})")
    return num // den
