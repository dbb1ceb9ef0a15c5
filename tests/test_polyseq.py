from fractions import Fraction
from math import comb

import pytest

from ohmtree.polyseq import (
    IntPolynomial,
    companion_poly,
    fibonacci,
    fibonacci_poly,
    lucas,
    lucas_poly,
    morgan_voyce,
    triangular_fan,
    triangular_wheel,
    w_poly,
)


def test_polynomial_arithmetic():
    p = IntPolynomial((1, 2))  # 1 + 2x
    q = IntPolynomial((0, 0, 3))  # 3x^2
    assert p + q == IntPolynomial((1, 2, 3))
    assert p * q == IntPolynomial((0, 0, 3, 6))
    assert p - p == IntPolynomial(())
    assert (p * 0).degree == -1
    assert p.shifted(2) == IntPolynomial((0, 0, 1, 2))
    assert p.dilated(2) == IntPolynomial((1, 0, 2))


def test_equal_to_int_hashes_as_int():
    for c in (3, -2, 0):
        const = IntPolynomial((c,))
        assert const == c and hash(const) == hash(c)
        assert len({const, c}) == 1
    assert {IntPolynomial(()), 0, IntPolynomial((0, 0))} == {0}
    assert len({IntPolynomial((1, 2)), IntPolynomial((1, 2)), 1}) == 2


def test_eval_is_exact():
    p = IntPolynomial((3, 4, 1))
    assert p(1) == 8
    assert p(0) == 3
    assert p(Fraction(1, 2)) == Fraction(21, 4)


def test_morgan_voyce_small_values():
    assert morgan_voyce(0) == IntPolynomial((1,))
    assert morgan_voyce(1) == IntPolynomial((2, 1))
    assert morgan_voyce(2) == IntPolynomial((3, 4, 1))
    assert morgan_voyce(3) == IntPolynomial((4, 10, 6, 1))
    assert morgan_voyce(4) == IntPolynomial((5, 20, 21, 8, 1))
    with pytest.raises(ValueError):
        morgan_voyce(-1)


def test_morgan_voyce_closed_form_coefficients():
    for n in range(31):
        coeffs = morgan_voyce(n).coeffs
        for k in range(n + 1):
            assert coeffs[k] == comb(n + k + 1, n - k)


def test_w_poly_small_values():
    assert w_poly(0) == IntPolynomial((1,))
    assert w_poly(1) == IntPolynomial((4, 1))
    assert w_poly(2) == IntPolynomial((9, 6, 1))
    assert w_poly(3) == IntPolynomial((16, 20, 8, 1))
    assert w_poly(4) == IntPolynomial((25, 50, 35, 10, 1))


def test_w_poly_closed_form_coefficients():
    for n in range(31):
        coeffs = w_poly(n).coeffs
        for k in range(n + 1):
            expected = (2 * n + 2) * comb(n + 2 + k, n - k) // (n + 2 + k)
            assert coeffs[k] == expected


def test_fibonacci_lucas_numbers():
    assert [fibonacci(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert lucas(10) == 123
    assert lucas(0) == 2


def test_fibonacci_poly_relation():
    # x * B_n(x^2) equals the (2n+2)-nd Fibonacci polynomial
    assert morgan_voyce(1).dilated(2).shifted(1) == IntPolynomial((0, 2, 0, 1))
    assert fibonacci_poly(4) == IntPolynomial((0, 2, 0, 1))
    for n in range(16):
        assert morgan_voyce(n).dilated(2).shifted(1) == fibonacci_poly(2 * n + 2)


def test_lucas_poly_relation():
    # x^2 * W_n(x^2) equals L_{2n+2}(x) - 2
    for n in range(16):
        lhs = w_poly(n).dilated(2).shifted(2)
        assert lhs == lucas_poly(2 * n + 2) - 2


def test_companion_poly_relation():
    assert companion_poly(0) == IntPolynomial((2,))
    for n in range(1, 16):
        assert w_poly(n - 1).shifted(1) + 2 == companion_poly(n)


def test_poly_number_specializations():
    for n in range(1, 12):
        assert fibonacci_poly(n)(1) == fibonacci(n)
        assert lucas_poly(n)(1) == lucas(n)


def test_triangular_fan_rows():
    rows = [[triangular_fan(n, k) for k in range(n + 1)] for n in range(4)]
    assert rows == [[1], [2, 1], [3, 4, 1], [4, 10, 6, 1]]
    assert triangular_fan(0, 0) == 1
    assert triangular_fan(2, 5) == 0
    with pytest.raises(ValueError):
        triangular_fan(1, -1)


def test_triangular_wheel_rows():
    rows = [[triangular_wheel(n, k) for k in range(n + 1)] for n in range(4)]
    assert rows == [[1], [4, 1], [9, 6, 1], [16, 20, 8, 1]]
    assert triangular_wheel(3, 9) == 0


def test_triangular_arrays_match_polynomials():
    for n in range(31):
        assert tuple(triangular_fan(n, k) for k in range(n + 1)) == morgan_voyce(n).coeffs
        assert tuple(triangular_wheel(n, k) for k in range(n + 1)) == w_poly(n).coeffs


def test_eval_examples():
    assert morgan_voyce(2)(1) == 8
    assert w_poly(2)(1) == 16
