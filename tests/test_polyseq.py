from fractions import Fraction
from math import comb

import pytest

from ohmtree.polyseq import IntPolynomial, morgan_voyce, w_poly


def test_polynomial_arithmetic():
    p = IntPolynomial((1, 2))  # 1 + 2x
    q = IntPolynomial((0, 0, 3))  # 3x^2
    assert p + q == IntPolynomial((1, 2, 3))
    assert p * q == IntPolynomial((0, 0, 3, 6))
    assert (p * 0).degree == -1


def test_inexact_coefficients_and_scalars_raise():
    p = IntPolynomial((1, 2))
    for bad in (Fraction(1, 2), 0.5, Fraction(2), 2.0):
        with pytest.raises(TypeError):
            IntPolynomial((bad,))
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p
        with pytest.raises(TypeError):
            p + bad
        with pytest.raises(TypeError):
            bad + p


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


def test_eval_examples():
    assert morgan_voyce(2)(1) == 8
    assert w_poly(2)(1) == 16
