from fractions import Fraction
from math import comb

import pytest

from ohmtree.polyseq import X, IntPolynomial, morgan_voyce, w_poly


def test_polynomial_arithmetic():
    p = IntPolynomial((1, 2))  # 1 + 2x
    q = IntPolynomial((0, 0, 3))  # 3x^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p * 0).coeffs == ()


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


def test_eval_is_exact():
    p = IntPolynomial((3, 4, 1))
    assert p(1) == 8
    assert p(0) == 3
    assert p(Fraction(1, 2)) == Fraction(21, 4)


def test_morgan_voyce_small_values():
    assert morgan_voyce(0, X).coeffs == (1,)
    assert morgan_voyce(1, X).coeffs == (2, 1)
    assert morgan_voyce(2, X).coeffs == (3, 4, 1)
    assert morgan_voyce(3, X).coeffs == (4, 10, 6, 1)
    assert morgan_voyce(4, X).coeffs == (5, 20, 21, 8, 1)
    with pytest.raises(ValueError):
        morgan_voyce(-1, X)


def test_morgan_voyce_closed_form_coefficients():
    for n in range(31):
        coeffs = morgan_voyce(n, X).coeffs
        for k in range(n + 1):
            assert coeffs[k] == comb(n + k + 1, n - k)


def test_w_poly_small_values():
    assert w_poly(0, X).coeffs == (1,)
    assert w_poly(1, X).coeffs == (4, 1)
    assert w_poly(2, X).coeffs == (9, 6, 1)
    assert w_poly(3, X).coeffs == (16, 20, 8, 1)
    assert w_poly(4, X).coeffs == (25, 50, 35, 10, 1)


def test_w_poly_closed_form_coefficients():
    for n in range(31):
        coeffs = w_poly(n, X).coeffs
        for k in range(n + 1):
            expected = (2 * n + 2) * comb(n + 2 + k, n - k) // (n + 2 + k)
            assert coeffs[k] == expected


def test_eval_examples():
    assert morgan_voyce(2, X)(1) == morgan_voyce(2, 1) == 8
    assert w_poly(2, X)(1) == w_poly(2, 1) == 16
