import random
from fractions import Fraction
from itertools import permutations

import pytest

from ohmtree.exactnum import Matrix, SingularMatrixError, invert_rows, rational


def cofactor_det(m: Matrix) -> Fraction:
    """Brute-force determinant by signed permutation expansion."""
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def random_matrix(rng, n, lo=-4, hi=4):
    return Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_rational_coercion():
    assert rational(3) == Fraction(3)
    assert rational("3/4") == Fraction(3, 4)
    assert rational(Fraction(5, 10)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        rational(0.5)


def test_field_axiom_roundtrips():
    rng = random.Random(20240901)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_det_trivial_cases():
    assert Matrix([[5]]).det() == 5
    assert Matrix([[2, 1], [1, 2]]).det() == 3


def test_det_reduced_laplacian_of_k4():
    # complete-graph cofactor: diag 3, off-diag -1, determinant 4^2
    m = Matrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert m.det() == 16


def test_det_empty_and_rectangular():
    assert Matrix([]).det() == 1
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).det()


def test_det_matches_cofactor_expansion():
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            m = random_matrix(rng, n)
            assert m.det() == cofactor_det(m)


def test_det_rational_entries():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]])
    assert m.det() == cofactor_det(m)


def test_inverse_identity_and_diagonal():
    assert Matrix.identity(3).inverse() == Matrix.identity(3)
    inv = Matrix([[2, 0], [0, 4]]).inverse()
    assert inv == Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 4)]])


def test_inverse_random_roundtrip():
    rng = random.Random(11)
    done = 0
    while done < 30:
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        if m.det() == 0:
            continue
        done += 1
        assert m.inverse() * m == Matrix.identity(n)
        assert m * m.inverse() == Matrix.identity(n)


def test_inverse_singular_reports_pivot():
    with pytest.raises(SingularMatrixError) as info:
        Matrix([[1, 2], [2, 4]]).inverse()
    assert info.value.pivot == 1
    with pytest.raises(SingularMatrixError) as info:
        Matrix([[0, 0], [0, 1]]).inverse()
    assert info.value.pivot == 0
    with pytest.raises(SingularMatrixError) as info:
        invert_rows([[1.0, 2.0], [2.0, 4.0]], 1.0)
    assert info.value.pivot == 1


def test_float_inverse_matches_exact():
    # a grounded weighted Laplacian, connected through the edges (i-1, i):
    # the float mirror's inverse agrees with the exact one
    rng = random.Random(6)
    for n in range(2, 9):
        lap = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                c = Fraction(rng.randint(int(j < i - 1), 4), rng.randint(1, 4))
                lap[i][j] = lap[j][i] = -c
                lap[i][i] += c
                lap[j][j] += c
        grounded = Matrix(lap).drop(0, 0)
        exact = grounded.inverse()
        floats = [[float(x) for x in grounded.row(i)] for i in range(n - 1)]
        approx = invert_rows(floats, 1.0)
        scale = max(abs(float(exact[i, j])) for i in range(n - 1) for j in range(n - 1))
        for i in range(n - 1):
            for j in range(n - 1):
                assert abs(approx[i][j] - float(exact[i, j])) <= 1e-12 * scale


def test_matrix_operations():
    rng = random.Random(5)
    m = random_matrix(rng, 3)
    assert Matrix.identity(3) * m == m
    assert m + Matrix.filled(3, 3, 0) == m
    quarter = Matrix.filled(4, 4, 1) * Fraction(1, 4)
    assert all(
        quarter[i, j] == Fraction(1, 4) for i in range(4) for j in range(4)
    )
    with pytest.raises(ValueError):
        m + Matrix.filled(2, 3, 0)
    with pytest.raises(ValueError):
        m * Matrix.filled(2, 2, 1)


def test_transpose_and_symmetry():
    m = Matrix([[1, 2], [3, 4]])
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert not m.is_symmetric()
    assert (m + m.transpose()).is_symmetric()


def test_drop():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.drop(0, 0) == Matrix([[5, 6], [8, 9]])
    assert m.drop(1, 2) == Matrix([[1, 2], [7, 8]])
