import random
import re
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmtree import exactnum, spantree
from ohmtree.exactnum import (
    Matrix,
    SingularMatrixError,
    _eliminate,
    invert_rows,
    rational,
    remembering,
)
from ohmtree.graph import Multigraph
from ohmtree.resistnet import laplacian


LENGTHS = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4))


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


def random_gram(rng, n, k, lo=-4, hi=4):
    """A A^T for a random integer n x k matrix A: symmetric positive
    semidefinite, and singular when k < n."""
    a = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(n)]
    return Matrix([[sum(map(mul, r, c)) for c in a] for r in a])


EXCHANGE = "zero pivot in column {} needs a row exchange"


def needs_exchange(column: int):
    """pytest.raises for the plain ValueError of a zero pivot in ``column``
    with a nonzero entry below it, not a SingularMatrixError."""
    return pytest.raises(ValueError, match=f"^{EXCHANGE.format(column)}$")


def exchange_column(exc: ValueError) -> int:
    """The column named by that ValueError; fails on any other error."""
    assert type(exc) is ValueError
    return int(re.fullmatch(EXCHANGE.format(r"(\d+)"), str(exc))[1])


def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def product(*ms: Matrix) -> Matrix:
    """The matrix product of ``ms``, in Fractions read through ``row``."""
    rows = [ms[0].row(i) for i in range(ms[0].rows)]
    for m in ms[1:]:
        cols = list(zip(*(m.row(i) for i in range(m.rows))))
        rows = [[sum(map(mul, r, c)) for c in cols] for r in rows]
    return Matrix(rows)


@st.composite
def grid_laplacians(draw):
    """The Laplacian of an r x c grid (r and c 1-6) with rational
    conductances and its vertices in row-major order, so it is banded with
    bandwidth c: grounded at its first vertex, which makes it invertible,
    and whole, which makes it singular in its last column."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = r * c
    rows = [[Fraction(0)] * n for _ in range(n)]
    for v in range(n):
        right = [v + 1] if (v + 1) % c else []
        below = [v + c] if v + c < n else []
        for w in right + below:
            g = draw(LENGTHS)
            rows[v][v] += g
            rows[w][w] += g
            rows[v][w] -= g
            rows[w][v] -= g
    return [[row[1:] for row in rows[1:]], rows]


@st.composite
def any_graphs(draw, lengths=st.just(1)):
    """Multigraph on 1-6 vertices with up to eight freely drawn edges, of
    unit length unless ``lengths`` says otherwise: self-loops, parallel
    edges, isolated vertices and several components all occur."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    ends = st.sampled_from(vs)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=8))
    return Multigraph(
        vs, [(f"e{k}", u, v, draw(lengths)) for k, (u, v) in enumerate(pairs)]
    )


@st.composite
def unit_cofactors(draw):
    """The unit matrix-tree cofactor of a multigraph from ``any_graphs``,
    the other matrix the package eliminates: positive semidefinite, and
    singular in some column when the graph is disconnected."""
    cofactor = spantree._unit_cofactor(draw(any_graphs()))
    return [[list(cofactor.row(i)) for i in range(cofactor.rows)]]


def eager_eliminate(w: list, n: int) -> int:
    """The Bareiss forward sweep that updates every row below the pivot at
    every step, also a row whose multiplier is 0: the reference for the lazy
    sweep of ``_eliminate`` on positive semidefinite rows, where a zero pivot
    has a zero column below it, with the same pivots and return value."""
    prev = 1
    for k in range(n):
        if not w[k][k]:
            raise SingularMatrixError(k)
        top, p = w[k], w[k][k]
        for row in w[k + 1 : n]:
            f = row[k]
            pairs = zip(row[k + 1 :], top[k + 1 :])
            row[k + 1 :] = [(x * p - f * y) // prev for x, y in pairs]
        prev = p
    return prev


def _sweep(eliminate, w: list, n: int):
    """Last pivot and U | B, each row from its diagonal on, that
    ``eliminate`` leaves in a copy of ``w``; or the SingularMatrixError column."""
    w = [list(row) for row in w]
    try:
        last = eliminate(w, n)
    except SingularMatrixError as exc:
        return exc.pivot
    return last, [row[i:] for i, row in enumerate(w)]


def _assert_sweeps_agree(rows) -> None:
    """The lazy and the eager sweep agree on the integer rows N of ``rows``
    (as ``det`` sweeps them) and on N | d I (as ``inverse`` does)."""
    m = Matrix(rows)
    num, n, d = m.numerators, m.rows, m.denominator
    beside = [[*r, *(d * (i == j) for j in range(n))] for i, r in enumerate(num)]
    for w in (num, beside):
        assert _sweep(_eliminate, w, n) == _sweep(eager_eliminate, w, n)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(matrices=st.one_of(grid_laplacians(), unit_cofactors()))
def test_lazy_sweep_matches_eager(matrices):
    """Grid Laplacians (grounded and whole) and unit cofactors of any
    multigraph: a row skipped at some steps and caught up later holds exactly
    the integers of the sweep that rescales it at every step, and a column
    without a pivot is found at the same step."""
    for rows in matrices:
        _assert_sweeps_agree(rows)


def test_lazy_sweep_catches_up_untouched_rows():
    # block-diagonal: no row of the upper-triangular second block is updated
    # while the first block is eliminated, nor later, since each of its
    # multipliers is 0; each row is caught up only when it becomes the pivot
    # row, the last one included, whose pivot is the determinant
    rows = [
        [2, 1, 0, 0, 0],
        [1, 3, 0, 0, 0],
        [0, 0, 3, 1, 0],
        [0, 0, 0, 2, 1],
        [0, 0, 0, 0, 5],
    ]
    _assert_sweeps_agree(rows)
    w = [list(row) for row in rows]
    assert _eliminate(w, 5) == 150 and Matrix(rows).det() == 150
    assert w[4] == [0, 0, 0, 0, 150]
    exact = [[Fraction(x) for x in row] for row in rows]
    assert Matrix(rows).inverse() == Matrix(invert_rows(exact, Fraction(1)))
    # the second pivot would need a row exchange, past the row skipped at the
    # first step: the sweep stops there rather than answer 0 for det -30
    rows = [[2, 0, 2], [0, 0, 3], [4, 5, 6]]
    assert cofactor_det(Matrix(rows)) == -30
    with needs_exchange(1):
        _eliminate([list(row) for row in rows], 3)
    with needs_exchange(1):
        Matrix(rows).det()


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
    # Gram matrices, singular for fewer columns than rows: a zero pivot has
    # a zero column below it, and the determinant is 0
    rng = random.Random(4)
    singular = 0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            m = random_gram(rng, n, rng.randint(1, n))
            det = m.det()
            assert det == cofactor_det(m)
            singular += det == 0
    assert 20 <= singular <= 80


def test_det_rational_entries():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]])
    assert m.det() == cofactor_det(m)


def test_inverse_identity_and_diagonal():
    assert identity(3).inverse() == identity(3)
    inv = Matrix([[2, 0], [0, 4]]).inverse()
    assert inv == Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 4)]])


def test_inverse_random_roundtrip():
    rng = random.Random(11)
    done = 0
    while done < 30:
        n = rng.randint(1, 6)
        m = random_gram(rng, n, n)
        if m.det() == 0:
            continue
        done += 1
        assert product(m.inverse(), m) == identity(n)
        assert product(m, m.inverse()) == identity(n)


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


def count_eliminations(monkeypatch):
    """A list whose length counts the runs of exactnum._eliminate from now on."""
    runs, eliminate = [], exactnum._eliminate

    def counted(*args):
        runs.append(None)
        return eliminate(*args)

    monkeypatch.setattr(exactnum, "_eliminate", counted)
    return runs


@pytest.mark.parametrize("det_first", [True, False])
def test_remembering_keeps_det_and_inverse_of_one_matrix_apart(det_first):
    # unit lengths: the grounded Laplacian is the tree-count cofactor, so one
    # scope asks both questions of one matrix
    g = Multigraph(
        "abcd", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"),
                 ("e4", "d", "a"), ("e5", "a", "c"), ("e6", "a", "c")]
    )
    grounded = laplacian(g).drop(0, 0)
    assert grounded == spantree._unit_cofactor(g)
    rows = [list(grounded.row(i)) for i in range(grounded.rows)]
    expected = Matrix(invert_rows(rows, Fraction(1)))
    with remembering():
        for _ in range(2):
            if det_first:
                assert spantree.count_matrix_tree(g) == 12
            assert Matrix(rows).inverse() == expected
            assert grounded.det() == 12
    assert exactnum._memo is None


def test_remembering_computes_an_equal_matrix_once(monkeypatch):
    runs = count_eliminations(monkeypatch)
    a, b = Matrix([[2, 1], [1, 2]]), Matrix([[Fraction(4, 2), 1], [1, 2]])
    assert a is not b and a == b
    a.det(), b.det()
    assert len(runs) == 2  # off outside a scope: nothing is kept
    with remembering():
        assert a.det() == b.det() == 3
        inverse = Matrix.from_integer_rows([[2, -1], [-1, 2]], 3)
        assert a.inverse() == b.inverse() == inverse
        with remembering():  # a nested scope shares the outer memo
            assert b.det() == 3
        assert exactnum._memo is not None
        assert Matrix([[3, 1], [1, 2]]).det() == 5
    assert len(runs) == 5
    assert exactnum._memo is None


def test_remembering_stores_no_singular_error(monkeypatch):
    runs = count_eliminations(monkeypatch)
    with remembering():
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                Matrix([[1, 2], [2, 4]]).inverse()
        assert Matrix([[1, 2], [2, 4]]).det() == 0
    assert len(runs) == 3


def _invert_both(rows):
    """Matrix.inverse and the Fraction Gauss-Jordan oracle on ``rows``: each
    an entry list, or the SingularMatrixError it raised."""

    def fraction_free():
        inverse = Matrix(rows).inverse()
        return [list(inverse.row(i)) for i in range(inverse.rows)]

    results = []
    for invert in (fraction_free, lambda: invert_rows(rows, Fraction(1))):
        try:
            results.append(invert())
        except SingularMatrixError as exc:
            results.append(exc)
    return results


def test_inverse_matches_gauss_jordan():
    rng = random.Random(1968)

    def entry():
        return Fraction(rng.choice((0, 0, rng.randint(-5, 5))), rng.randint(1, 6))

    singular = 0
    for trial in range(300):
        # A A^T + s I for a sparse rational n x k matrix A: positive definite
        # for s = 1, and for s = 0 singular when A has a zero row or k < n,
        # so that a pivot may be 0 with a zero column below it
        n, k, s = rng.randint(1, 7), rng.randint(1, 7), trial % 2
        a = [[entry() for _ in range(k)] for _ in range(n)]
        rows = [[sum(map(mul, r, c)) + s * (r is c) for c in a] for r in a]
        fraction_free, gauss_jordan = _invert_both(rows)
        if isinstance(gauss_jordan, SingularMatrixError):
            singular += 1
            assert isinstance(fraction_free, SingularMatrixError)
            assert fraction_free.pivot == gauss_jordan.pivot
        else:
            assert fraction_free == gauss_jordan
    assert 20 <= singular <= 280  # both kinds of input occur

    # a weighted 7x7 grid Laplacian grounded at its first vertex: 48 rows
    grid = Multigraph.from_edges(
        ((i, j), (i + di, j + dj), Fraction(rng.randint(1, 4), rng.randint(1, 4)))
        for i in range(7)
        for j in range(7)
        for di, dj in ((0, 1), (1, 0))
        if i + di < 7 and j + dj < 7
    )
    grounded = laplacian(grid).drop(0, 0)
    fraction_free, gauss_jordan = _invert_both([grounded.row(i) for i in range(48)])
    assert fraction_free == gauss_jordan
    _assert_sweeps_agree([grounded.row(i) for i in range(48)])


def test_float_inverse_zero_leading_pivot():
    # the float routine pivots on the diagonal as the exact kernel does: a
    # zero leading pivot is singular when its column below is zero too, and
    # otherwise would need a row exchange, so both raise rather than answer
    with pytest.raises(SingularMatrixError) as info:
        invert_rows([[0.0, 0.0], [0.0, 2.0]], 1.0)
    assert info.value.pivot == 0
    rows = [[0.0, 1.0], [1.0, 2.0]]
    with needs_exchange(0):
        invert_rows(rows, 1.0)
    with needs_exchange(0):
        Matrix([[Fraction(x) for x in row] for row in rows]).inverse()


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


def test_drop():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.drop(0, 0) == Matrix([[5, 6], [8, 9]])
    assert m.drop(1, 2) == Matrix([[1, 2], [7, 8]])
    for i, j in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            m.drop(i, j)
        with pytest.raises(IndexError):
            m[i, j]
        if j == 0:
            with pytest.raises(IndexError):
                m.row(i)
