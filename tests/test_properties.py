"""Property tests: the exact laws hold with a residual of literal zero on
every small connected multigraph Hypothesis generates, the reachability
queries and the order, connectivity and bridge answers a graph keeps agree
with a fresh sort and a union-find oracle on any small multigraph, a
surgered graph and the facts it inherits equal a graph built afresh from
its vertices and edges, the identified count of overlapping groups equals
identifying one group at a time, an exact ``Matrix`` is canonical whatever
form its entries are written in, its one elimination agrees with Fraction
arithmetic on banded grid Laplacians and on unit tree-count cofactors and
answers any other matrix exactly or names the pivot that would need a row
exchange, and a failure shrinks to the smallest counterexample graph."""

from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_exactnum import (
    LENGTHS,
    any_graphs,
    cofactor_det,
    exchange_column,
    grid_laplacians,
    unit_cofactors,
)

from ohmtree import resistnet, spantree
from ohmtree.exactnum import Matrix, SingularMatrixError, invert_rows, remembering
from ohmtree.graph import MergedVertex, Multigraph
from ohmtree.resistnet import Network

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def graphs(draw):
    """Connected multigraph on 2-5 vertices: a random spanning tree plus up
    to four extra edges, which may be self-loops or parallel edges."""
    n = draw(st.integers(2, 5))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(vs[i], vs[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    ends = st.sampled_from(vs)
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=4))
    return Multigraph(
        vs, [(f"e{k}", u, v, draw(LENGTHS)) for k, (u, v) in enumerate(pairs)]
    )


@st.composite
def edge_cases(draw):
    """A graph, one of its edges and four of its vertices (u, q, s, t),
    drawn with replacement."""
    g = draw(graphs())
    e = draw(st.sampled_from(g.edge_ids()))
    vertex = st.sampled_from(g.sorted_vertices())
    return (g, e) + draw(st.tuples(vertex, vertex, vertex, vertex))


def _drop(d):
    """Residual of a law stating before - after == correction."""
    return d.before - d.after - d.correction


def _cutting(net, e, u, s, t):
    d = resistnet.cutting_delta(net, e, s, t)
    return d.after - d.before - d.correction


EDGE_LAWS = {
    "cutting": _cutting,
    "convex": lambda net, e, u, s, t: resistnet.convex_combination_check(net, e, s, t),
    "vt-cut": resistnet.voltage_transfer_cutting,
    "vt-contract": resistnet.voltage_transfer_contraction,
}


@pytest.mark.parametrize("law", sorted(EDGE_LAWS))
@SETTINGS
@given(case=edge_cases())
def test_non_bridge_edge_laws(law, case):
    g, e, u, _, s, t = case
    assume(not g.is_bridge(e))
    assert EDGE_LAWS[law](Network(g), e, u, s, t) == 0


@SETTINGS
@given(case=edge_cases(), new_length=LENGTHS)
def test_contraction_and_modification_laws(case, new_length):
    g, e, _, _, s, t = case
    net = Network(g)
    assert _drop(resistnet.contraction_delta(net, e, s, t)) == 0
    assert _drop(resistnet.edge_modification_delta(net, e, new_length, s, t)) == 0


@SETTINGS
@given(case=edge_cases())
def test_bracket_identities(case):
    g, e, p, q, s, t = case
    g = g.with_unit_lengths()
    assert spantree.identification_quadratic(g, p, q, s, t) == 0
    assert spantree.contraction_identity(g, e, s, t) == 0
    assert spantree.deletion_identity(g, e, s, t) == 0


@SETTINGS
@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 50), st.integers(1, 50)), min_size=1, max_size=5
    )
)
def test_cycle_replacement_is_swapped_banana(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    ring = sum(y * prod(a[:i] + a[i + 1 :]) for i, y in enumerate(b))
    assert spantree.union_cycle_replacement(a, b) == ring
    assert spantree.union_k_banana(b, a) == ring


@settings(SETTINGS, max_examples=150)
@given(g=any_graphs(LENGTHS), data=st.data())
def test_euler_forms_agree_and_follow_the_bridge_rule(g, data):
    """No code encodes the bridge rule any more: both forms compute every
    edge's term by the one formula, and the labels come from ``bridge_kind``."""
    assume(g.is_connected())
    vertex = st.sampled_from(g.sorted_vertices())
    s, t = data.draw(vertex), data.draw(vertex)
    net = Network(g)
    first = resistnet.euler_decomposition(net, s, t)
    assert first == resistnet.euler_decomposition_resistance_only(net, s, t)
    for term, ed in zip(first, g.edges()):
        assert term.edge == ed.id
        if ed.is_loop() or term.kind == "bridge-off-path":
            assert term.contribution == 0
        elif term.kind == "bridge-on-path":
            assert term.contribution == ed.length
    assert sum(term.contribution for term in first) == net.resistance(s, t)


@settings(SETTINGS, max_examples=60)
@given(g=any_graphs(), data=st.data())
def test_doubled_part_has_four_t_tpqs_trees(g, data):
    """Two copies of one part glued at the same three vertices: the general
    three-vertex formula on identical counts is 4 t(G) t(G_pqs)."""
    assume(g.n >= 3)
    pts = data.draw(st.permutations(g.sorted_vertices()))[:3]
    p, q, s = pts
    t, tpqs = spantree.count_matrix_tree(g), spantree.identified_count(g, pts)
    a, b, c = (spantree.identified_count(g, pair) for pair in ((p, s), (p, q), (q, s)))
    glued = spantree.count_matrix_tree(spantree.union_at(g, pts, g, pts))
    assert glued == spantree.union_three_vertices(t, t, a, b, c, a, b, c, tpqs, tpqs)
    assert glued == 4 * t * tpqs


def _classes(g, without=None):
    """Each vertex's union-find root over every edge but ``without``: an
    oracle that shares no code with the graph's own walk."""
    parent = {v: v for v in g.vertices()}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for ed in g.edges():
        if ed.id != without:
            parent[find(ed.u)] = find(ed.v)
    return {v: find(v) for v in parent}


@settings(SETTINGS, max_examples=200)
@given(g=any_graphs())
def test_reachability_matches_union_find(g):
    root = _classes(g)
    comps = [{v for v in root if root[v] == r} for r in set(root.values())]
    got = g.connected_components()
    assert sorted(map(sorted, got)) == sorted(map(sorted, comps))
    assert g.is_connected() == (len(comps) == 1)
    vs = g.sorted_vertices()
    bridges = []
    for ed in g.edges():
        cut = _classes(g, ed.id)
        bridge = cut[ed.u] != cut[ed.v]
        bridges += [ed.id] if bridge else []
        assert g.is_bridge(ed.id) == bridge
        for s in vs:
            for t in vs:
                apart = cut[s] != cut[t]
                assert g.separates(ed.id, s, t) == apart
                kind = "bridge-on-path" if apart else "bridge-off-path"
                assert g.bridge_kind(ed.id, s, t) == (kind if bridge else "non-bridge")
    assert g.bridges() == bridges


@settings(SETTINGS, max_examples=100)
@given(g=graphs())
def test_connected_graphs_have_two_removable_vertices(g):
    """Every leaf of a spanning tree is a non-cut vertex, so a connected
    graph on two or more vertices has at least two."""
    assert len(spantree.removable_vertices(g)) >= 2


def _id_order(x):
    """The documented order of vertex and edge ids: by text, then type name."""
    return str(x), type(x).__name__


@settings(SETTINGS, max_examples=200)
@given(g=any_graphs(LENGTHS))
def test_cached_graph_facts_match_fresh_answers(g):
    """The kept order, connectivity and bridge answers equal a fresh sort and
    a fresh union-find, on the first call and on the second; the integer
    Laplacian equals, and hashes like, the one assembled in Fractions."""
    ids = sorted({e for v in g.vertices() for e in g.incident(v)}, key=_id_order)
    root = _classes(g)
    for _ in range(2):
        assert g.sorted_vertices() == sorted(g.vertices(), key=_id_order)
        assert [g.position(v) for v in g.sorted_vertices()] == list(range(g.n))
        assert g.edge_ids() == ids
        assert g.edges() == [g.edge(e) for e in ids]
        assert g.is_connected() == (len(set(root.values())) == 1)
        for ed in g.edges():
            cut = _classes(g, ed.id)
            assert g.is_bridge(ed.id) == (cut[ed.u] != cut[ed.v])
    if g.is_connected():
        lap = resistnet.laplacian(g)
        oracle = Matrix(g.laplacian_rows(lambda e: 1 / e.length))
        assert lap == oracle and hash(lap) == hash(oracle)


def _facts(g):
    """Every fact a graph keeps, read through the public calls."""
    facts = (
        g.sorted_vertices(),
        {v: g.position(v) for v in g.vertices()},
        g.edges(),
        g.is_connected(),
        g.bridges(),
        {v: sorted(g.incident(v), key=_id_order) for v in g.vertices()},
    )
    return facts + ((resistnet.laplacian(g),) if g.is_connected() else ())


def _matches_fresh_build(child):
    fresh = Multigraph(child.vertices(), child.edges())
    assert child == fresh and hash(child) == hash(fresh)
    for _ in range(2):  # the answer computed or inherited, then the kept one
        assert _facts(child) == _facts(fresh)


@settings(SETTINGS, max_examples=150)
@given(g=any_graphs(LENGTHS), data=st.data())
def test_surgered_graphs_match_fresh_builds(g, data):
    """Every surgery, on a parent that has or has not computed its own facts,
    inside or outside ``exactnum.remembering()``, gives on the first call and
    on the second (inside the block, the kept) call a graph equal to
    ``Multigraph(child.vertices(), child.edges())``, with the same order,
    connectivity, bridges, incidences and Laplacian; rename maps are equal
    across calls but never shared."""
    draw = data.draw
    verts = sorted(g.vertices(), key=_id_order)
    ids = [f"e{k}" for k in range(g.m)]  # the ids any_graphs gives
    labels = st.lists(st.integers(0, 3), min_size=len(verts), max_size=len(verts))

    def partition(marks):
        # vertices marked k > 0 form group k; singleton groups occur
        return [[v for v, m in zip(verts, marks) if m == k] for k in set(marks) - {0}]

    groups = [partition(draw(labels)) for _ in range(2)]
    v = draw(st.sampled_from(verts))
    if draw(st.booleans()):
        _facts(g)
    surgeries = [
        lambda: g.identify(groups[0]),
        lambda: g.identify(groups[1]),
        lambda: (g.with_unit_lengths(), None),
        lambda: (g.delete_vertex(v), None),
    ]
    if ids:
        e, length = draw(st.sampled_from(ids)), draw(LENGTHS)
        drop = draw(st.sets(st.sampled_from(ids)))
        loops = [x.id for x in g.edges() if x.is_loop()]
        surgeries += [
            lambda: (g.delete_edges(drop), None),
            lambda: (g.delete_edges(loops), None),
            lambda: (g.with_length(e, length), None),
        ]
        for x in ids:
            surgeries += [lambda x=x: (g.delete_edge(x), None), lambda x=x: g.contract_edge(x)]
    with remembering() if draw(st.booleans()) else nullcontext():
        for surgery in surgeries:
            (first, renames), (again, renames_again) = surgery(), surgery()
            _matches_fresh_build(first)
            _matches_fresh_build(again)
            if renames is not None:
                assert renames_again == renames and renames_again is not renames
        for part in groups:
            renames = g.identify(part)[1]
            renames.clear()
            assert g.identify(part)[1] == {x: x for x in g.vertices()} | {
                x: MergedVertex(group) for group in part if len(group) > 1 for x in group
            }


def _identified_one_group_at_a_time(graph, *groups):
    """t(G_{group, group, ...}) by identifying one group at a time and
    tracking where each original vertex went: the reference for
    ``spantree.identified_count``."""
    current = graph
    renames = {v: v for v in graph.vertices()}
    for members in map(tuple, groups):
        if len(members) < 2:
            continue  # singleton group is a no-op
        mapped = {renames[m] for m in members}
        if len(mapped) < 2:
            return 0
        current, step = current.identify([tuple(mapped)])
        renames = {v: step[cur] for v, cur in renames.items()}
    return spantree.count_matrix_tree(current)


@settings(SETTINGS, max_examples=150)
@given(g=any_graphs(), data=st.data())
def test_identified_count_matches_one_group_at_a_time(g, data):
    """Zero to three groups of one to three vertices drawn with repeats, so
    singleton groups, a vertex listed twice, a group inside an earlier
    merge and chains of overlapping groups all occur."""
    vertex = st.sampled_from(g.sorted_vertices())
    groups = data.draw(st.lists(st.lists(vertex, min_size=1, max_size=3), max_size=3))
    expected = _identified_one_group_at_a_time(g, *groups)
    assert spantree.identified_count(g, *groups) == expected


@settings(SETTINGS, max_examples=150)
@given(g=any_graphs())
def test_deletion_contraction_matches_matrix_tree(g):
    assert spantree.count_deletion_contraction(g) == spantree.count_matrix_tree(g)


@st.composite
def rational_matrices(draw):
    """A square matrix of Fractions with n 0-5, negative entries, maybe a
    zero row (so singular inputs occur) and a factor all entries share; and
    the same values each written as an int when integral, a Fraction, a
    "p/q" string or Fraction(k p, k q)."""
    n = draw(st.integers(0, 5))
    shared = draw(LENGTHS)
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    rows = [[shared * draw(entry) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
    k = draw(st.integers(2, 5))
    forms = st.sampled_from(
        [
            lambda x: int(x) if x.denominator == 1 else x,
            lambda x: x,
            lambda x: f"{k * x.numerator}/{k * x.denominator}",
            lambda x: Fraction(k * x.numerator, k * x.denominator),
        ]
    )
    return rows, [[draw(forms)(x) for x in row] for row in rows]


def _canonical(m):
    """``m`` itself, after checking its denominator is positive and shares
    no factor with all of its numerators."""
    assert m.denominator > 0
    assert gcd(m.denominator, *chain.from_iterable(m.numerators)) == 1
    return m


def _inverse_or_pivot(invert):
    """The canonical inverse, or the SingularMatrixError column, or the
    column and message of a zero pivot that would need a row exchange."""
    try:
        return _canonical(invert())
    except SingularMatrixError as exc:
        return exc.pivot
    except ValueError as exc:
        return exchange_column(exc), str(exc)


@settings(SETTINGS, max_examples=100)
@given(case=rational_matrices())
def test_matrix_is_canonical(case):
    rows, written = case
    n = len(rows)
    m, ref = _canonical(Matrix(written)), Matrix(rows)
    assert m == ref and hash(m) == hash(ref)
    for i in range(n):
        entries = [m[i, j] for j in range(n)]
        assert entries == rows[i] and m.row(i) == tuple(rows[i])
        assert all(type(x) is Fraction for x in (*entries, *m.row(i)))
        for j in range(n):
            kept = [r[:j] + r[j + 1 :] for h, r in enumerate(rows) if h != i]
            assert _canonical(m.drop(i, j)) == Matrix(kept)
    inverse = _inverse_or_pivot(m.inverse)
    expect = _inverse_or_pivot(lambda: Matrix(invert_rows(rows, Fraction(1))))
    assert inverse == expect and hash(inverse) == hash(expect)


@settings(SETTINGS, max_examples=100)
@given(case=rational_matrices())
def test_det_is_exact_or_needs_row_exchange(case):
    """On any square matrix ``det`` is the cofactor expansion, or raises the
    ValueError of a zero pivot at column k with a nonzero entry below it: the
    leading (k + 1) x (k + 1) minor is 0 and the leading k x k minor is not."""
    rows, _ = case
    m = Matrix(rows)
    try:
        det = m.det()
    except ValueError as exc:
        k = exchange_column(exc)
        minor = [cofactor_det(Matrix([r[:h] for r in rows[:h]])) for h in (k, k + 1)]
        assert minor[0] != 0 and minor[1] == 0
    else:
        assert det == cofactor_det(m)


def test_matrix_canonical_examples():
    with pytest.raises(TypeError):
        Matrix([[1, 0.5]])
    # the last Bareiss pivot is negative for these matrices, so the inverse's
    # common denominator has its sign flipped
    for rows in ([[1, 2], [3, 4]], [[-1, 2], [2, -1]], [[Fraction(-2, 3)]]):
        inverse = Matrix(rows).inverse()
        ref = Matrix(invert_rows([[Fraction(x) for x in r] for r in rows], Fraction(1)))
        assert _canonical(inverse) == ref and hash(inverse) == hash(ref)
    # a zero first pivot over a nonzero entry needs a row exchange: every
    # elimination raises rather than answer, det 0 least of all
    for rows in ([[0, 1], [1, 0]], [[0, 1], [-1, 0]]):
        m, exact = Matrix(rows), [[Fraction(x) for x in r] for r in rows]
        for call in (m.det, m.inverse, partial(invert_rows, exact, Fraction(1))):
            with pytest.raises(ValueError) as info:
                call()
            assert exchange_column(info.value) == 0


def _fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions."""
    a, det = [list(row) for row in rows], Fraction(1)
    for k in range(len(a)):
        piv = next((r for r in range(k, len(a)) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv], det = a[piv], a[k], -det
        det *= a[k][k]
        for row in a[k + 1 :]:
            f = row[k] / a[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    return det


@SETTINGS
@given(matrices=st.one_of(grid_laplacians(), unit_cofactors()))
def test_kernel_on_banded_and_cofactor_matrices(matrices):
    """The one elimination behind ``det`` and ``inverse``, on the banded
    matrices a grid Laplacian gives and on the unit tree-count cofactors of
    any multigraph, singular ones included: the inverse, or the column
    without a pivot, is that of Gauss-Jordan in Fractions, and the
    determinant that of a cofactor expansion or of Gaussian elimination in
    Fractions."""
    for rows in matrices:
        m = Matrix(rows)
        inverse = _inverse_or_pivot(m.inverse)
        expect = _inverse_or_pivot(lambda: Matrix(invert_rows(rows, Fraction(1))))
        assert inverse == expect and hash(inverse) == hash(expect)
        assert m.det() == (cofactor_det(m) if m.rows <= 6 else _fraction_det(rows))
