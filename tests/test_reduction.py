import random
from fractions import Fraction
from itertools import combinations

import pytest

from ohmtree.graph import GraphError, Multigraph, cycle_graph, path_graph
from ohmtree.reduction import delta_y, reduce_two_terminal
from ohmtree.resistnet import Network
from ohmtree.verify import GraphGenSpec, generate, generate_series_parallel


def test_series_chain():
    g = Multigraph.from_edges([("a", "b", 1), ("b", "c", 2)])
    value, trace = reduce_two_terminal(g, "a", "c")
    assert value == 3
    assert {s.rule for s in trace.steps} == {"series"}


def test_triangle_adjacent_terminals():
    value, trace = reduce_two_terminal(cycle_graph(3), "v1", "v2")
    assert value == Fraction(2, 3)
    assert {s.rule for s in trace.steps} == {"series", "parallel"}


def test_four_vertex_complete_needs_delta_y():
    g = Multigraph.from_edges(
        [
            ("t", "p"),
            ("t", "s"),
            ("s", "q"),
            ("p", "q"),
            ("s", "p"),
            ("t", "q"),
        ]
    )
    value, trace = reduce_two_terminal(g, "s", "t")
    assert value == Fraction(1, 2)
    assert "delta-y" in {s.rule for s in trace.steps}


def test_loop_drop():
    g = Multigraph.from_edges([("a", "b", 1), ("a", "a", 5)])
    value, trace = reduce_two_terminal(g, "a", "b")
    assert value == 1
    assert "loop-drop" in {s.rule for s in trace.steps}


@pytest.mark.parametrize(
    "taken, edges, t, value",
    [
        ("par1", [("b", "c"), ("a", "b"), ("a", "b")], "c", Fraction(3, 2)),
        ("ser1", [("c", "d"), ("a", "b"), ("b", "c")], "d", 3),
    ],
)
def test_merged_edge_skips_an_input_id(taken, edges, t, value):
    # an input edge already named par1 or ser1 stays in the graph when the
    # first merge of its kind is made, so that merge takes the next id
    ids = [taken, "e1", "e2"]
    g = Multigraph({v for e in edges for v in e}, [(k, *e) for k, e in zip(ids, edges)])
    got, trace = reduce_two_terminal(g, "a", t)
    assert got == value
    produced = [e.id for step in trace.steps for e in step.produced]
    assert taken not in produced and len(set(produced)) == len(produced)


def test_not_reducible_is_a_value():
    # a dangling branch is out of reach of the four rewrite rules
    g = path_graph(3)
    value, trace = reduce_two_terminal(g, "v1", "v2")
    assert value is None


def test_terminal_validation():
    with pytest.raises(GraphError):
        reduce_two_terminal(cycle_graph(3), "v1", "v1")
    with pytest.raises(GraphError):
        reduce_two_terminal(Multigraph(["a", "b"], []), "a", "b")


def test_trace_is_deterministic_text():
    _, trace1 = reduce_two_terminal(cycle_graph(3), "v1", "v2")
    _, trace2 = reduce_two_terminal(cycle_graph(3), "v1", "v2")
    assert trace1.text() == trace2.text()
    assert trace1.text() == (
        "series consumed=e2,e3 produced=ser1:v2:v1:2\n"
        "parallel consumed=e1,ser1 produced=par1:v1:v2:2/3\n"
    )
    # the same graph with its edges given in another order reduces alike
    rng = random.Random(2030)
    for _ in range(40):
        g, s, t = generate_series_parallel(rng)
        reordered = Multigraph(g.vertices(), reversed(g.edges()))
        want = reduce_two_terminal(g, s, t)[1].text()
        assert reduce_two_terminal(reordered, s, t)[1].text() == want


def test_delta_y_symmetric_triangle():
    g = cycle_graph(3)
    star = delta_y(g, "e1", "e2", "e3")
    assert star.n == 4 and star.m == 3
    arms = sorted(e.length for e in star.edges())
    assert arms == [Fraction(1, 3)] * 3


def test_delta_y_131():
    g = Multigraph.from_edges([("x", "y", 1), ("y", "z", 2), ("z", "x", 3)])
    star = delta_y(g, "e1", "e2", "e3")
    arms = sorted(e.length for e in star.edges())
    assert arms == [Fraction(1, 3), Fraction(1, 2), Fraction(1)]


def test_delta_y_preserves_pairwise_resistance():
    g = Multigraph.from_edges([("x", "y", 1), ("y", "z", 2), ("z", "x", 3)])
    star = delta_y(g, "e1", "e2", "e3")
    before, after = Network(g), Network(star)
    for a, b in combinations(("x", "y", "z"), 2):
        assert before.resistance(a, b) == after.resistance(a, b)


def test_delta_y_rejects_non_triangles():
    g = path_graph(4)
    with pytest.raises(GraphError):
        delta_y(g, "e1", "e2", "e3")
    loopy = Multigraph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b"), ("l", "a", "a")])
    with pytest.raises(GraphError):
        delta_y(loopy, "e1", "e2", "l")


def test_delta_y_inside_larger_graph():
    rng = random.Random(404)
    spec = GraphGenSpec(seed=404, n_min=4, n_max=6, m_min=6, m_max=10, lengths="small")
    checked = 0
    index = 0
    while checked < 12 and index < 200:
        g = generate(spec, index)
        index += 1
        tri = _find_triangle(g)
        if tri is None:
            continue
        checked += 1
        (x, y, z), (e1, e2, e3) = tri
        star = delta_y(g, e1, e2, e3)
        before, after = Network(g), Network(star)
        for a in g.sorted_vertices():
            for b in g.sorted_vertices():
                assert before.resistance(a, b) == after.resistance(a, b)
    assert checked == 12


def _find_triangle(g):
    vs = g.sorted_vertices()
    for x, y, z in combinations(vs, 3):
        exy = g.edges_between(x, y)
        eyz = g.edges_between(y, z)
        ezx = g.edges_between(z, x)
        if exy and eyz and ezx:
            return (x, y, z), (exy[0], eyz[0], ezx[0])
    return None


def test_series_parallel_instances_match_pseudo_inverse():
    rng = random.Random(2030)
    for _ in range(40):
        g, s, t = generate_series_parallel(rng)
        value, trace = reduce_two_terminal(g, s, t)
        assert value is not None
        assert value == Network(g).resistance(s, t)


def test_reducible_random_graphs_agree_with_pseudo_inverse():
    spec = GraphGenSpec(seed=7, n_min=3, n_max=5, m_min=3, m_max=8, lengths="small")
    agreements = 0
    for i in range(60):
        g = generate(spec, i)
        vs = g.sorted_vertices()
        rng = random.Random(i)
        s, t = rng.sample(vs, 2)
        value, _ = reduce_two_terminal(g, s, t)
        if value is None:
            continue
        agreements += 1
        assert value == Network(g).resistance(s, t)
    assert agreements >= 15
