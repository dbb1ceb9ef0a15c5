import random
from fractions import Fraction

import pytest

from ohmtree import exactnum
from ohmtree.exactnum import remembering
from ohmtree.graph import (
    GraphError,
    MergedVertex,
    Multigraph,
    UnknownEdgeError,
    UnknownVertexError,
    banana_graph,
    complete_graph,
    cycle_graph,
    fan_graph,
    path_graph,
    wheel_graph,
)
from ohmtree.spantree import count_enumeration


def random_graph(rng, n_max=6, m_max=9):
    n = rng.randint(2, n_max)
    vs = [f"v{i}" for i in range(n)]
    pairs = [(vs[i], vs[rng.randrange(i)]) for i in range(1, n)]
    while len(pairs) < rng.randint(n - 1, m_max):
        roll = rng.random()
        if roll < 0.15:
            v = rng.choice(vs)
            pairs.append((v, v))
        else:
            pairs.append(tuple(rng.sample(vs, 2)))
    return Multigraph.from_edges(pairs)


def test_construction_validation():
    with pytest.raises(GraphError):
        Multigraph(["a"], [("e1", "a", "a", 0)])  # zero length
    with pytest.raises(UnknownVertexError):
        Multigraph(["a"], [("e1", "a", "b")])
    with pytest.raises(GraphError):
        Multigraph(["a", "b"], [("e1", "a", "b"), ("e1", "b", "a")])


def test_default_length_is_one():
    g = Multigraph.from_edges([("a", "b")])
    assert g.length("e1") == Fraction(1)


def test_delete_edge():
    c3 = cycle_graph(3)
    p = c3.delete_edge("e3")
    assert p.m == 2 and p.is_connected()
    p2 = path_graph(2)
    split = p2.delete_edge("e1")
    assert not split.is_connected()
    assert banana_graph(3).delete_edge("e1") == Multigraph(
        ["v1", "v2"], [("e2", "v1", "v2", 1), ("e3", "v1", "v2", 1)]
    )
    with pytest.raises(UnknownEdgeError):
        c3.delete_edge("nope")


def test_contract_edge():
    c3 = cycle_graph(3)
    c2, ren = c3.contract_edge("e1")
    assert c2.n == 2 and c2.m == 2
    assert ren["v1"] == ren["v2"] != ren["v3"]
    assert not any(e.is_loop() for e in c2.edges())

    b2 = banana_graph(2)
    point, ren = b2.contract_edge("e1")
    assert point.n == 1 and point.m == 1
    assert all(e.is_loop() for e in point.edges())

    k4c, _ = complete_graph(4).contract_edge("e1")
    assert count_enumeration(k4c) == 8

    # contracting a self-loop deletes it
    g = Multigraph(["a"], [("l", "a", "a", 1)])
    g2, ren = g.contract_edge("l")
    assert g2.m == 0 and ren == {"a": "a"}

    # a contraction is not remembered, even inside a memo scope
    with remembering():
        before = len(exactnum._memo)
        complete_graph(4).contract_edge("e1")
        assert len(exactnum._memo) == before


def test_identify_basic():
    p2 = path_graph(2)
    merged, ren = p2.identify([("v1", "v2")])
    assert merged.n == 1 and merged.m == 1
    assert all(e.is_loop() for e in merged.edges())

    k = 4
    pk = path_graph(k + 1)
    ck, ren = pk.identify([("v1", f"v{k + 1}")])
    assert ck.n == k and ck.m == k
    assert count_enumeration(ck) == k  # the path closed into a cycle

    c3all, _ = cycle_graph(3).identify([("v1", "v2", "v3")])
    assert c3all.n == 1 and c3all.m == 3
    assert count_enumeration(c3all) == 1


def test_identify_errors_and_noop():
    c3 = cycle_graph(3)
    with pytest.raises(GraphError):
        c3.identify([("v1", "v2"), ("v2", "v3")])  # overlapping groups
    with pytest.raises(UnknownVertexError):
        c3.identify([("v1", "zzz")])
    same, ren = c3.identify([("v1",)])
    assert same == c3 and ren["v1"] == "v1"


def test_identify_composes():
    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng)
        vs = g.sorted_vertices()
        if len(vs) < 4:
            continue
        a, b, c, d = rng.sample(vs, 4)
        one_shot, _ = g.identify([(a, b, c)])
        step1, ren1 = g.identify([(a, b)])
        step2, _ = step1.identify([(ren1[a], c)])
        assert step2 == one_shot
        # two disjoint groups commute with sequential application
        flat, _ = g.identify([(a, b), (c, d)])
        seq, ren = g.identify([(a, b)])
        seq, _ = seq.identify([(ren[c], ren[d])])
        assert seq == flat


def test_contract_equals_delete_then_identify():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng)
        for e in g.edge_ids():
            ed = g.edge(e)
            via_contract, ren = g.contract_edge(e)
            via_identify, _ = g.delete_edge(e).identify([(ed.u, ed.v)])
            assert via_contract == via_identify
            if ed.is_loop():  # the deletion itself, nothing renamed
                assert via_contract == g.delete_edge(e)
                assert ren == {v: v for v in g.vertices()}


def test_total_length_bookkeeping():
    def total_length(g):
        return sum(e.length for e in g.edges())

    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng)
        total = total_length(g)
        e = rng.choice(g.edge_ids())
        assert total_length(g.delete_edge(e)) == total - g.length(e)
        contracted, _ = g.contract_edge(e)
        assert total_length(contracted) == total - g.length(e)
        vs = g.sorted_vertices()
        ident, _ = g.identify([tuple(rng.sample(vs, 2))])
        assert total_length(ident) == total


def test_delete_vertex():
    p3 = fan_graph(3).delete_vertex("apex")
    assert p3.n == 3 and p3.m == 2 and p3.is_connected()
    assert sorted(p3.degree(v) for v in p3.vertices()) == [1, 1, 2]  # a path
    w3 = wheel_graph(3)
    c3 = w3.delete_vertex("apex")
    assert c3.n == 3 and c3.m == 3 and c3.is_connected()
    g = Multigraph(["a", "b", "c"], [("e1", "a", "b")])
    assert g.delete_vertex("c").m == 1
    with pytest.raises(UnknownVertexError):
        g.delete_vertex("zzz")


def test_is_bridge():
    p3 = path_graph(3)
    assert p3.is_bridge("e1") and p3.is_bridge("e2")
    c3 = cycle_graph(3)
    assert not any(c3.is_bridge(e) for e in c3.edge_ids())
    g = Multigraph(["a"], [("l", "a", "a", 1)])
    assert not g.is_bridge("l")


def test_kept_order_is_not_shared_with_callers():
    g = Multigraph.from_edges([("b", "a"), ("a", "c"), ("c", "c")])
    for read in (g.sorted_vertices, g.edges, g.edge_ids):
        kept, returned = read(), read()
        returned.reverse()
        returned.append("junk")
        assert read() == kept
    assert g.sorted_vertices() == ["a", "b", "c"]
    assert g.edge_ids() == ["e1", "e2", "e3"]


def test_separates():
    g = Multigraph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"), ("d", "d")]
    )
    assert g.separates("e1", "a", "c") and g.separates("e1", "b", "a")
    assert not g.separates("e2", "a", "c")  # the parallel edge e3 remains
    assert not g.separates("e1", "a", "a")
    kinds = {e: g.bridge_kind(e, "a", "c") for e in ("e1", "e2", "e4", "e5")}
    assert kinds == {
        "e1": "bridge-on-path",
        "e2": "non-bridge",  # on the cycle e2 e3
        "e4": "bridge-off-path",
        "e5": "non-bridge",  # self-loop
    }
    for s, t in (("a", "zz"), ("zz", "a"), ("zz", "zz")):
        with pytest.raises(UnknownVertexError):
            g.separates("e1", s, t)


def test_bridge_iff_in_every_spanning_tree():
    rng = random.Random(5)
    from itertools import combinations

    for _ in range(25):
        g = random_graph(rng, n_max=5, m_max=7)
        if not g.is_connected():
            continue
        edges = [e for e in g.edges() if not e.is_loop()]
        trees = []
        for subset in combinations(edges, g.n - 1):
            sub = Multigraph(g.vertices(), subset)
            if sub.is_connected():
                trees.append({e.id for e in subset})
        if not trees:
            continue
        for e in g.edge_ids():
            in_all = all(e in t for t in trees)
            assert g.is_bridge(e) == in_all


def test_components_genus_neighbors():
    assert cycle_graph(5).genus() == 1
    assert complete_graph(4).genus() == 3
    fan = fan_graph(3, a=2)
    neigh = fan.neighbors_with_multiplicity("apex")
    assert neigh == [("v1", 2), ("v2", 2), ("v3", 2)]
    g = Multigraph(["a", "b", "c"], [("e1", "a", "b"), ("l", "c", "c")])
    comps = sorted(g.connected_components(), key=len)
    assert [sorted(c) for c in comps] == [["c"], ["a", "b"]]
    # loops do not count toward neighbor multiplicity
    assert g.neighbors_with_multiplicity("c") == []


def test_merged_vertex_naming():
    m = MergedVertex(["b", "a"])
    assert str(m) == "a+b"
    nested = MergedVertex([m, "c"])
    assert nested == MergedVertex(["a", "b", "c"])
    assert str(nested) == "a+b+c"


def test_vertex_partition_validation():
    g = path_graph(3)
    with pytest.raises(GraphError, match="empty identification group"):
        g.identify([[]])
    with pytest.raises(GraphError, match="overlapping identification groups"):
        g.identify([["v1", "v2"], ["v2"]])


def test_canonical_text_and_hash_stability():
    g = cycle_graph(3)
    assert g.graph_hash() == cycle_graph(3).graph_hash()
    assert "edge e1 v1 v2 1" in g.canonical_text()
    assert g.graph_hash() != path_graph(3).graph_hash()


def test_with_length_and_unit_views():
    g = cycle_graph(3).with_length("e1", Fraction(5, 3))
    assert g.length("e1") == Fraction(5, 3)
    assert not g.has_unit_lengths()
    assert g.with_unit_lengths().has_unit_lengths()
    with pytest.raises(GraphError):
        g.with_length("e1", -1)


def test_family_shapes():
    assert path_graph(4).m == 3
    assert cycle_graph(1).m == 1  # one loop
    assert banana_graph(5).m == 5 and banana_graph(5).n == 2
    k5 = complete_graph(5)
    assert k5.m == 10
    assert fan_graph(1, a=3).m == 3  # no path edges, three spokes
    assert wheel_graph(4).m == 8
