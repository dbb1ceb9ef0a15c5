import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from ohmtree import exactnum, spantree
from ohmtree.exactnum import remembering
from ohmtree.graph import (
    DisconnectedError,
    GraphError,
    Multigraph,
    PreconditionError,
    banana_graph,
    complete_graph,
    cycle_graph,
    fan_graph,
    path_graph,
    wheel_graph,
)
from ohmtree.polyseq import IntPolynomial
from ohmtree.resistnet import Network
from ohmtree.spantree import (
    add_star_edges,
    averaging_contractions,
    averaging_deletions,
    banana_of,
    chain_of,
    closed_form,
    contraction_identity,
    count_deletion_contraction,
    count_enumeration,
    count_identified,
    count_matrix_tree,
    deletion_identity,
    identification_quadratic,
    identified_count,
    removable_vertices,
    resistance_from_trees,
    spanning_tree_euler,
    star_augmentation_count,
    union_at,
    union_banana_of_paths,
    union_cut_vertex,
    union_cycle_replacement,
    union_k_banana,
    union_three_vertices,
    union_two_vertices,
    vertex_deletion_count,
    voltage_from_trees,
)
from ohmtree.verify import GraphGenSpec, generate


def test_basic_family_counts():
    for s in range(2, 11):
        assert count_matrix_tree(path_graph(s)) == 1
        assert count_matrix_tree(cycle_graph(s)) == s
    for s in range(1, 11):
        assert count_matrix_tree(banana_graph(s)) == s
    assert count_matrix_tree(complete_graph(4)) == 16
    assert count_matrix_tree(complete_graph(5)) == 125


def test_single_vertex_and_loops():
    g = Multigraph(["a"], [("l1", "a", "a"), ("l2", "a", "a"), ("l3", "a", "a")])
    assert count_matrix_tree(g) == 1
    assert count_enumeration(g) == 1
    assert count_deletion_contraction(g) == 1
    with pytest.raises(GraphError):
        count_matrix_tree(Multigraph([], []))


def test_deletion_contraction_examples():
    assert count_deletion_contraction(cycle_graph(3)) == 3
    assert count_deletion_contraction(path_graph(6)) == 1
    assert count_deletion_contraction(complete_graph(4)) == 16
    c3c, _ = cycle_graph(3).contract_edge("e1")
    assert count_matrix_tree(c3c) == 2  # one level of the recursion by hand
    assert count_matrix_tree(cycle_graph(3).delete_edge("e1")) == 1
    # connectivity is checked only at the root; without that check each leaf
    # of the recursion on two components would count as a tree
    for split in (
        Multigraph(["a", "b"], []),
        Multigraph("abcde", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                             ("e4", "d", "e")]),
    ):
        assert count_deletion_contraction(split) == count_matrix_tree(split) == 0


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(5),
        complete_graph(4),
        wheel_graph(5),
        path_graph(4),
        # parallel edges, a loop and a pendant bridge
        Multigraph(
            "abcd",
            [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"), ("e4", "c", "a"),
             ("e5", "c", "c"), ("e6", "c", "d")],
        ),
    ],
)
def test_deletion_contraction_visits_2t_minus_1_nodes(monkeypatch, g):
    # every node is connected and, once its bridges are contracted,
    # bridgeless: each branches into two such nodes and each leaf is one tree
    t = count_matrix_tree(g)
    monkeypatch.setattr(spantree, "DC_NODE_BUDGET", 2 * t - 1)
    assert count_deletion_contraction(g) == t
    monkeypatch.setattr(spantree, "DC_NODE_BUDGET", 2 * t - 2)
    with pytest.raises(PreconditionError):
        count_deletion_contraction(g)


def test_deletion_contraction_keeps_nothing_in_a_memo_scope():
    with remembering():
        before = len(exactnum._memo)
        assert count_deletion_contraction(wheel_graph(8)) == 2205
        assert len(exactnum._memo) == before


def test_enumeration_examples():
    assert count_enumeration(cycle_graph(5)) == 5
    assert count_enumeration(banana_graph(3)) == 3
    assert count_enumeration(Multigraph(["a", "b"], [])) == 0
    with pytest.raises(PreconditionError):
        count_enumeration(complete_graph(7))  # 21 non-loop edges


def test_count_identified():
    c2 = banana_graph(2)
    assert count_identified(c2, [("v1", "v2")]) == 1
    assert count_identified(complete_graph(4), [("v1", "v2")]) == 8
    c3 = cycle_graph(3)
    assert count_identified(c3, [("v1",)]) == 3  # singleton no-op
    assert count_identified(c3, [("v1", "v2", "v3")]) == 1


def test_identified_count_conventions():
    c3 = cycle_graph(3)
    assert identified_count(c3, ("v1", "v1")) == 0
    assert identified_count(c3, ("v1", "v2"), ("v2", "v1")) == 0
    assert identified_count(c3, ("v1", "v2"), ("v2", "v3")) == 1
    assert identified_count(c3) == 3


def test_four_way_agreement():
    spec = GraphGenSpec(seed=1234, lengths="unit")
    for i in range(60):
        g = generate(spec, i)
        t = count_matrix_tree(g)
        assert count_deletion_contraction(g) == t
        assert count_enumeration(g) == t
        u = next(
            v for v in g.sorted_vertices() if g.delete_vertex(v).is_connected()
        )
        assert vertex_deletion_count(g, u) == t


def test_loop_insensitivity_and_parallel_additivity():
    rng = random.Random(9)
    spec = GraphGenSpec(seed=5, lengths="unit", loop_prob=0.0)
    for i in range(20):
        g = generate(spec, i)
        t = count_matrix_tree(g)
        v = rng.choice(g.sorted_vertices())
        loopy = Multigraph(
            g.vertices(), list(g.edges()) + [("xl", v, v, 1)]
        )
        assert count_matrix_tree(loopy) == t
        assert count_deletion_contraction(loopy) == t
    for s in range(1, 8):
        assert count_matrix_tree(banana_graph(s)) == s


def test_resistance_from_trees():
    c3 = cycle_graph(3)
    assert resistance_from_trees(c3, "v1", "v2") == Fraction(2, 3)
    assert resistance_from_trees(c3, "v1", "v1") == 0
    k4 = complete_graph(4)
    assert resistance_from_trees(k4, "v1", "v3") == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        resistance_from_trees(cycle_graph(3).with_length("e1", 2), "v1", "v2")


def test_voltage_from_trees():
    k4 = complete_graph(4)
    assert voltage_from_trees(k4, "v1", "v2", "v3") == Fraction(1, 4)
    c3 = cycle_graph(3)
    assert voltage_from_trees(c3, "v1", "v2", "v2") == resistance_from_trees(
        c3, "v1", "v2"
    )
    assert voltage_from_trees(c3, "v1", "v2", "v1") == 0


def test_tree_formulas_match_pseudo_inverse():
    spec = GraphGenSpec(seed=77, lengths="unit")
    for i in range(25):
        g = generate(spec, i)
        net = Network(g)
        vs = g.sorted_vertices()
        rng = random.Random(i)
        for _ in range(5):
            p, q, s = (rng.choice(vs) for _ in range(3))
            assert net.resistance(p, q) == resistance_from_trees(g, p, q)
            assert net.voltage(p, q, s) == voltage_from_trees(g, p, q, s)


def test_ratio_relations_with_unit_lengths():
    # with unit lengths, the cut-edge resistance and the count ratios agree
    spec = GraphGenSpec(seed=31, lengths="unit")
    for i in range(15):
        g = generate(spec, i)
        t = count_matrix_tree(g)
        net = Network(g)
        for e in g.edge_ids():
            if g.is_bridge(e):
                continue
            ed = g.edge(e)
            t_contr = spantree.contracted_count(g, e)
            t_del = count_matrix_tree(g.delete_edge(e))
            if ed.is_loop():
                assert t_contr == 0 and t_del == t
                continue
            big_r = Network(g.delete_edge(e)).resistance(ed.u, ed.v)
            assert big_r == Fraction(t_contr, t_del)
            assert big_r / (1 + big_r) == Fraction(t_contr, t)
            assert 1 / (1 + big_r) == Fraction(t_del, t)


def test_foster_sum():
    spec = GraphGenSpec(seed=41, lengths="unit")
    for i in range(15):
        g = generate(spec, i)
        net = Network(g)
        total = sum(
            (net.resistance(ed.u, ed.v) for ed in g.edges()), Fraction(0)
        )
        assert total == g.n - 1


def test_averaging_contractions():
    for g in (complete_graph(4), cycle_graph(3), path_graph(5)):
        assert averaging_contractions(g) == 0
    k4 = complete_graph(4)
    assert all(
        spantree.contracted_count(k4, e) == 8 for e in k4.edge_ids()
    )  # 2 * 4^(4-3)
    residual = averaging_contractions(
        Multigraph(["a", "b"], [("e", "a", "b"), ("l", "a", "a")])
    )
    assert residual == 0  # the loop contributes a zero term


def test_averaging_deletions():
    for g in (complete_graph(4), cycle_graph(3), banana_graph(3)):
        assert averaging_deletions(g) == 0
    k4 = complete_graph(4)
    assert all(
        count_matrix_tree(k4.delete_edge(e)) == 8 for e in k4.edge_ids()
    )  # 4^(4-3) * (4-2)
    with pytest.raises(PreconditionError):
        averaging_deletions(path_graph(3))


def test_averaging_requires_connected():
    split = Multigraph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "c", "d")])
    for law in (averaging_contractions, averaging_deletions):
        with pytest.raises(DisconnectedError):
            law(split)


def test_union_formula_vectors():
    assert union_cut_vertex([6, 2]) == 12
    assert union_cut_vertex([1, 7]) == 7
    with pytest.raises(GraphError):
        union_cut_vertex([])
    assert union_two_vertices(1, 3, 2, 6) == 12
    assert union_two_vertices(8, 8, 13, 21) == 272
    # a 3-edge path glued across p, q: 1 tree, 3 with its ends identified
    assert union_two_vertices(5, 7, 1, 3) == 22


def test_union_k_banana():
    # k identical parts collapse to k * t * tpq^(k-1)
    assert union_k_banana([5] * 3, [2] * 3) == 3 * 5 * 2 * 2
    assert union_k_banana([9], [4]) == 9
    assert union_k_banana([1, 3], [2, 5]) == union_two_vertices(1, 2, 3, 5)
    with pytest.raises(GraphError):
        union_k_banana([1, 2], [3, 0])


def test_union_cycle_replacement():
    # unit-edge parts: the cycle of n single edges has n trees
    for n in range(2, 7):
        assert union_cycle_replacement([1] * n, [1] * n) == n
    assert union_cycle_replacement([4, 7], [3, 2]) == union_two_vertices(4, 3, 7, 2)
    assert union_cycle_replacement([5] * 3, [2] * 3) == 3 * 5 * 5 * 2
    with pytest.raises(GraphError):
        union_cycle_replacement([0, 1], [1, 1])


def test_union_banana_of_paths_worked_example():
    counts = [
        [(8, 8)],
        [(2, 1), (3, 2)],
        [(1, 4), (5, 6), (3, 1)],
    ]
    assert union_banana_of_paths(counts) == 9472


def test_union_banana_of_paths_uniform():
    # uniform closed form against the general product-sum
    for k in range(1, 4):
        for n in range(1, 4):
            for t_h, t_st in ((1, 1), (3, 2), (4, 7)):
                general = union_banana_of_paths([[(t_h, t_st)] * n] * k)
                uniform = k * n ** (k - 1) * t_h ** ((n - 1) * (k - 1) + n)
                assert general == uniform * t_st ** (k - 1)


def test_union_banana_of_paths_construct_and_count():
    # theta-like graph: every segment a single unit edge
    edge = path_graph(2)
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            counts = [[(1, 1)] * n] * k
            formula = union_banana_of_paths(counts)
            branches = []
            for _ in range(k):
                segs = [(edge, "v1", "v2")] * n
                chain = chain_of(segs)
                branches.append((chain, ("hub", 0), ("hub", n)))
            built = banana_of(branches)
            assert formula == count_matrix_tree(built)


def test_union_three_vertices():
    with pytest.raises(GraphError):
        union_three_vertices(1, 1, 1, 0, 0, 1, 0, 0, 1, 1)  # odd cross term


def test_nested_union_at_takes_a_fresh_tag():
    # the second gluing meets ("u2", ...) ids in its first part and tags u3
    p = path_graph(2)
    star = union_at(union_at(p, ["v1"], p, ["v1"]), ["v1"], p, ["v1"])
    assert (star.n, star.m) == (4, 3)
    assert count_matrix_tree(star) == 1
    assert ("u3", "e1") in star.edge_ids()


def test_union_three_vertices_doubled_triangle():
    tri = cycle_graph(3)
    pts = ("v1", "v2", "v3")
    glued = union_at(tri, pts, tri, pts)
    a = identified_count(tri, ("v1", "v3"))
    b = identified_count(tri, ("v1", "v2"))
    c = identified_count(tri, ("v2", "v3"))
    pqs = identified_count(tri, ("v1", "v2", "v3"))
    formula = union_three_vertices(3, 3, a, b, c, a, b, c, pqs, pqs)
    assert formula == count_matrix_tree(glued)
    assert formula == 4 * 3 * 1


def test_union_constructions_match_counts():
    rng = random.Random(55)
    spec = GraphGenSpec(seed=99, n_min=3, n_max=4, m_min=3, m_max=6, lengths="unit", loop_prob=0.0)
    for i in range(15):
        g1, g2 = generate(spec, 2 * i), generate(spec, 2 * i + 1)
        x1 = rng.choice(g1.sorted_vertices())
        x2 = rng.choice(g2.sorted_vertices())
        glued = union_at(g1, [x1], g2, [x2])
        assert count_matrix_tree(glued) == union_cut_vertex(
            [count_matrix_tree(g1), count_matrix_tree(g2)]
        )
        p1, q1 = rng.sample(g1.sorted_vertices(), 2)
        p2, q2 = rng.sample(g2.sorted_vertices(), 2)
        glued2 = union_at(g1, [p1, q1], g2, [p2, q2])
        expected = union_two_vertices(
            count_matrix_tree(g1),
            identified_count(g1, (p1, q1)),
            count_matrix_tree(g2),
            identified_count(g2, (p2, q2)),
        )
        assert count_matrix_tree(glued2) == expected
        for k in (1, rng.randint(2, 4)):
            glued3 = union_at(g1, [p1, q1], path_graph(k + 1), ["v1", f"v{k+1}"])
            assert count_matrix_tree(glued3) == union_two_vertices(
                count_matrix_tree(g1), identified_count(g1, (p1, q1)), 1, k
            )


def test_vertex_deletion_count_k4():
    k4 = wheel_graph(3)  # same graph as the 4-vertex complete graph
    assert vertex_deletion_count(k4, "apex") == 16
    # the terms of 16 = 3 * 3 + 2 + 2 + 2 + 1, over H = K4 - apex, a triangle
    assert sum(a for _, a in k4.neighbors_with_multiplicity("apex")) == 3
    h = k4.delete_vertex("apex")
    assert count_matrix_tree(h) == 3
    rim = h.sorted_vertices()
    assert [identified_count(h, pair) for pair in combinations(rim, 2)] == [2, 2, 2]
    assert identified_count(h, rim) == 1


def test_vertex_deletion_two_neighbors_reduces():
    # a + b spokes onto two path ends
    g = add_star_edges(path_graph(3), "v1", [("v3", 1)])
    g = Multigraph(
        set(g.vertices()) | {"u"},
        list(g.edges()) + [("s1", "u", "v1", 1), ("s2", "u", "v1", 1), ("s3", "u", "v3", 1)],
    )
    total = vertex_deletion_count(g, "u")
    h = g.delete_vertex("u")
    a, b = 2, 1
    expected = (a + b) * count_matrix_tree(h) + a * b * identified_count(
        h, ("v1", "v3")
    )
    assert total == expected == count_matrix_tree(g)


def test_vertex_deletion_three_neighbor_example():
    # the worked three-neighbor expansion with multiplicities (2, 3, 1)
    values = dict(t_h=4, ps=4, pq=3, qs=3, pqs=2)
    a, b, c = 2, 3, 1
    total = (
        (a + b + c) * values["t_h"]
        + a * c * values["ps"]
        + a * b * values["pq"]
        + b * c * values["qs"]
        + a * b * c * values["pqs"]
    )
    assert total == 71
    # and through the three-vertex union formula with the star's counts
    star_counts = (
        a * b * c,
        b * (a + c),
        c * (a + b),
        a * (b + c),
        a + b + c,
    )
    assert union_three_vertices(
        values["t_h"],
        star_counts[0],
        values["ps"],
        values["pq"],
        values["qs"],
        star_counts[1],
        star_counts[2],
        star_counts[3],
        values["pqs"],
        star_counts[4],
    ) == 71


def test_vertex_deletion_errors():
    p3 = path_graph(3)
    with pytest.raises(PreconditionError):
        vertex_deletion_count(p3, "v2")  # cut vertex
    single = Multigraph(["a"], [])
    with pytest.raises(PreconditionError):
        vertex_deletion_count(single, "a")


def test_vertex_deletion_subset_budget(monkeypatch):
    # four neighbours of v1 in K5: 2^4 - 4 - 1 = 11 subsets of two or more
    monkeypatch.setattr(spantree, "VERTEX_DEL_SUBSET_BUDGET", 11)
    assert vertex_deletion_count(complete_graph(5), "v1") == 125
    monkeypatch.setattr(spantree, "VERTEX_DEL_SUBSET_BUDGET", 10)
    with pytest.raises(PreconditionError, match="budget"):
        vertex_deletion_count(complete_graph(5), "v1")
    monkeypatch.undo()
    with pytest.raises(PreconditionError, match="budget"):
        vertex_deletion_count(complete_graph(24), "v1")  # 2^23 - 24 subsets


def test_removable_vertices():
    assert removable_vertices(path_graph(3)) == ["v1", "v3"]
    assert removable_vertices(cycle_graph(3)) == ["v1", "v2", "v3"]
    assert removable_vertices(Multigraph(["a"], [])) == []


def test_vertex_deletion_fan_and_wheel():
    for n in (2, 3, 4):
        for a in (1, 2):
            fan = fan_graph(n, a)
            assert vertex_deletion_count(fan, "apex") == count_matrix_tree(fan)
            wheel = wheel_graph(n, a)
            assert vertex_deletion_count(wheel, "apex") == count_matrix_tree(wheel)


def test_star_augmentation():
    p3 = path_graph(3)
    assert star_augmentation_count(p3, "v3", []) == 1
    assert star_augmentation_count(p3, "v3", [("v1", 1)]) == 3  # closes a cycle
    h = cycle_graph(3)
    one = star_augmentation_count(h, "v1", [("v2", 2)])
    assert one == count_matrix_tree(h) + 2 * identified_count(h, ("v1", "v2"))
    with pytest.raises(GraphError):
        star_augmentation_count(p3, "v1", [("v1", 1)])
    with pytest.raises(GraphError):
        star_augmentation_count(p3, "v1", [("v2", 0)])


def test_star_augmentation_matches_construction():
    rng = random.Random(66)
    spec = GraphGenSpec(seed=13, lengths="unit")
    for i in range(20):
        g = generate(spec, i)
        vs = g.sorted_vertices()
        anchor = rng.choice(vs)
        others = [v for v in vs if v != anchor]
        rng.shuffle(others)
        targets = [(v, rng.randint(1, 3)) for v in others[: rng.randint(1, 3)]]
        formula = star_augmentation_count(g, anchor, targets)
        built = add_star_edges(g, anchor, targets)
        assert formula == count_matrix_tree(built)


def test_identification_quadratic():
    k4 = complete_graph(4)
    vs = k4.sorted_vertices()
    for p, q, s, t in combinations(vs, 4):
        assert identification_quadratic(k4, p, q, s, t) == 0
    assert identification_quadratic(k4, "v1", "v2", "v3", "v3") == 0
    spec = GraphGenSpec(seed=3, n_min=5, n_max=5, lengths="unit")
    rng = random.Random(12)
    for i in range(10):
        g = generate(spec, i)
        vs = g.sorted_vertices()
        for _ in range(6):
            p, q, s, t = (rng.choice(vs) for _ in range(4))
            assert identification_quadratic(g, p, q, s, t) == 0


def test_contraction_and_deletion_identities():
    c3 = cycle_graph(3)
    assert contraction_identity(c3, "e1", "v3", "v1") == 0
    assert deletion_identity(c3, "e1", "v3", "v1") == 0
    p2 = path_graph(2)
    assert deletion_identity(p2, "e1", "v1", "v2") == 0  # bridge case
    assert contraction_identity(p2, "e1", "v1", "v2") == 0
    assert contraction_identity(c3, "e1", "v2", "v2") == 0
    spec = GraphGenSpec(seed=23, lengths="unit")
    rng = random.Random(8)
    for i in range(12):
        g = generate(spec, i)
        vs = g.sorted_vertices()
        for _ in range(4):
            e = rng.choice(g.edge_ids())
            s, t = rng.choice(vs), rng.choice(vs)
            assert contraction_identity(g, e, s, t) == 0
            assert deletion_identity(g, e, s, t) == 0


def test_spanning_tree_euler():
    k4 = complete_graph(4)
    u, b = spanning_tree_euler(k4, "v1", "v2")
    assert u == 0 and b == 0
    u, b = spanning_tree_euler(k4, "v1", "v1")
    assert u == 0 and b == 0
    p3 = path_graph(3)
    u, b = spanning_tree_euler(p3, "v1", "v3")  # two separating bridges
    assert u == 0 and b == 0
    spec = GraphGenSpec(seed=29, lengths="unit")
    rng = random.Random(4)
    for i in range(12):
        g = generate(spec, i)
        vs = g.sorted_vertices()
        for _ in range(4):
            s, t = rng.choice(vs), rng.choice(vs)
            u, b = spanning_tree_euler(g, s, t)
            assert u == 0 and b == 0


def test_closed_forms():
    assert [closed_form("fan", n) for n in range(1, 6)] == [1, 3, 8, 21, 55]
    assert [closed_form("wheel", n) for n in range(1, 6)] == [1, 5, 16, 45, 121]
    assert closed_form("complete", 5) == 125
    assert closed_form("path", 9) == 1
    assert closed_form("cycle", 9) == 9
    assert closed_form("banana", 9) == 9
    with pytest.raises(GraphError):
        closed_form("path", 1)
    with pytest.raises(GraphError):
        closed_form("fan", 0)
    with pytest.raises(GraphError):
        closed_form("fan", 3, 0)
    with pytest.raises(GraphError):
        closed_form("pentagon", 3)


def test_closed_forms_match_constructions():
    for n in range(1, 8):
        for a in (1, 2, 3):
            assert closed_form("fan", n, a) == count_matrix_tree(fan_graph(n, a))
            assert closed_form("wheel", n, a) == count_matrix_tree(wheel_graph(n, a))


def test_closed_forms_evaluate_the_polynomials():
    # B_n and W_n from their coefficient formulas, which test_polyseq checks
    # against the recurrences, evaluated at a
    for n in range(200):
        fan = IntPolynomial([comb(n + k + 1, n - k) for k in range(n + 1)])
        wheel = IntPolynomial(
            [(2 * n + 2) * comb(n + 2 + k, n - k) // (n + 2 + k) for k in range(n + 1)]
        )
        for a in (1, 2, 3):
            assert closed_form("fan", n + 1, a) == a * fan(a)
            assert closed_form("wheel", n + 1, a) == a * wheel(a)


def test_fan_and_wheel_counts_are_fibonacci_and_lucas_numbers():
    # t(fan_n) = B_{n-1}(1) = F(2n) and t(wheel_n) = W_{n-1}(1) = L(2n) - 2,
    # F and L the Fibonacci and Lucas numbers, by x B_n(x^2) = F_{2n+2}(x)
    # and x^2 W_n(x^2) = L_{2n+2}(x) - 2 at x = 1
    fib, luc = [0, 1], [2, 1]
    while len(fib) <= 400:
        fib.append(fib[-1] + fib[-2])
        luc.append(luc[-1] + luc[-2])
    for n in range(1, 201):
        assert closed_form("fan", n) == fib[2 * n]
        assert closed_form("wheel", n) == luc[2 * n] - 2


def test_path_identification_gap_product():
    # identifying a subset of path vertices leaves one unit of choice per gap
    for n in range(2, 7):
        p = path_graph(n)
        for k in range(2, n + 1):
            for subset in combinations(range(1, n + 1), k):
                expected = 1
                for a, b in zip(subset, subset[1:]):
                    expected *= b - a
                got = count_identified(p, [tuple(f"v{j}" for j in subset)])
                assert got == expected


def test_fan_subset_sum_identity():
    for n in range(2, 9):
        for k in range(2, n + 1):
            total = 0
            for subset in combinations(range(1, n + 1), k):
                prod = 1
                for a, b in zip(subset, subset[1:]):
                    prod *= b - a
                total += prod
            assert total == comb(n - 1 + k, 2 * k - 1)


def test_cycle_identification_wrap_product():
    for n in range(3, 7):
        c = cycle_graph(n)
        for k in range(2, n + 1):
            for subset in combinations(range(1, n + 1), k):
                expected = subset[0] + n - subset[-1]
                for a, b in zip(subset, subset[1:]):
                    expected *= b - a
                got = count_identified(c, [tuple(f"v{j}" for j in subset)])
                assert got == expected


def test_wheel_subset_sum_identity():
    for n in range(2, 9):
        for k in range(2, n + 1):
            total = 0
            for subset in combinations(range(1, n + 1), k):
                prod = subset[0] + n - subset[-1]
                for a, b in zip(subset, subset[1:]):
                    prod *= b - a
                total += prod
            assert total == 2 * n * comb(n + k, n - k) // (n + k)
