"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and holding to its stated exactness and time budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines."""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from ohmtree.graph import (
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
    fan_graph,
    path_graph,
    wheel_graph,
)
from ohmtree.polyseq import X, morgan_voyce, w_poly
from ohmtree.reduction import delta_y, reduce_two_terminal
from ohmtree.resistnet import Network, resistance_derivative, resistance_fd
from ohmtree.spantree import (
    closed_form,
    count_deletion_contraction,
    count_enumeration,
    count_matrix_tree,
    union_banana_of_paths,
    union_three_vertices,
    union_two_vertices,
    vertex_deletion_count,
)
from ohmtree.verify import (
    GraphGenSpec,
    generate,
    generate_series_parallel,
    run_suite,
)


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE {num:02d} {name}: PASS "
        f"({elapsed:.2f}s, budget {budget_seconds}s)"
    )
    assert elapsed < budget_seconds, f"{name} exceeded its time budget"


def _suite_must_pass(spec, tags, instances, samples=4):
    result = run_suite(spec, tags, instances=instances, samples=samples)
    assert result.reports, "suite produced no reports"
    bad = [r for r in result.reports if not r.passed]
    assert not bad, f"{len(bad)} failing identity reports, first: {bad[0].line()}"
    return result


def test_01_closed_form_tables():
    with criterion(1, "closed-form-tables", 1.0):
        for s in range(2, 11):
            assert count_matrix_tree(path_graph(s)) == 1
            assert count_matrix_tree(cycle_graph(s)) == s
            assert count_matrix_tree(banana_graph(s)) == s
        for n in range(2, 8):
            k = complete_graph(n)
            assert count_matrix_tree(k) == n ** (n - 2)
            for e in k.edge_ids():
                contracted, _ = k.contract_edge(e)
                assert count_matrix_tree(contracted) == 2 * n ** (n - 3)
                assert count_matrix_tree(k.delete_edge(e)) == n ** (n - 3) * (n - 2)


def test_02_fan_wheel_sequences():
    with criterion(2, "fan-wheel-sequences", 5.0):
        assert [closed_form("fan", n, 1) for n in range(1, 6)] == [1, 3, 8, 21, 55]
        assert [closed_form("wheel", n, 1) for n in range(1, 6)] == [1, 5, 16, 45, 121]
        for n in range(1, 8):
            for a in range(1, 4):
                assert a * morgan_voyce(n - 1, X)(a) == count_matrix_tree(
                    fan_graph(n, a)
                )
                assert a * w_poly(n - 1, X)(a) == count_matrix_tree(wheel_graph(n, a))


def test_03_four_way_spanning_tree_agreement():
    with criterion(3, "four-way-count-agreement", 60.0):
        spec = GraphGenSpec(seed=303, n_min=3, n_max=6, m_min=3, m_max=10, lengths="unit")
        for i in range(200):
            g = generate(spec, i)
            t = count_matrix_tree(g)
            assert count_deletion_contraction(g) == t
            assert count_enumeration(g) == t
            u = next(
                v for v in g.sorted_vertices() if g.delete_vertex(v).is_connected()
            )
            assert vertex_deletion_count(g, u) == t


def test_04_explicit_law_suite():
    with criterion(4, "explicit-law-suite", 120.0):
        spec = GraphGenSpec(seed=404, lengths="small")
        tags = (
            "shorting",
            "cutting",
            "monotonic1",
            "monotonic2",
            "convex",
            "vol-transfer",
            "magic",
        )
        result = _suite_must_pass(spec, tags, instances=100)
        assert all(r.residual == 0 for r in result.reports)


def test_05_euler_formulas_and_foster():
    with criterion(5, "euler-sums-and-foster", 120.0):
        spec = GraphGenSpec(seed=505, lengths="small")
        result = _suite_must_pass(spec, ("euler1", "euler2"), instances=100)
        assert all(r.residual == 0 for r in result.reports)
        unit = GraphGenSpec(seed=506, lengths="unit")
        result = _suite_must_pass(unit, ("foster",), instances=100)
        assert all(r.residual == 0 for r in result.reports)


def test_06_tree_resistance_bridge():
    with criterion(6, "tree-count-resistance-bridge", 120.0):
        spec = GraphGenSpec(seed=606, lengths="unit")
        result = _suite_must_pass(
            spec, ("tree-resistance", "tree-voltage"), instances=100
        )
        assert all(r.residual == 0 for r in result.reports)


def test_07_union_formula_vectors():
    with criterion(7, "union-formula-vectors", 1.0):
        assert union_two_vertices(1, 3, 2, 6) == 12
        assert union_two_vertices(8, 8, 13, 21) == 272
        # three-neighbor vertex deletion with multiplicities (2, 3, 1)
        a, b, c = 2, 3, 1
        t_h, t_ps, t_pq, t_qs, t_pqs = 4, 4, 3, 3, 2
        total = (
            (a + b + c) * t_h
            + a * c * t_ps
            + a * b * t_pq
            + b * c * t_qs
            + a * b * c * t_pqs
        )
        assert total == 71
        star = (a * b * c, b * (a + c), c * (a + b), a * (b + c), a + b + c)
        assert (
            union_three_vertices(
                t_h, star[0], t_ps, t_pq, t_qs, star[1], star[2], star[3],
                t_pqs, star[4],
            )
            == 71
        )
        # the worked branch-of-paths composition
        assert union_banana_of_paths([[(8, 8)], [(2, 1), (3, 2)], [(1, 4), (5, 6), (3, 1)]]) == 9472


def test_08_identification_identities():
    with criterion(8, "identification-identities", 120.0):
        spec = GraphGenSpec(seed=808, lengths="unit")
        result = _suite_must_pass(
            spec,
            ("quadratic", "contract-id", "delete-id", "span-euler"),
            instances=100,
        )
        assert all(r.residual == 0 for r in result.reports)


def test_09_derivative_against_finite_differences():
    with criterion(9, "derivative-finite-difference", 120.0):
        spec = GraphGenSpec(seed=909, lengths="small")
        rng = random.Random(909)
        for i in range(50):
            g = generate(spec, i)
            net = Network(g)
            vs = g.sorted_vertices()
            for _ in range(3):
                e = rng.choice(g.edge_ids())
                s, t = rng.choice(vs), rng.choice(vs)
                exact = resistance_derivative(net, e, s, t)
                if g.is_bridge(e):
                    assert exact in (0, 1)
                    continue
                fd = resistance_fd(g, e, s, t)
                assert abs(fd - float(exact)) <= 1e-6 * max(1.0, abs(float(exact)))
        # trees: every edge is a bridge, derivative is exactly 0 or 1
        trees = GraphGenSpec(seed=910, n_min=4, n_max=6, m_min=3, m_max=5, lengths="small", parallel_prob=0.0, loop_prob=0.0)
        for i in range(10):
            g = generate(trees, i)
            if g.m != g.n - 1:
                continue
            net = Network(g)
            vs = g.sorted_vertices()
            for e in g.edge_ids():
                for _ in range(2):
                    s, t = rng.choice(vs), rng.choice(vs)
                    assert resistance_derivative(net, e, s, t) in (0, 1)


def test_10_averaging_identities():
    with criterion(10, "averaging-identities", 120.0):
        spec = GraphGenSpec(seed=1010, lengths="unit")
        result = _suite_must_pass(spec, ("averaging",), instances=100)
        assert all(r.residual == 0 for r in result.reports)
        deletions = [r for r in result.reports if r.selection == "deletions"]
        assert deletions, "no bridgeless instance exercised deletion averaging"


def test_11_reduction_oracle():
    with criterion(11, "reduction-oracle", 120.0):
        rng = random.Random(1111)
        for _ in range(50):
            g, s, t = generate_series_parallel(rng)
            value, _ = reduce_two_terminal(g, s, t)
            assert value is not None
            assert value == Network(g).resistance(s, t)

        spec = GraphGenSpec(seed=1112, n_min=4, n_max=6, m_min=7, m_max=10, lengths="small")
        checked = 0
        index = 0
        while checked < 50:
            g = generate(spec, index)
            index += 1
            tri = _find_triangle(g)
            if tri is None:
                continue
            checked += 1
            star = delta_y(g, *tri)
            before, after = Network(g), Network(star)
            for a, b in combinations(g.sorted_vertices(), 2):
                assert before.resistance(a, b) == after.resistance(a, b)


def _find_triangle(g):
    for x, y, z in combinations(g.sorted_vertices(), 3):
        exy = g.edges_between(x, y)
        eyz = g.edges_between(y, z)
        ezx = g.edges_between(z, x)
        if exy and eyz and ezx:
            return exy[0], eyz[0], ezx[0]
    return None
