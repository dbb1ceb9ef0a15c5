import importlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ohmtree
from ohmtree import exactnum, resistnet
from ohmtree.exactnum import Matrix, remembering
from ohmtree.graph import (
    DisconnectedError,
    Multigraph,
    PreconditionError,
    UnknownVertexError,
    banana_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from ohmtree.resistnet import (
    Network,
    contraction_delta,
    convex_combination_check,
    cutting_delta,
    edge_modification_delta,
    euler_decomposition,
    euler_decomposition_resistance_only,
    laplacian,
    pseudo_inverse,
    resistance_derivative,
    shorting_delta,
    voltage_transfer_contraction,
    voltage_transfer_cutting,
    voltage_transfer_shorting,
)
from ohmtree.spantree import (
    count_deletion_contraction,
    count_matrix_tree,
    identified_count,
)
from ohmtree.verify import GraphGenSpec, generate

from test_exactnum import product


def four_terminal(a, b, c, d, e, f):
    """Complete graph on t, s, p, q with one labeled length per edge."""
    return Multigraph.from_edges(
        [
            ("t", "p", a),
            ("t", "s", b),
            ("s", "q", c),
            ("p", "q", d),
            ("s", "p", e),
            ("t", "q", f),
        ]
    )


def random_lengths(rng, count=6):
    return [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(count)]


def random_nets(seed, count, lengths="small"):
    spec = GraphGenSpec(seed=seed, lengths=lengths)
    for i in range(count):
        g = generate(spec, i)
        yield Network(g)


def test_laplacian_path2():
    g = Multigraph.from_edges([("a", "b")])
    assert laplacian(g) == Matrix([[1, -1], [-1, 1]])


def test_laplacian_banana2():
    assert laplacian(banana_graph(2)) == Matrix([[2, -2], [-2, 2]])


def test_laplacian_four_terminal_shape():
    a, b, c, d, e, f = (Fraction(x) for x in (2, 3, 5, 7, 11, 13))
    g = four_terminal(a, b, c, d, e, f)
    lap = laplacian(g)  # vertex order p, q, s, t
    expect = Matrix(
        [
            [1 / a + 1 / e + 1 / d, -1 / d, -1 / e, -1 / a],
            [-1 / d, 1 / f + 1 / c + 1 / d, -1 / c, -1 / f],
            [-1 / e, -1 / c, 1 / b + 1 / e + 1 / c, -1 / b],
            [-1 / a, -1 / f, -1 / b, 1 / a + 1 / b + 1 / f],
        ]
    )
    assert lap == expect
    assert all(sum(lap.row(i)) == 0 for i in range(4))
    with pytest.raises(DisconnectedError):
        laplacian(Multigraph(["a", "b"], []))


def test_network_walks_its_graph_once(monkeypatch):
    walks = []
    reach = Multigraph._reach

    def counted(self, *args):
        walks.append(args)
        return reach(self, *args)

    monkeypatch.setattr(Multigraph, "_reach", counted)
    net = Network(cycle_graph(4))
    assert net.resistance("v1", "v3") == 1
    assert len(walks) == 1


def test_repeated_laws_invert_and_count_again(monkeypatch):
    """Outside exactnum.remembering() nothing is kept: each repeat of a law
    inverts or counts once more, and deletion-contraction leaves its input
    holding no derived graph."""
    calls = Counter()
    for name in ("inverse", "det"):
        def counted(self, _name=name, _run=getattr(Matrix, name)):
            calls[_name] += 1
            return _run(self)

        monkeypatch.setattr(Matrix, name, counted)
    g = Multigraph.from_edges(
        [("a", "b"), ("b", "c", 2), ("c", "d"), ("d", "a", 3), ("a", "c"), ("b", "d")]
    )
    net = Network(g)
    net.pseudo_inverse  # the network inverts once, on first use
    laws = (
        (lambda: voltage_transfer_shorting(net, "a", "b", "c", "d", "a"), "inverse"),
        (lambda: cutting_delta(net, "e5", "b", "d"), "inverse"),
        (lambda: identified_count(g, ("a", "c"), ("b", "d")), "det"),
    )
    for law, kernel in laws:
        before = calls[kernel]
        for k in range(1, 4):
            law()
            assert calls[kernel] == before + k
    fresh = Multigraph(g.vertices(), g.edges())
    assert count_deletion_contraction(fresh) == count_matrix_tree(fresh)
    assert not any(isinstance(x, Multigraph) for x in vars(fresh).values())
    assert exactnum._memo is None


@pytest.mark.parametrize(
    "query",
    [
        lambda net: net.resistance("zz", "v1"),
        lambda net: net.voltage("v1", "v2", "zz"),
        lambda net: resistance_derivative(net, "e1", "v1", "zz"),
    ],
    ids=["resistance", "voltage", "derivative"],
)
def test_unknown_vertex_raises_before_inverting(monkeypatch, query):
    inversions = []
    inverse = Matrix.inverse

    def counted(self):
        inversions.append(self.rows)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    net = Network(cycle_graph(4))  # e1 is on the cycle, so not a bridge
    with pytest.raises(UnknownVertexError):
        query(net)
    assert inversions == []


def test_kept_graphs_are_bounded():
    """Derived graphs are kept only inside exactnum.remembering(): outside
    it two identify or deleted(e) calls give equal but distinct graphs and
    nothing is kept; inside it an equal but freshly built parent gets the
    same graphs and Laplacian back, with its own rename map, and the memo is
    dropped when the block exits.  Each answer is right."""
    g = complete_graph(7)
    net = Network(g)
    pairs = [(p, q) for p in g.sorted_vertices() for q in g.sorted_vertices() if p < q]
    first, again = g.identify([pairs[0]])[0], g.identify([pairs[0]])[0]
    assert first == again and first is not again
    first, again = net.deleted("e1").graph, net.deleted("e1").graph
    assert first == again and first is not again
    assert exactnum._memo is None
    with remembering():
        twin = Network(Multigraph(g.vertices(), g.edges()))
        for p, q in pairs:
            shorted, renames = net.shorted(p, q)
            kept, kept_renames = twin.shorted(p, q)
            assert kept.graph is shorted.graph and kept_renames is not renames
            assert shorted.graph == Multigraph(set(renames.values()), shorted.graph.edges())
            assert renames[p] == renames[q] and len(set(renames.values())) == g.n - 1
        for e in g.edge_ids():
            deleted = net.deleted(e).graph
            assert deleted == Multigraph(g.vertices(), g.delete_edge(e).edges())
            assert twin.deleted(e).graph is deleted
            assert net.contracted(e)[0].graph == g.contract_edge(e)[0]
        assert twin.laplacian is net.laplacian
    assert exactnum._memo is None


def test_pseudo_inverse_path2():
    lp = pseudo_inverse(Matrix([[1, -1], [-1, 1]]))
    quarter = Fraction(1, 4)
    assert lp == Matrix([[quarter, -quarter], [-quarter, quarter]])
    with pytest.raises(DisconnectedError):
        pseudo_inverse(Matrix([[0, 0], [0, 0]]))


def rank_one_reference(lap):
    # the pseudo-inverse by the rank-one correction (L + J/n)^-1 - J/n, of a
    # positive definite matrix, independent of the grounded inverse the
    # package computes
    n = lap.rows
    shifted = Matrix([[x + Fraction(1, n) for x in lap.row(i)] for i in range(n)])
    inverse = shifted.inverse()
    return Matrix([[x - Fraction(1, n) for x in inverse.row(i)] for i in range(n)])


def test_pseudo_inverse_axioms():
    single = Network(Multigraph(["a"], []))
    assert single.pseudo_inverse == Matrix([[0]])
    for net in [single, *random_nets(seed=3, count=12)]:
        lap, lp = net.laplacian, net.pseudo_inverse
        assert lp == rank_one_reference(lap)
        assert product(lap, lp, lap) == lap
        assert product(lp, lap, lp) == lp
        m = lp.numerators
        assert m == tuple(zip(*m))  # symmetric
        assert not any(map(sum, m))  # every row sums to 0


def weighted_grid(rng, k):
    return Multigraph.from_edges(
        (f"x{i}_{j}", f"x{i + di}_{j + dj}", random_lengths(rng, 1)[0])
        for i in range(k)
        for j in range(k)
        for di, dj in ((1, 0), (0, 1))
        if i + di < k and j + dj < k
    )


@pytest.mark.parametrize("k", [3, 5, 7])
def test_pseudo_inverse_matches_rank_one_reference_on_grids(k):
    lap = laplacian(weighted_grid(random.Random(k), k))
    assert pseudo_inverse(lap) == rank_one_reference(lap)


def test_queries_match_pseudo_inverse_entries():
    # r and j straight from the pseudo-inverse's entries, read as Fractions
    small = list(random_nets(seed=12, count=10))
    for net in [*small, Network(weighted_grid(random.Random(77), 7))]:
        lp, vs = net.pseudo_inverse, net.graph.sorted_vertices()
        for i, p in enumerate(vs):
            for j, q in enumerate(vs):
                assert net.resistance(p, q) == lp[i, i] - 2 * lp[i, j] + lp[j, j]
    for net in small:
        lp, vs = net.pseudo_inverse, net.graph.sorted_vertices()
        for a, z in enumerate(vs):
            for b, x in enumerate(vs):
                for c, y in enumerate(vs):
                    expect = lp[a, a] - lp[a, b] - lp[a, c] + lp[b, c]
                    assert net.voltage(z, x, y) == expect


@pytest.mark.parametrize(
    "call",
    [
        lambda g: identified_count(g, ("v1", "zz")),
        lambda g: identified_count(g, ("v1", "v2"), ("zz",)),
        lambda g: identified_count(g, ("v1", "v1"), ("zz", "v2")),
        lambda g: resistnet.float_resistance(g, "v1", "zz"),
        lambda g: resistnet.float_resistance(g, "zz", "v1"),
        lambda g: resistnet.resistance_fd(g, "e1", "v1", "zz"),
    ],
    ids=[
        "identified",
        "singleton-group",
        "after-collapsed-group",
        "float-q",
        "float-p",
        "finite-difference",
    ],
)
def test_unknown_vertex_raises(call):
    with pytest.raises(UnknownVertexError):
        call(cycle_graph(4))


def test_resistance_basics():
    net = Network(cycle_graph(3))
    assert net.resistance("v1", "v1") == 0
    assert net.resistance("v1", "v2") == Fraction(2, 3)


def test_four_terminal_all_ones():
    net = Network(four_terminal(1, 1, 1, 1, 1, 1))
    assert net.resistance("s", "t") == Fraction(1, 2)
    assert net.resistance("p", "q") == Fraction(1, 2)
    assert net.voltage("p", "q", "s") == Fraction(1, 4)
    assert net.voltage("p", "q", "t") == Fraction(1, 4)


def test_four_terminal_closed_forms():
    # the full rational closed forms of the reduced four-vertex network
    rng = random.Random(2024)
    for _ in range(8):
        a, b, c, d, e, f = random_lengths(rng)
        net = Network(four_terminal(a, b, c, d, e, f))
        K = (
            a * b * c + a * b * d + a * c * d + b * c * d
            + a * b * e + a * c * e + b * d * e + c * d * e
            + a * c * f + b * c * f + a * d * f + b * d * f
            + a * e * f + b * e * f + c * e * f + d * e * f
        )
        assert net.resistance("s", "t") == b * (
            a * c * (d + e) + d * e * f + a * (c + d + e) * f + c * e * (d + f)
        ) / K
        assert net.resistance("p", "q") == (
            a * d * (c * e + b * (c + e))
            + d * ((a + b) * c + (a + b + c) * e) * f
        ) / K
        assert net.voltage("p", "q", "s") == d * e * (b * f + a * (b + c + f)) / K
        assert net.voltage("p", "q", "t") == a * d * (b * (c + e) + e * (c + f)) / K
        # shorting p to q: the correction is driven by the voltage gap
        delta = shorting_delta(net, "p", "q", "s", "t")
        assert delta.before - delta.after == delta.correction


def test_voltage_identities_random():
    for net in random_nets(seed=8, count=10):
        vs = net.graph.sorted_vertices()
        rng = random.Random(net.graph.graph_hash())
        for _ in range(12):
            x, y, z = (rng.choice(vs) for _ in range(3))
            r_xy = net.resistance(x, y)
            assert r_xy == net.resistance(y, x)
            assert net.voltage(z, x, y) == net.voltage(z, y, x)
            assert net.voltage(x, y, x) == 0
            assert net.voltage(x, y, y) == r_xy
            assert r_xy == net.voltage(x, y, z) + net.voltage(y, x, z)
            assert 2 * net.voltage(x, y, z) == (
                r_xy + net.resistance(x, z) - net.resistance(y, z)
            )
            j = net.voltage(z, x, y)
            assert 0 <= j <= min(net.resistance(z, x), net.resistance(z, y))
            # triangle inequality follows from nonnegative voltages
            assert net.resistance(x, y) <= net.resistance(x, z) + net.resistance(z, y)


def test_four_point_voltage_differences():
    for net in random_nets(seed=21, count=8):
        vs = net.graph.sorted_vertices()
        rng = random.Random(net.graph.graph_hash())
        for _ in range(10):
            p, q, s, t = (rng.choice(vs) for _ in range(4))
            base = net.voltage(p, q, s) - net.voltage(p, q, t)
            assert base == net.voltage(t, q, s) - net.voltage(t, p, s)
            assert base == net.voltage(s, p, t) - net.voltage(s, q, t)
            assert base == net.voltage(q, p, t) - net.voltage(q, p, s)


def test_homogeneity_in_lengths():
    rng = random.Random(14)
    for net in random_nets(seed=9, count=8):
        c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        scaled = Network(
            Multigraph(
                net.graph.vertices(),
                (
                    ed._replace(length=ed.length * c)
                    for ed in net.graph.edges()
                ),
            )
        )
        vs = net.graph.sorted_vertices()
        for _ in range(6):
            x, y = rng.choice(vs), rng.choice(vs)
            assert scaled.resistance(x, y) == c * net.resistance(x, y)


def test_derivative_examples():
    p2 = Network(Multigraph.from_edges([("a", "b")]))
    assert resistance_derivative(p2, "e1", "a", "b") == 1

    c3 = Network(cycle_graph(3))
    assert resistance_derivative(c3, "e2", "v1", "v1") == 0
    assert resistance_derivative(c3, "e1", "v1", "v2") == Fraction(4, 9)

    p3 = Network(path_graph(3))
    assert resistance_derivative(p3, "e1", "v1", "v3") == 1
    assert resistance_derivative(p3, "e1", "v2", "v3") == 0  # off the path

    loop = Network(Multigraph(["a", "b"], [("e", "a", "b"), ("l", "a", "a")]))
    assert resistance_derivative(loop, "l", "a", "b") == 0


def test_derivative_matches_finite_differences():
    for net in random_nets(seed=17, count=10):
        g = net.graph
        rng = random.Random(g.graph_hash())
        vs = g.sorted_vertices()
        for _ in range(4):
            e = rng.choice(g.edge_ids())
            s, t = rng.choice(vs), rng.choice(vs)
            exact = resistance_derivative(net, e, s, t)
            if g.is_bridge(e):
                assert exact in (0, 1)
                continue
            fd = resistnet.resistance_fd(g, e, s, t)
            assert abs(fd - float(exact)) <= 1e-6 * max(1.0, abs(float(exact)))


def test_numpy_is_never_loaded():
    # the float mirror of the derivative check runs on the same Gauss-Jordan
    # routine as the exact inverse, so no code path needs numpy
    src = str(Path(ohmtree.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys, ohmtree, ohmtree.cli",
        "from ohmtree import Multigraph, resistnet, verify",
        "g = Multigraph.from_edges([('a', 'b', 1), ('b', 'c', 2), ('c', 'a', 3)])",
        "assert abs(resistnet.resistance_fd(g, 'e1', 'a', 'c') - 1 / 4) < 1e-6",
        "spec = verify.GraphGenSpec(seed=1)",
        "result = verify.run_suite(spec, tags=('derivative',), instances=2)",
        "assert result.reports and result.all_passed()",
        "assert 'numpy' not in sys.modules",
    ])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_a_command_loads_only_what_it_runs(tmp_path):
    # the package loads a submodule on the first lookup of one of its names
    src = str(Path(ohmtree.__file__).resolve().parents[1])
    path = tmp_path / "triangle.graph"
    path.write_text("edge e1 a b\nedge e2 b c\nedge e3 c a\n")
    code = "\n".join([
        "import sys, ohmtree",
        "assert set(ohmtree.__all__) <= set(dir(ohmtree))",
        "from ohmtree.cli import main",
        "assert main(sys.argv[1:]) == 0",
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'ohmtree'))",
    ])
    env = {**os.environ, "PYTHONPATH": src}

    def loaded(*argv):
        out = subprocess.run(
            [sys.executable, "-c", code, argv[0], str(path), *argv[1:]],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        return out.splitlines()[-1].split()

    assert loaded("resistance", "a", "b") == [
        "ohmtree", "ohmtree.cli", "ohmtree.exactnum", "ohmtree.graph",
        "ohmtree.reduction", "ohmtree.resistnet",
    ]
    assert "ohmtree.verify" not in loaded("spantree")


# every name the package exported when it imported each submodule eagerly
EXPORTS = {
    "exactnum": ["Matrix", "SingularMatrixError", "rational"],
    "graph": [
        "DisconnectedError", "Edge", "GraphError", "MergedVertex", "Multigraph",
        "PreconditionError", "UnknownEdgeError", "UnknownVertexError",
        "banana_graph", "complete_graph", "cycle_graph", "fan_graph",
        "path_graph", "wheel_graph",
    ],
    "polyseq": [],
    "reduction": ["ReductionTrace", "delta_y", "reduce_two_terminal"],
    "resistnet": [
        "DeltaResult", "EulerTerm", "Network", "contraction_delta",
        "convex_combination_check", "cutting_delta", "edge_modification_delta",
        "euler_decomposition", "euler_decomposition_resistance_only", "laplacian",
        "pseudo_inverse", "resistance_derivative", "shorting_delta",
        "voltage_transfer_contraction", "voltage_transfer_cutting",
        "voltage_transfer_shorting",
    ],
    "spantree": [
        "averaging_contractions", "averaging_deletions", "closed_form",
        "contraction_identity", "count_deletion_contraction", "count_enumeration",
        "count_identified", "count_matrix_tree", "deletion_identity",
        "identification_quadratic", "identified_count", "resistance_from_trees",
        "spanning_tree_euler", "star_augmentation_count", "union_banana_of_paths",
        "union_cut_vertex", "union_cycle_replacement", "union_k_banana",
        "union_three_vertices", "union_two_vertices", "vertex_deletion_count",
        "voltage_from_trees",
    ],
    "verify": ["GraphGenSpec", "IdentityReport", "run_suite"],
}


def test_package_exports_resolve_to_their_home_modules():
    assert sorted(ohmtree.__all__) == sorted(  # the 68 names
        [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    )
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"ohmtree.{home}")
        assert getattr(ohmtree, home) is module
        for name in names:
            assert getattr(ohmtree, name) is getattr(module, name)
            assert vars(ohmtree)[name] is getattr(module, name)  # kept
    assert not hasattr(ohmtree, "no_such_name")


def test_euler_decomposition_examples():
    p2 = Network(Multigraph.from_edges([("a", "b", Fraction(7, 2))]))
    terms = euler_decomposition(p2, "a", "b")
    assert [(t.kind, t.contribution) for t in terms] == [
        ("bridge-on-path", Fraction(7, 2))
    ]

    c3 = Network(cycle_graph(3))
    terms = euler_decomposition(c3, "v1", "v2")
    by_edge = {t.edge: t.contribution for t in terms}
    assert by_edge == {
        "e1": Fraction(4, 9),
        "e2": Fraction(1, 9),
        "e3": Fraction(1, 9),
    }
    assert sum(by_edge.values()) == Fraction(2, 3)

    same = euler_decomposition(c3, "v2", "v2")
    assert all(t.contribution == 0 for t in same)


def test_euler_decomposition_second_form():
    p2 = Network(Multigraph.from_edges([("a", "b", Fraction(5, 3))]))
    (term,) = euler_decomposition_resistance_only(p2, "a", "b")
    assert term.contribution == Fraction(5, 3)

    c3 = Network(cycle_graph(3))
    t1 = euler_decomposition(c3, "v1", "v2")
    t2 = euler_decomposition_resistance_only(c3, "v1", "v2")
    assert [x.contribution for x in t1] == [x.contribution for x in t2]


def test_euler_sums_on_random_networks():
    for net in random_nets(seed=33, count=12):
        vs = net.graph.sorted_vertices()
        rng = random.Random(net.graph.graph_hash())
        for _ in range(4):
            s, t = rng.choice(vs), rng.choice(vs)
            r = net.resistance(s, t)
            total1 = sum(
                (x.contribution for x in euler_decomposition(net, s, t)),
                Fraction(0),
            )
            total2 = sum(
                (
                    x.contribution
                    for x in euler_decomposition_resistance_only(net, s, t)
                ),
                Fraction(0),
            )
            assert total1 == r
            assert total2 == r
            # the two forms agree term by term, bridges included
            assert euler_decomposition(net, s, t) == euler_decomposition_resistance_only(
                net, s, t
            )


def test_shorting_delta_cases():
    # cyclically p, s, q, t: the s/t symmetry kills the correction
    c4 = Multigraph.from_edges(
        [("p", "s"), ("s", "q"), ("q", "t"), ("t", "p")]
    )
    net = Network(c4)
    d = shorting_delta(net, "p", "q", "s", "t")
    assert d.before == 1 and d.correction == 0 and d.after == 1

    allones = Network(four_terminal(1, 1, 1, 1, 1, 1))
    d = shorting_delta(allones, "p", "q", "s", "t")
    assert d.correction == 0 and d.before == d.after

    with pytest.raises(PreconditionError):
        shorting_delta(net, "p", "p", "s", "t")


def test_shorting_delta_random():
    for net in random_nets(seed=51, count=10):
        vs = net.graph.sorted_vertices()
        rng = random.Random(net.graph.graph_hash())
        for _ in range(5):
            p, q, s, t = (rng.choice(vs) for _ in range(4))
            if p == q:
                continue
            d = shorting_delta(net, p, q, s, t)
            assert d.before - d.after == d.correction
            assert d.correction >= 0


def test_cutting_delta():
    c3 = Network(cycle_graph(3))
    d = cutting_delta(c3, "e1", "v1", "v2")
    assert (d.before, d.after, d.correction) == (
        Fraction(2, 3),
        Fraction(2),
        Fraction(4, 3),
    )
    with pytest.raises(PreconditionError):
        cutting_delta(Network(path_graph(3)), "e1", "v1", "v3")
    loopy = Network(Multigraph(["a", "b"], [("e", "a", "b"), ("l", "a", "a")]))
    d = cutting_delta(loopy, "l", "a", "b")
    assert d.correction == 0 and d.before == d.after


def test_cut_graph_data():
    # _cut gives G - e, R_e = r'(p, q) and x -> j'_p(q, x), grounded at p;
    # every law squares or multiplies differences of j', so only this test
    # sees which end is the reference
    for net in random_nets(61, 4):
        for e in net.graph.edge_ids():
            if net.graph.is_bridge(e):
                continue
            p, q = net.graph.endpoints(e)
            cut = Network(net.graph.delete_edge(e))
            deleted, big_r, j = resistnet._cut(net, e)
            assert deleted.graph == cut.graph
            assert big_r == cut.resistance(p, q)
            assert j(p) == 0 and j(q) == big_r
            assert all(j(x) == cut.voltage(p, q, x) for x in cut.graph.vertices())


def test_contraction_delta():
    c3 = Network(cycle_graph(3))
    d = contraction_delta(c3, "e1", "v1", "v2")
    assert (d.before, d.after, d.correction) == (
        Fraction(2, 3),
        Fraction(0),
        Fraction(2, 3),
    )
    p3 = Network(path_graph(3))
    d = contraction_delta(p3, "e1", "v1", "v3")
    assert d.correction == 1 and d.before - d.after == 1
    d = contraction_delta(p3, "e1", "v2", "v3")
    assert d.correction == 0 and d.before == d.after


def test_edge_modification_delta():
    c3 = Network(cycle_graph(3))
    d = edge_modification_delta(c3, "e1", 1, "v1", "v2")
    assert d.correction == 0 and d.before == d.after
    d = edge_modification_delta(c3, "e1", 2, "v1", "v2")
    assert d.before - d.after == d.correction
    assert d.after == 1  # new edge of 2 in parallel with the 1+1 path
    p3 = Network(path_graph(3))
    d = edge_modification_delta(p3, "e1", Fraction(1, 3), "v1", "v3")
    assert d.correction == Fraction(2, 3)
    d = edge_modification_delta(p3, "e1", Fraction(1, 3), "v2", "v3")
    assert d.correction == 0
    with pytest.raises(PreconditionError):
        edge_modification_delta(c3, "e1", 0, "v1", "v2")


def test_edge_modification_random():
    rng = random.Random(6)
    for net in random_nets(seed=61, count=8):
        vs = net.graph.sorted_vertices()
        for _ in range(4):
            e = rng.choice(net.graph.edge_ids())
            s, t = rng.choice(vs), rng.choice(vs)
            new_len = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            d = edge_modification_delta(net, e, new_len, s, t)
            assert d.before - d.after == d.correction


def test_convex_combination():
    c3 = Network(cycle_graph(3))
    for e in c3.graph.edge_ids():
        for s in c3.graph.sorted_vertices():
            for t in c3.graph.sorted_vertices():
                assert convex_combination_check(c3, e, s, t) == 0
    k4 = Network(complete_graph(4))
    assert convex_combination_check(k4, "e1", "v3", "v4") == 0
    assert convex_combination_check(k4, "e1", "v3", "v3") == 0
    with pytest.raises(PreconditionError):
        convex_combination_check(Network(path_graph(3)), "e1", "v1", "v3")


def test_voltage_transfers_on_complete_graph():
    net = Network(complete_graph(4))
    vs = net.graph.sorted_vertices()
    rng = random.Random(1)
    for _ in range(12):
        u, s, t = (rng.choice(vs) for _ in range(3))
        p, q = rng.sample(vs, 2)
        e = rng.choice(net.graph.edge_ids())
        assert voltage_transfer_shorting(net, p, q, u, s, t) == 0
        assert voltage_transfer_cutting(net, e, u, s, t) == 0
        assert voltage_transfer_contraction(net, e, u, s, t) == 0


def test_voltage_transfer_special_points():
    # u = p gives the product form, t = p the difference form
    for net in random_nets(seed=71, count=6):
        vs = net.graph.sorted_vertices()
        rng = random.Random(net.graph.graph_hash())
        for _ in range(6):
            p, q = rng.sample(vs, 2)
            s, t, u = (rng.choice(vs) for _ in range(3))
            assert voltage_transfer_shorting(net, p, q, p, s, t) == 0
            assert voltage_transfer_shorting(net, p, q, u, s, p) == 0
            shorted, ren = net.shorted(p, q)
            expect = shorted.voltage(ren[p], ren[t], ren[s]) + (
                net.voltage(p, q, t) * net.voltage(p, q, s) / net.resistance(p, q)
            )
            assert net.voltage(p, t, s) == expect


def test_voltage_transfer_loop_contraction():
    loopy = Network(
        Multigraph(
            ["a", "b", "c"],
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"), ("l", "b", "b")],
        )
    )
    assert voltage_transfer_contraction(loopy, "l", "a", "b", "c") == 0


def test_network_requires_connected():
    with pytest.raises(DisconnectedError):
        Network(Multigraph(["a", "b"], []))


@pytest.mark.parametrize(
    "call",
    [
        lambda g: resistnet.float_resistance(g, "a", "c"),
        lambda g: resistnet.float_resistance(g, "a", "b"),
        lambda g: resistnet.resistance_fd(g, "e1", "a", "c"),
    ],
    ids=["float-across", "float-within", "finite-difference"],
)
def test_float_mirror_requires_connected(call):
    # the float mirror reports a disconnected graph like the exact path does,
    # not as a singular elimination
    with pytest.raises(DisconnectedError):
        call(Multigraph.from_edges([("a", "b"), ("c", "d")]))
