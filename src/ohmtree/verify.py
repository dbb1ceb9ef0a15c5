"""Random instances and the master identity suite.

Every law exposed by :mod:`resistnet` and :mod:`spantree` is registered here
under a short tag and evaluated as an exact residual on seeded random
multigraphs.  A report line carries the tag, a stable hash of the instance,
the sampled vertex/edge selection, the residual as an exact fraction, and a
pass flag.  Exact tags pass only on a residual of literal zero; the single
floating tag (the finite-difference derivative cross-check) uses a relative
tolerance of 1e-6.

Nineteen tags are one ``REGISTRY`` row built by :func:`_law`: the selection
to draw, the graph to check on and the residual; ``vertex-del`` and
``star-aug`` draw their own selections (see :func:`_law`).  A requested tag
that gets no check at all fails the run.

Selections are sampled with replacement on purpose: coincident query points
exercise the degenerate conventions (zero resistance at equal points, zero
count for an identification of a vertex with itself).  A residual of
``None`` marks a selection that violates a hypothesis (a bridge where a
non-bridge is required, equal vertices where distinct ones are needed): it
is counted as skipped, never silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from itertools import count as _counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import resistnet, spantree
from .exactnum import remembering
from .graph import Multigraph, path_graph
from .resistnet import Network

DERIVATIVE_REL_TOL = 1e-6


@dataclass(frozen=True)
class GraphGenSpec:
    """Shape of the random instances; generation is deterministic per seed."""

    n_min: int = 3
    n_max: int = 6
    m_min: int = 3
    m_max: int = 10
    parallel_prob: float = 0.25
    loop_prob: float = 0.15
    lengths: str = "small"  # "unit" | "small"
    seed: int = 0

    def __post_init__(self):
        if self.n_min < 2 or self.n_max < self.n_min:
            raise ValueError("vertex range must satisfy 2 <= n_min <= n_max")
        if self.m_max < self.n_min - 1:
            raise ValueError("edge range cannot even hold a spanning tree")
        if self.lengths not in ("unit", "small"):
            raise ValueError("lengths must be 'unit' or 'small'")


@dataclass(frozen=True)
class IdentityReport:
    tag: str
    graph_hash: str
    selection: str
    residual: Fraction
    passed: bool

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"{self.tag} {self.graph_hash} {self.selection} {self.residual} {flag}"


class SuiteResult(NamedTuple):
    reports: List[IdentityReport]
    skipped: Dict[str, int]  # one entry per requested tag

    @property
    def unchecked_tags(self) -> List[str]:
        """Requested tags that produced no check at all."""
        checked = {r.tag for r in self.reports}
        return [t for t in self.skipped if t not in checked]

    def all_passed(self) -> bool:
        """Every report passed and every requested tag was checked."""
        return not self.unchecked_tags and all(r.passed for r in self.reports)


def _random_connected(rng: random.Random, spec: GraphGenSpec) -> Multigraph:
    n = rng.randint(spec.n_min, spec.n_max)
    lo = max(spec.m_min, n - 1)
    m = rng.randint(lo, max(spec.m_max, lo))
    vs = [f"v{i}" for i in range(1, n + 1)]
    pairs: List[Tuple[str, str]] = []
    for i in range(1, n):
        pairs.append((vs[i], vs[rng.randrange(i)]))
    while len(pairs) < m:
        roll = rng.random()
        if roll < spec.loop_prob:
            v = rng.choice(vs)
            pairs.append((v, v))
        elif roll < spec.loop_prob + spec.parallel_prob:
            u, v = rng.choice(pairs)
            pairs.append((u, v))
        else:
            u, v = rng.sample(vs, 2)
            pairs.append((u, v))
    unit = spec.lengths == "unit"
    return Multigraph.from_edges(
        ((u, v, 1 if unit else Fraction(rng.randint(1, 4), rng.randint(1, 4))))
        for u, v in pairs
    )


def generate(spec: GraphGenSpec, index: int = 0) -> Multigraph:
    """The index-th instance of the generation spec; identical on every rerun."""
    return _random_connected(random.Random(f"{spec.seed}:{index}"), spec)


SERIES_PARALLEL_DEPTH = 4


def generate_series_parallel(rng: random.Random) -> Tuple[Multigraph, str, str]:
    """Random two-terminal series-parallel network; returns (graph, s, t).

    Built by recursive series/parallel composition of single edges, so the
    reduction rewrite system always collapses it.
    """
    fresh = _counter(2)

    def build(depth: int) -> List[Tuple[int, int, Fraction]]:
        if depth >= SERIES_PARALLEL_DEPTH or rng.random() < 0.35:
            return [(0, 1, Fraction(rng.randint(1, 4), rng.randint(1, 3)))]
        a = build(depth + 1)
        b = build(depth + 1)
        if rng.random() < 0.5:
            mid = next(fresh)
            swap = {0: 0, 1: mid}
            a = [(swap.get(u, u), swap.get(v, v), L) for u, v, L in a]
            swap = {0: mid, 1: 1}
            b = [(swap.get(u, u), swap.get(v, v), L) for u, v, L in b]
        return a + b

    triples = build(0)
    return (
        Multigraph.from_edges((f"n{u}", f"n{v}", L) for u, v, L in triples),
        "n0",
        "n1",
    )


# -- table-driven laws -------------------------------------------------------


def _selections(rng, pools, samples, exhaustive):
    """One element of each pool per selection: every combination when
    ``exhaustive`` (or of no pools), else ``samples`` draws with replacement."""
    if exhaustive or not pools:
        yield from product(*pools)
    else:
        for _ in range(samples):
            yield tuple(rng.choice(pool) for pool in pools)


Check = Tuple[str, Fraction, Optional[bool]]
Evaluator = Callable[[Multigraph, random.Random, int, bool], Tuple[List[Check], int]]


def _law(names: str, residual, unit=False) -> Evaluator:
    """Evaluator that checks one law on every selection.

    ``names`` labels the selection, e.g. ``"p q s t"``; an ``e`` draws an
    edge, every other name a vertex, and ``""`` makes one empty selection.
    The law is checked on the graph, or on its unit-length copy with
    ``unit``, wrapped in a :class:`Network` that inverts only when a query
    asks.  ``residual(net, rng, *selection)`` returns the residual, or a
    list of checks that carry their own labels.  ``None`` as the residual
    skips the selection, ``None`` in the list one part of it; each counts
    as skipped.  ``vertex-del`` (a prefix of the removable vertices) and
    ``star-aug`` (``max(1, samples // 2)`` draws, also when exhaustive) do
    not draw like :func:`_selections`, so they keep their own evaluators.
    """
    keys = names.split()
    label = ",".join(f"{k}={{}}" for k in keys)

    def evaluate(graph, rng, samples, exhaustive):
        g = graph.with_unit_lengths() if unit else graph
        net = Network(g)
        verts = g.sorted_vertices()
        pools = [g.edge_ids() if k == "e" else verts for k in keys]
        checks: List[Optional[Check]] = []
        for sel in _selections(rng, pools, samples, exhaustive):
            r = residual(net, rng, *sel)
            if not isinstance(r, list):
                r = [None if r is None else (label.format(*sel), r, None)]
            checks += r
        return [c for c in checks if c is not None], checks.count(None)

    return evaluate


def _drop(d: resistnet.DeltaResult) -> Fraction:
    """Residual of a law stating before - after == correction."""
    return d.before - d.after - d.correction


def _magic(net, rng, p, q, s, t):
    base = net.voltage(p, q, s) - net.voltage(p, q, t)
    alts = (
        net.voltage(t, q, s) - net.voltage(t, p, s),
        net.voltage(s, p, t) - net.voltage(s, q, t),
        net.voltage(q, p, t) - net.voltage(q, p, s),
    )
    return sum(abs(base - a) for a in alts)


def _cutting(net, rng, e, s, t):
    if net.graph.is_bridge(e):
        return None
    d = resistnet.cutting_delta(net, e, s, t)
    return d.after - d.before - d.correction


def _monotonic2(net, rng, e, s, t):
    new_len = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    d = resistnet.edge_modification_delta(net, e, new_len, s, t)
    return [(f"e={e},len={new_len},s={s},t={t}", _drop(d), None)]


def _euler(split):
    """Residual of an Euler split: r(s, t) minus the sum of its terms."""

    def residual(net, rng, s, t):
        total = sum((x.contribution for x in split(net, s, t)), Fraction(0))
        return net.resistance(s, t) - total

    return residual


def _derivative(net, rng, e, s, t):
    exact = resistnet.resistance_derivative(net, e, s, t)
    if net.graph.is_bridge(e):
        # bridge clause: the derivative is exactly one or zero
        ok = exact in (0, 1)
        return [(f"bridge:e={e},s={s},t={t}", Fraction(0 if ok else 1), ok)]
    residual = Fraction(resistnet.resistance_fd(net.graph, e, s, t)) - exact
    tol = DERIVATIVE_REL_TOL * max(1.0, abs(float(exact)))
    return [(f"e={e},s={s},t={t}", residual, abs(float(residual)) <= tol)]


def _span_euler(net, rng, s, t):
    uniform, bridged = spantree.spanning_tree_euler(net.graph, s, t)
    return [
        (f"uniform:s={s},t={t}", uniform, None),
        (f"bridges:s={s},t={t}", bridged, None),
    ]


def _vol_transfer(net, rng, e, u, s, t):
    out: List[Optional[Check]] = [None]
    if not net.graph.is_bridge(e):
        out = [
            (f"{tag}:e={e},u={u},s={s},t={t}", law(net, e, u, s, t), None)
            for tag, law in (
                ("cut", resistnet.voltage_transfer_cutting),
                ("contract", resistnet.voltage_transfer_contraction),
            )
        ]
    p, q = rng.sample(net.graph.sorted_vertices(), 2)
    # the general placement, then the two degenerate ones: u = p, t = p
    return out + [
        (
            f"short:p={p},q={q},u={uu},s={s},t={tt}",
            resistnet.voltage_transfer_shorting(net, p, q, uu, s, tt),
            None,
        )
        for uu, tt in ((u, t), (p, t), (u, p))
    ]


def _foster(net, rng):
    g = net.graph
    total = sum((net.resistance(ed.u, ed.v) for ed in g.edges()), Fraction(0))
    return [("all-edges", total - (g.n - 1), None)]


def _averaging(net, rng):
    g = net.graph
    out = [("contractions", spantree.averaging_contractions(g), None)]
    if g.bridges():
        return out + [None]
    return out + [("deletions", spantree.averaging_deletions(g), None)]


# parts for the union laws (n range, m range, parallel, loop, lengths)
_SMALL_PART = GraphGenSpec(3, 4, 3, 6, 0.2, 0.0, "unit")
_BIG_PART = GraphGenSpec(4, 5, 5, 7, 0.2, 0.0, "unit")


def _small_part(rng) -> Multigraph:
    return _random_connected(rng, _SMALL_PART)


def _terminals(rng, parts, k):
    """Each part as ``(graph, *terminals)`` with k distinct terminals drawn
    per part, after every part has been drawn."""
    return [(g, *rng.sample(g.sorted_vertices(), k)) for g in parts]


def _counts(parts):
    """Per part: t(G), and t(G) with the part's terminals identified."""
    return (
        [spantree.count_matrix_tree(g) for g, *_ in parts],
        [spantree.identified_count(g, ts) for g, *ts in parts],
    )


def _unions(net, rng):
    tcount = spantree.count_matrix_tree
    out: List[Check] = []

    def check(label, glued, formula):
        out.append((label, Fraction(tcount(glued) - formula), None))

    # one shared vertex: product rule
    (g1, x1), (g2, x2) = _terminals(rng, [_small_part(rng), _small_part(rng)], 1)
    glued = spantree.union_at(g1, [x1], g2, [x2])
    check("cut-vertex", glued, spantree.union_cut_vertex([tcount(g1), tcount(g2)]))

    # two shared vertices: bilinear rule
    pair = _terminals(rng, [_small_part(rng), _small_part(rng)], 2)
    (g1, p1, q1), (g2, p2, q2) = pair
    (t1, t2), (t1pq, t2pq) = _counts(pair)
    glued = spantree.union_at(g1, [p1, q1], g2, [p2, q2])
    check("two-vertex", glued, spantree.union_two_vertices(t1, t1pq, t2, t2pq))

    # path glued across two vertices of the same g1, counted afresh: a
    # k-edge path has 1 tree, and k once its ends are identified
    k = rng.randint(2, 4)
    glued = spantree.union_at(g1, [p1, q1], path_graph(k + 1), ["v1", f"v{k + 1}"])
    (t1,), (t1pq,) = _counts(pair[:1])
    check("path-attach", glued, spantree.union_two_vertices(t1, t1pq, 1, k))

    # k parts sharing the same two vertices, then a ring of parts
    for label, glue, law in (
        ("k-banana", spantree.banana_of, spantree.union_k_banana),
        (
            "cycle-replace",
            partial(spantree.chain_of, close=True),
            spantree.union_cycle_replacement,
        ),
    ):
        parts = _terminals(rng, [_small_part(rng) for _ in range(rng.randint(2, 3))], 2)
        check(label, glue(parts), law(*_counts(parts)))

    # banana of path-replaced branches
    branches, counts = [], []
    for _ in range(2):
        segs = _terminals(rng, [_small_part(rng) for _ in range(rng.randint(1, 2))], 2)
        branches.append((spantree.chain_of(segs), ("hub", 0), ("hub", len(segs))))
        counts.append(list(zip(*_counts(segs))))
    formula = spantree.union_banana_of_paths(counts)
    check("banana-of-paths", spantree.banana_of(branches), formula)

    # three shared vertices
    big = [_random_connected(rng, _BIG_PART) for _ in range(2)]
    triple = _terminals(rng, big, 3)
    (g1, p1, q1, s1), (g2, p2, q2, s2) = triple
    (t1, t2), (t1pqs, t2pqs) = _counts(triple)
    pairwise = [
        spantree.identified_count(g, ab)
        for g, p, q, s in triple
        for ab in ((p, s), (p, q), (q, s))
    ]
    glued = spantree.union_at(g1, [p1, q1, s1], g2, [p2, q2, s2])
    formula = spantree.union_three_vertices(t1, t2, *pairwise, t1pqs, t2pqs)
    check("three-vertex", glued, formula)
    return out


# -- evaluators with their own selection -------------------------------------


def _eval_vertex_del(graph, rng, samples, exhaustive):
    unit = graph.with_unit_lengths()
    t_direct = spantree.count_matrix_tree(unit)
    out: List[Check] = []
    candidates = spantree.removable_vertices(unit)
    chosen = candidates if exhaustive else candidates[: max(1, samples // 2)]
    for u in chosen:
        total = spantree.vertex_deletion_count(unit, u)
        out.append((f"u={u}", Fraction(t_direct - total), None))
        neighbors = unit.neighbors_with_multiplicity(u)
        h = unit.delete_vertex(u)
        special = sum(a for _, a in neighbors) * spantree.count_matrix_tree(h)
        if 2 <= len(neighbors) <= 4:
            for sub, coeff in spantree._subsets(neighbors, 2):
                special += coeff * spantree.identified_count(h, sub)
            label = ("two", "three", "four")[len(neighbors) - 2]
            out.append((f"{label}-neighbor:u={u}", Fraction(t_direct - special), None))
    return out, 0


def _eval_star_aug(graph, rng, samples, exhaustive):
    unit = graph.with_unit_lengths()
    verts = unit.sorted_vertices()
    out: List[Check] = []
    for _ in range(max(1, samples // 2)):
        anchor = rng.choice(verts)
        others = [v for v in verts if v != anchor]
        rng.shuffle(others)
        targets = [(v, rng.randint(1, 3)) for v in others[: rng.randint(1, min(3, len(others)))]]
        formula = spantree.star_augmentation_count(unit, anchor, targets)
        built = spantree.add_star_edges(unit, anchor, targets)
        direct = spantree.count_matrix_tree(built)
        sel = f"anchor={anchor},targets=" + ";".join(f"{v}x{a}" for v, a in targets)
        out.append((sel, Fraction(formula - direct), None))
    return out, 0


REGISTRY: Dict[str, Evaluator] = {
    "magic": _law("p q s t", _magic),
    "shorting": _law(
        "p q s t",
        lambda net, rng, p, q, s, t: None
        if p == q
        else _drop(resistnet.shorting_delta(net, p, q, s, t)),
    ),
    "cutting": _law("e s t", _cutting),
    "monotonic1": _law(
        "e s t", lambda net, rng, *sel: _drop(resistnet.contraction_delta(net, *sel))
    ),
    "monotonic2": _law("e s t", _monotonic2),
    "convex": _law(
        "e s t",
        lambda net, rng, e, s, t: None
        if net.graph.is_bridge(e)
        else resistnet.convex_combination_check(net, e, s, t),
    ),
    "vol-transfer": _law("e u s t", _vol_transfer),
    "euler1": _law("s t", _euler(resistnet.euler_decomposition)),
    "euler2": _law("s t", _euler(resistnet.euler_decomposition_resistance_only)),
    "foster": _law("", _foster, unit=True),
    "derivative": _law("e s t", _derivative),
    "tree-resistance": _law(
        "p q",
        lambda net, rng, p, q: net.resistance(p, q)
        - spantree.resistance_from_trees(net.graph, p, q),
        unit=True,
    ),
    "tree-voltage": _law(
        "p q s",
        lambda net, rng, p, q, s: net.voltage(p, q, s)
        - spantree.voltage_from_trees(net.graph, p, q, s),
        unit=True,
    ),
    "averaging": _law("", _averaging, unit=True),
    "quadratic": _law(
        "p q s t",
        lambda net, rng, *sel: spantree.identification_quadratic(net.graph, *sel),
        unit=True,
    ),
    "contract-id": _law(
        "e s t",
        lambda net, rng, *sel: spantree.contraction_identity(net.graph, *sel),
        unit=True,
    ),
    "delete-id": _law(
        "e s t",
        lambda net, rng, *sel: spantree.deletion_identity(net.graph, *sel),
        unit=True,
    ),
    "span-euler": _law("s t", _span_euler, unit=True),
    "vertex-del": _eval_vertex_del,
    "star-aug": _eval_star_aug,
    "unions": _law("", _unions),
}

ALL_TAGS = tuple(sorted(REGISTRY))


def run_suite(
    spec: GraphGenSpec,
    tags: Iterable[str] = ALL_TAGS,
    instances: int = 20,
    samples: int = 6,
    exhaustive: bool = False,
) -> SuiteResult:
    """Evaluate the tagged identities on ``instances`` seeded random graphs.

    ``samples`` caps the vertex/edge selections per instance and tag;
    ``exhaustive`` enumerates every selection instead (sensible only for
    graphs of at most five vertices).  Reports come back in deterministic
    order; ``skipped`` counts selections filtered by a hypothesis.  A
    requested tag that ends up with no check at all is listed in
    ``unchecked_tags`` and makes ``all_passed()`` false.  A negative
    ``instances`` or ``samples`` raises ``ValueError``.  Each instance runs
    inside :func:`exactnum.remembering`, so each answer that
    :func:`exactnum.remember` keeps is computed once per instance.
    """
    if instances < 0 or samples < 0:
        raise ValueError(f"instances and samples must be >= 0, got {instances}, {samples}")
    tag_list = list(tags)
    unknown = [t for t in tag_list if t not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown identity tags: {unknown}")
    reports: List[IdentityReport] = []
    skipped: Dict[str, int] = {t: 0 for t in tag_list}
    for index in range(instances):
        g = generate(spec, index)
        h = g.graph_hash()
        with remembering():
            for tag in tag_list:
                rng = random.Random(f"{spec.seed}:{index}:{tag}")
                checks, skip = REGISTRY[tag](g, rng, samples, exhaustive)
                skipped[tag] += skip
                for selection, residual, passed in checks:
                    if passed is None:
                        passed = residual == 0
                    reports.append(
                        IdentityReport(tag, h, selection, Fraction(residual), passed)
                    )
    return SuiteResult(reports, skipped)
