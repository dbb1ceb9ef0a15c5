"""Spanning-tree counting and the identification / composition identities.

Counting methods (all exact, edge lengths ignored, self-loops ignored):

* matrix-tree cofactor with fraction-free determinant,
* deletion-contraction recursion,
* brute-force subset enumeration (the oracle, budget-guarded),
* expansion over the neighborhood of a deleted vertex (budget-guarded).

On top of those sit the composite-graph product/sum formulas for graphs glued
at one, two, or three vertices, the quadratic identification identities, the
edge-deletion/contraction identities, and the per-edge square-sum expansion
of identified counts.

Conventions used by every formula evaluator: a graph with a single vertex
has exactly one spanning tree, and an "identification" of a vertex with
itself counts as zero.  The zero convention lives here, in the evaluators,
not in :meth:`Multigraph.identify` (where a singleton group is a no-op).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import prod
from typing import Dict, Iterable, List, Sequence, Tuple

from .exactnum import Matrix, remember
from .graph import (
    DisconnectedError,
    EdgeId,
    GraphError,
    Multigraph,
    PreconditionError,
    VertexId,
    _first_free,
)
from .polyseq import morgan_voyce, w_poly


def count_matrix_tree(graph: Multigraph) -> int:
    """Number of spanning trees via a cofactor of the integer Laplacian.

    Parallel edges count with multiplicity; disconnected graphs give 0; a
    single-vertex graph gives 1.
    """
    if graph.n == 0:
        raise GraphError("graph has no vertices")
    return int(remember(("cofactor", graph), lambda: _unit_cofactor(graph)).det())


def _unit_cofactor(graph: Multigraph) -> Matrix:
    """The unit Laplacian without its first row and column."""
    rows = graph.laplacian_rows(lambda e: 1)
    return Matrix.from_integer_rows([row[1:] for row in rows[1:]], 1)


DC_NODE_BUDGET = 100_000
ENUM_EDGE_BUDGET = 20
VERTEX_DEL_SUBSET_BUDGET = 20_000


def _without_loops(g: Multigraph) -> Multigraph:
    loops = [e.id for e in g.edges() if e.is_loop()]
    return g.delete_edges(loops) if loops else g


def count_deletion_contraction(graph: Multigraph) -> int:
    """Number of spanning trees by deletion-contraction recursion.

    Self-loops are stripped and bridges contracted first (a bridge sits in
    every spanning tree), then the recursion branches on an edge at a
    maximum-degree vertex.  Only a deletion can create a bridge, so only the
    root and the deletion branch are searched for one.  Connectivity is
    checked once, at the root: a disconnected graph has no spanning tree, and
    the recursion deletes only non-bridges.  Nothing is memoized, not even
    by ``contract_edge``: a count keeps none of its graphs.  On a connected
    graph the recursion visits 2 t(G) - 1 nodes, and it raises
    :class:`PreconditionError` past ``DC_NODE_BUDGET`` of them.
    """
    if graph.n == 0:
        raise GraphError("graph has no vertices")
    if not graph.is_connected():
        return 0
    total, nodes, pending = 0, 0, [(graph, True)]
    while pending:
        nodes += 1
        if nodes > DC_NODE_BUDGET:
            raise PreconditionError(
                f"deletion-contraction budget exceeded: > {DC_NODE_BUDGET} nodes"
            )
        g, may_bridge = pending.pop()
        g = _without_loops(g)
        while may_bridge and (
            bridge := next((e for e in g.edge_ids() if g.is_bridge(e)), None)
        ) is not None:
            g = _without_loops(g.contract_edge(bridge)[0])
        if g.m == 0:
            total += 1  # connected without edges: a single vertex
            continue
        busiest = max(g.sorted_vertices(), key=lambda v: (g.degree(v), g.position(v)))
        e = g.incident(busiest)[0]  # incidence lists are in sorted id order
        pending += [(g.delete_edge(e), True), (g.contract_edge(e)[0], False)]
    return total


def count_enumeration(graph: Multigraph) -> int:
    """Brute-force oracle: count (n-1)-subsets of non-loop edges that span;
    raises :class:`PreconditionError` past ``ENUM_EDGE_BUDGET`` of them."""
    if graph.n == 0:
        raise GraphError("graph has no vertices")
    edges = [e for e in graph.edges() if not e.is_loop()]
    if len(edges) > ENUM_EDGE_BUDGET:
        raise PreconditionError(
            f"enumeration budget exceeded: {len(edges)} > {ENUM_EDGE_BUDGET} edges"
        )
    parent: List[int] = []

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    trees = 0
    ends = [(graph.position(e.u), graph.position(e.v)) for e in edges]
    for subset in combinations(ends, graph.n - 1):
        parent[:] = range(graph.n)
        for u, v in subset:
            ra, rb = find(u), find(v)
            if ra == rb:
                break
            parent[ra] = rb
        else:
            trees += 1
    return trees


def count_identified(graph: Multigraph, partition) -> int:
    """Spanning trees of the graph with the partition's groups identified."""
    g, _ = graph.identify(partition)
    return count_matrix_tree(g)


def identified_count(graph: Multigraph, *groups: Sequence[VertexId]) -> int:
    """Formula-level identified count t(G_{group, group, ...}).

    Groups are applied left to right.  A group whose members have already
    merged to a single point (including a group that lists one vertex twice)
    makes the whole count zero: it stands for an identification of a vertex
    with itself, which the formulas count as zero because the matching
    resistance factor vanishes.  Groups overlapping in a vertex merge
    transitively, as identification of the underlying points would, so the
    groups fold into disjoint blocks that are identified at once.  Every
    member of every group is checked first: an unknown one raises."""
    groups = [tuple(group) for group in groups]
    for v in (v for group in groups for v in group):
        graph.position(v)
    blocks: List[set] = []
    for members in groups:
        if len(members) < 2:
            continue  # singleton group is a no-op
        block = set(members)
        if len(block) < 2 or any(block <= b for b in blocks):
            return 0
        touched = [b for b in blocks if b & block]
        blocks = [b for b in blocks if b not in touched] + [block.union(*touched)]
    return count_matrix_tree(graph.identify(blocks)[0])


def contracted_count(graph: Multigraph, e: EdgeId) -> int:
    """t of the graph with edge e contracted: G - e with e's ends identified,
    so a self-loop counts as zero by the identified-count convention."""
    return identified_count(graph.delete_edge(e), graph.endpoints(e))


def resistance_from_trees(graph: Multigraph, p: VertexId, q: VertexId) -> Fraction:
    """r(p, q) = t(G with p, q identified) / t(G) on unit-length graphs."""
    _require_unit(graph)
    return Fraction(identified_count(graph, (p, q)), count_matrix_tree(graph))


def voltage_from_trees(
    graph: Multigraph, p: VertexId, q: VertexId, s: VertexId
) -> Fraction:
    """j_p(q, s) = (t(G_pq) + t(G_ps) - t(G_qs)) / (2 t(G)) on unit lengths."""
    _require_unit(graph)
    num = (
        identified_count(graph, (p, q))
        + identified_count(graph, (p, s))
        - identified_count(graph, (q, s))
    )
    return Fraction(num, 2 * count_matrix_tree(graph))


def _require_unit(graph: Multigraph) -> None:
    if not graph.has_unit_lengths():
        raise PreconditionError("tree-count formulas need unit edge lengths")


def averaging_contractions(graph: Multigraph) -> int:
    """Residual of contraction averaging: (n - 1) t(G) equals the sum over
    edges of the contracted counts; must be 0."""
    if not graph.is_connected():
        raise DisconnectedError("graph must be connected")
    t = count_matrix_tree(graph)
    total = sum(contracted_count(graph, e) for e in graph.edge_ids())
    return (graph.n - 1) * t - total


def averaging_deletions(graph: Multigraph) -> int:
    """Residual of deletion averaging on bridgeless graphs: g t(G) equals the
    sum over edges of t(G - e); must be 0."""
    if not graph.is_connected():
        raise DisconnectedError("graph must be connected")
    if graph.bridges():
        raise PreconditionError("deletion averaging needs a bridgeless graph")
    t = count_matrix_tree(graph)
    total = sum(
        count_matrix_tree(graph.delete_edge(e)) for e in graph.edge_ids()
    )
    return graph.genus() * t - total


# -- composition formulas (pure integer arithmetic) -------------------------


def union_cut_vertex(t_parts: Sequence[int]) -> int:
    """Trees of a graph whose parts share a single cut vertex: the product."""
    parts = list(t_parts)
    if not parts:
        raise GraphError("need at least one part")
    return prod(parts)


def union_two_vertices(t1: int, t1pq: int, t2: int, t2pq: int) -> int:
    """Trees of two graphs glued along two vertices p, q:
    t1 * t2pq + t2 * t1pq."""
    return t1 * t2pq + t2 * t1pq


def union_k_banana(t_list: Sequence[int], tpq_list: Sequence[int]) -> int:
    """k graphs glued along the same two vertices:
    sum_i t_i * prod_{j != i} tpq_j (denominators cleared, all integer)."""
    ts, tpqs = list(t_list), list(tpq_list)
    if len(ts) != len(tpqs) or not ts:
        raise GraphError("need matching nonempty count lists")
    if any(t <= 0 for t in tpqs):
        raise GraphError("counts in the products must be positive")
    return sum(
        t * prod(tpq for j, tpq in enumerate(tpqs) if j != i)
        for i, t in enumerate(ts)
    )


def union_cycle_replacement(t_list: Sequence[int], t_st_list: Sequence[int]) -> int:
    """Cycle of parts, edge i replaced by a graph with terminal pair (s_i, t_i):
    sum_i t_st_i * prod_{j != i} t_j.  That is a banana with the roles of
    t and t_st swapped: the part counts are the ones that must be positive."""
    return union_k_banana(t_st_list, t_list)


def union_banana_of_paths(part_counts: Sequence[Sequence[Tuple[int, int]]]) -> int:
    """Banana of path-replaced branches.

    ``part_counts[i]`` lists, per segment j of branch i, the pair
    (t(G_ij), t(G_ij with its two terminals identified)).  Each branch is a
    chain of the segments; the branches are glued in parallel between two
    hubs.  A branch counts prod_j t(G_ij) trees, and with its hubs
    identified it is a ring of its segments.
    """
    if not part_counts:
        raise GraphError("need at least one branch")
    branch_t, branch_tpq = [], []
    for segments in part_counts:
        ts = [t for t, _ in segments]
        branch_tpq.append(union_cycle_replacement(ts, [tst for _, tst in segments]))
        branch_t.append(prod(ts))
    return union_k_banana(branch_t, branch_tpq)


def union_three_vertices(
    t1: int,
    t2: int,
    a1: int,
    b1: int,
    c1: int,
    a2: int,
    b2: int,
    c2: int,
    t1pqs: int,
    t2pqs: int,
) -> int:
    """Trees of two graphs glued along three vertices p, q, s.

    a_i, b_i, c_i are the counts of part i with the pairs (p,s), (p,q), (q,s)
    identified.  The cross term is halved; the bracket is even whenever the
    inputs come from actual graphs, and this is asserted.
    """
    bracket = (
        a1 * (-a2 + b2 + c2) + b1 * (a2 - b2 + c2) + c1 * (a2 + b2 - c2)
    )
    if bracket % 2:
        raise GraphError("odd cross term: inconsistent part counts")
    return t1 * t2pqs + t2 * t1pqs + bracket // 2


# -- vertex deletion --------------------------------------------------------


def removable_vertices(graph: Multigraph) -> list:
    """Non-cut vertices, in sorted order: those whose deletion leaves the
    graph connected.  A graph with fewer than two vertices has none."""
    if graph.n < 2:
        return []
    return [
        u for u in graph.sorted_vertices() if graph.delete_vertex(u).is_connected()
    ]


def _subsets(weighted: Sequence[Tuple[VertexId, int]], smallest: int):
    """Each subset of the (vertex, weight) pairs with at least ``smallest``
    members, by size and then in order, as (vertices, product of weights)."""
    for size in range(smallest, len(weighted) + 1):
        for subset in combinations(weighted, size):
            yield tuple(v for v, _ in subset), prod(a for _, a in subset)


def vertex_deletion_count(graph: Multigraph, u: VertexId) -> int:
    """Expand t(G) over the deletion of a non-cut vertex u:

        t(G) = (sum a_i) t(H) + sum over subsets S of N(u), |S| >= 2,
               of (prod of the a_i in S) t(H with S identified),

    where H = G - u and a_i is the number of parallel edges from u to its
    i-th neighbor.  Returns the total; raises
    :class:`PreconditionError` past ``VERTEX_DEL_SUBSET_BUDGET`` subsets.
    """
    graph.position(u)
    if graph.n < 2:
        raise PreconditionError("vertex deletion needs at least two vertices")
    h = graph.delete_vertex(u)
    if not h.is_connected():
        raise PreconditionError(f"{u!r} is a cut vertex")
    neighbors = graph.neighbors_with_multiplicity(u)
    subsets = 2 ** len(neighbors) - len(neighbors) - 1
    if subsets > VERTEX_DEL_SUBSET_BUDGET:
        raise PreconditionError(
            f"vertex-del budget exceeded: {subsets} > {VERTEX_DEL_SUBSET_BUDGET} subsets"
        )
    total = sum(a for _, a in neighbors) * count_matrix_tree(h)
    for vs, coeff in _subsets(neighbors, 2):
        total += coeff * identified_count(h, vs)
    return total


def star_augmentation_count(
    graph: Multigraph, anchor: VertexId, targets: Sequence[Tuple[VertexId, int]]
) -> int:
    """Trees of the graph after adding a_i parallel edges from the anchor to
    each target vertex, computed by the subset expansion

        t(H) + sum over nonempty target subsets T of
               (prod of the a_i in T) t(H with T + anchor identified).
    """
    graph.position(anchor)
    tgt = list(targets)
    seen = {anchor}
    for v, a in tgt:
        graph.position(v)
        if v in seen:
            raise GraphError("star targets must be distinct, excluding anchor")
        seen.add(v)
        if a < 1:
            raise GraphError("edge multiplicities must be >= 1")
    total = count_matrix_tree(graph)
    for vs, coeff in _subsets(tgt, 1):
        total += coeff * identified_count(graph, vs + (anchor,))
    return total


def add_star_edges(
    graph: Multigraph, anchor: VertexId, targets: Sequence[Tuple[VertexId, int]]
) -> Multigraph:
    """Graph with a_i unit edges added from the anchor to each target."""
    graph.position(anchor)
    taken = set(graph.edge_ids())
    ids = (f"aug{k}" for k in count(1))
    new_edges = list(graph.edges())
    for v, a in targets:
        graph.position(v)
        new_edges += [(_first_free(ids, taken), anchor, v, 1) for _ in range(a)]
    return Multigraph(graph.vertices(), new_edges)


# -- quadratic identification identities ------------------------------------


def _bracket(graph: Multigraph, p, q, s, t) -> int:
    """t(G_ps) - t(G_qs) - t(G_pt) + t(G_qt), which equals
    2 t(G) (j_p(q, s) - j_p(q, t)) on unit lengths."""
    return (
        identified_count(graph, (p, s))
        - identified_count(graph, (q, s))
        - identified_count(graph, (p, t))
        + identified_count(graph, (q, t))
    )


def _quadratic(graph: Multigraph, h: Multigraph, pair, s, t, bracket, sign) -> Fraction:
    """t(G) t(H_{pair,st}) - (4 t(G_st) t(H_pair) + sign bracket^2) / 4, the
    residual of the three quadratic identities: H is G or G - e, and
    ``pair`` the pair identified in H (empty for none)."""
    lhs = count_matrix_tree(graph) * identified_count(h, pair, (s, t))
    rhs = Fraction(
        4 * identified_count(graph, (s, t)) * identified_count(h, pair)
        + sign * bracket * bracket,
        4,
    )
    return lhs - rhs


def identification_quadratic(
    graph: Multigraph, p: VertexId, q: VertexId, s: VertexId, t: VertexId
) -> Fraction:
    """Residual of the two-pair identification identity

        t(G) t(G_{pq,st}) = t(G_st) t(G_pq)
                            - (t(G_ps) - t(G_qs) - t(G_pt) + t(G_qt))^2 / 4,

    exact zero for every vertex choice (coincident points included, via the
    zero convention).  Setting t = p yields the three-point identity."""
    return _quadratic(graph, graph, (p, q), s, t, _bracket(graph, p, q, s, t), -1)


def contraction_identity(
    graph: Multigraph, e: EdgeId, s: VertexId, t: VertexId
) -> Fraction:
    """Residual of the contracted-graph version of the quadratic identity,
    with the contracted edge's endpoints playing the role of the shorted
    pair; must be zero.  Contracting e is identifying its ends in G - e."""
    u, v = graph.endpoints(e)
    bracket = _bracket(graph, u, v, s, t)
    return _quadratic(graph, graph.delete_edge(e), (u, v), s, t, bracket, -1)


def deletion_identity(
    graph: Multigraph, e: EdgeId, s: VertexId, t: VertexId
) -> Fraction:
    """Residual of the deleted-graph version (note the flipped sign on the
    square); holds for bridges as well since both deleted counts vanish."""
    u, v = graph.endpoints(e)
    bracket = _bracket(graph, u, v, s, t)
    return _quadratic(graph, graph.delete_edge(e), (), s, t, bracket, +1)


def spanning_tree_euler(
    graph: Multigraph, s: VertexId, t: VertexId
) -> Tuple[Fraction, Fraction]:
    """Residuals of the per-edge square-sum expansion of t(G_st).

    Uniform form:   4 t(G) t(G_st) = sum over all edges of bracket_e^2.
    Bridge form:    t(G_st) = k t(G) + (sum over non-bridges) / (4 t(G)),
                    k = number of bridges separating s from t.

    bracket_e = t(G_{p_e s}) - t(G_{q_e s}) - t(G_{p_e t}) + t(G_{q_e t}).
    Returns (uniform residual, bridge-form residual); both must be zero."""
    t_g = count_matrix_tree(graph)
    t_st = identified_count(graph, (s, t))
    full_sum = 0
    nonbridge_sum = 0
    k = 0
    for ed in graph.edges():
        sq = _bracket(graph, ed.u, ed.v, s, t) ** 2
        full_sum += sq
        kind = graph.bridge_kind(ed.id, s, t)
        if kind == "non-bridge":
            nonbridge_sum += sq
        elif kind == "bridge-on-path":
            k += 1
    uniform = Fraction(4 * t_g * t_st - full_sum)
    bridge_form = Fraction(4 * t_g * t_st - 4 * t_g * t_g * k - nonbridge_sum)
    return uniform, bridge_form


# -- closed forms ------------------------------------------------------------


def closed_form(family: str, n: int, a: int = 1) -> int:
    """Closed-form spanning-tree counts for the standard families.

    path: 1 (n >= 2 vertices).  cycle: n (n >= 2).  banana: n parallel edges
    (n >= 1).  complete: n^(n-2) (n >= 1).  fan: a * B_{n-1}(a) for a path of
    n vertices plus an apex with a parallel spokes each (n >= 1).  wheel:
    a * W_{n-1}(a), same with a cycle (n >= 1).
    """
    if family in ("path", "cycle") and n < 2:
        raise GraphError(f"{family} needs n >= 2")
    if family in ("banana", "complete", "fan", "wheel") and n < 1:
        raise GraphError(f"{family} needs n >= 1")
    if a < 1:
        raise GraphError("multiplicity a must be >= 1")
    if family == "path":
        return 1
    if family in ("cycle", "banana"):
        return n
    if family == "complete":
        return n ** (n - 2) if n >= 2 else 1
    if family == "fan":
        return a * morgan_voyce(n - 1, a)
    if family == "wheel":
        return a * w_poly(n - 1, a)
    raise GraphError(f"unknown family {family!r}")


# -- composite-graph builders ------------------------------------------------


def _relabeled_edges(graph: Multigraph, vmap: Dict, tag) -> Iterable[Tuple]:
    for ed in graph.edges():
        yield ((tag, ed.id), vmap[ed.u], vmap[ed.v], ed.length)


def union_at(
    g1: Multigraph,
    points1: Sequence[VertexId],
    g2: Multigraph,
    points2: Sequence[VertexId],
) -> Multigraph:
    """Glue g2 onto g1, matching points2[i] to points1[i]; every other vertex
    and every edge id x of g2 becomes (tag, x), the tag being the first of
    u2, u3, ... that starts no tuple id of g1, so the two stay disjoint."""
    if len(points1) != len(points2):
        raise GraphError("point lists must have equal length")
    for v in points1:
        g1.position(v)
    for v in points2:
        g2.position(v)
    ids = (*g1.vertices(), *g1.edge_ids())
    taken = {x[0] for x in ids if isinstance(x, tuple) and x}
    tag = _first_free((f"u{k}" for k in count(2)), taken)
    vmap = {v: (tag, v) for v in g2.vertices()}
    for a, b in zip(points1, points2):
        vmap[b] = a
    edges = list(g1.edges()) + list(_relabeled_edges(g2, vmap, tag))
    return Multigraph(set(g1.vertices()) | set(vmap.values()), edges)


def _glue(parts: Sequence[Tuple[Multigraph, VertexId, VertexId]], ends) -> Multigraph:
    """Disjoint copies of the parts, part i's (s, t) terminals mapped onto
    the hub pair ``ends[i]`` and its other vertices v renamed (i, v)."""
    if not parts:
        raise GraphError("need at least one part")
    vertices = {hub for pair in ends for hub in pair}
    edges = []
    for i, ((g, s, t), (hub_s, hub_t)) in enumerate(zip(parts, ends)):
        g.position(s)
        g.position(t)
        vmap = {v: (i, v) for v in g.vertices()}
        vmap[s], vmap[t] = hub_s, hub_t
        vertices |= set(vmap.values())
        edges.extend(_relabeled_edges(g, vmap, i))
    return Multigraph(vertices, edges)


def chain_of(
    parts: Sequence[Tuple[Multigraph, VertexId, VertexId]], close: bool = False
) -> Multigraph:
    """Chain the parts end to end along their (s, t) terminal pairs; with
    ``close`` the last terminal wraps to the first, forming a ring."""
    k = len(parts)
    hubs = [("hub", i) for i in range(k if close else k + 1)]
    return _glue(parts, [(hubs[i], hubs[(i + 1) % len(hubs)]) for i in range(k)])


def banana_of(parts: Sequence[Tuple[Multigraph, VertexId, VertexId]]) -> Multigraph:
    """Glue every part between the same two hubs, s ends to one, t ends to
    the other."""
    return _glue(parts, [(("hub", 0), ("hub", 1))] * len(parts))
