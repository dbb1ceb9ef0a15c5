"""Two-terminal circuit reduction: an independent resistance oracle.

The reducer rewrites a network by dropping self-loops, merging parallel
edges (conductances add), merging series chains through non-terminal
degree-2 vertices (lengths add), and applying the delta-wye transform to
triangles.  If the graph collapses to a single edge between the terminals,
that edge's length is the effective resistance.  Every step preserves the
two-terminal equivalence, so the result cross-checks the pseudo-inverse
path without sharing any code with it.

Rewrites are applied in a fixed order (loop-drop, parallel, series, then
delta-wye on the lexicographically least triangle) so traces are
deterministic and can serve as golden test fixtures.  Delta-wye can cycle on
some graphs; a step budget makes the reducer bail out with ``None`` instead.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, count
from typing import List, NamedTuple, Optional, Tuple

from .graph import (
    DisconnectedError, Edge, GraphError, Multigraph, VertexId, _first_free, _vkey
)


class ReductionStep(NamedTuple):
    rule: str  # "loop-drop" | "parallel" | "series" | "delta-y"
    consumed: tuple  # edge ids removed
    produced: tuple  # Edge tuples added

    def line(self) -> str:
        out = ",".join(f"{e.id}:{e.u}:{e.v}:{e.length}" for e in self.produced)
        return f"{self.rule} consumed={','.join(map(str, self.consumed))} produced={out}"


class ReductionTrace:
    def __init__(self):
        self.steps: List[ReductionStep] = []

    def add(self, rule, consumed, produced=()):
        self.steps.append(ReductionStep(rule, tuple(consumed), tuple(produced)))

    def lines(self) -> List[str]:
        return [s.line() for s in self.steps]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.steps else "")


def delta_y(graph: Multigraph, e1, e2, e3) -> Multigraph:
    """Replace a triangle of edges by an equivalent 3-arm star.

    The three edges must form a 3-cycle on distinct vertices x, y, z.  A new
    center vertex is added and the arm reaching the vertex opposite a
    triangle edge of length a (the other two being b, c) gets length
    bc/(a+b+c), which preserves every pairwise resistance among x, y, z.
    """
    edges = [graph.edge(e) for e in (e1, e2, e3)]
    verts = set()
    for ed in edges:
        if ed.is_loop():
            raise GraphError("delta-y: edges must not be self-loops")
        verts.update((ed.u, ed.v))
    # each vertex meeting exactly two of the three non-loop edges makes them
    # three distinct edges on three vertices: a triangle
    for v in verts:
        if sum(v in (ed.u, ed.v) for ed in edges) != 2:
            raise GraphError("delta-y: edges do not form a triangle")
    total = sum((ed.length for ed in edges), Fraction(0))
    center = _first_free((f"Y{k}" for k in count()), graph.vertices())
    taken = set(graph.edge_ids())
    arm_edges = []
    for k, v in enumerate(sorted(verts, key=_vkey)):
        touching = [ed for ed in edges if v in (ed.u, ed.v)]
        arm = touching[0].length * touching[1].length / total
        base = f"y{k+1}"
        eid = _first_free(chain([base], (f"{base}_{i}" for i in count(2))), taken)
        arm_edges.append(Edge(eid, center, v, arm))
    remaining = [ed for ed in graph.edges() if ed.id not in {e1, e2, e3}]
    return Multigraph(
        set(graph.vertices()) | {center}, remaining + arm_edges
    )


def reduce_two_terminal(
    graph: Multigraph, s: VertexId, t: VertexId
) -> Tuple[Optional[Fraction], ReductionTrace]:
    """Reduce the network between terminals s and t.

    Returns (resistance, trace) when the rewrite system reaches a single s-t
    edge, or (None, trace) when it gets stuck or exceeds the step budget.
    """
    if s == t:
        raise GraphError("terminals must be distinct")
    graph.position(s)
    graph.position(t)
    if not graph.is_connected():
        raise DisconnectedError("graph must be connected")
    trace = ReductionTrace()
    budget = max(10 * graph.m, 50)
    g = graph
    parallel_ids = (f"par{k}" for k in count(1))
    series_ids = (f"ser{k}" for k in count(1))
    for _ in range(budget):
        done = _finished(g, s, t)
        if done is not None:
            return done, trace
        g2 = (
            _drop_loop(g, trace)
            or _merge_parallel(g, trace, parallel_ids)
            or _merge_series(g, trace, series_ids, s, t)
            or _apply_delta_y(g, trace)
        )
        if g2 is None:
            return None, trace
        g = g2
    return None, trace


def _finished(g: Multigraph, s, t) -> Optional[Fraction]:
    if g.n == 2 and g.m == 1:
        (ed,) = g.edges()
        if {ed.u, ed.v} == {s, t}:
            return ed.length
    return None


def _drop_loop(g: Multigraph, trace) -> Optional[Multigraph]:
    for ed in g.edges():
        if ed.is_loop():
            trace.add("loop-drop", (ed.id,))
            return g.delete_edge(ed.id)
    return None


def _merge_parallel(g: Multigraph, trace, ids) -> Optional[Multigraph]:
    pairs = {}
    for ed in g.edges():
        if ed.is_loop():
            continue
        key = tuple(sorted((ed.u, ed.v), key=_vkey))
        pairs.setdefault(key, []).append(ed)
    for key in sorted(pairs, key=lambda k: (_vkey(k[0]), _vkey(k[1]))):
        group = pairs[key]
        if len(group) < 2:
            continue
        conductance = sum((1 / ed.length for ed in group), Fraction(0))
        consumed = tuple(ed.id for ed in group)
        return _merge(g, trace, "parallel", ids, consumed, (*key, 1 / conductance))
    return None


def _merge_series(g: Multigraph, trace, ids, s, t) -> Optional[Multigraph]:
    for v in g.sorted_vertices():
        if v in (s, t):
            continue
        inc = g.incident(v)
        if len(inc) != 2 or any(g.edge(e).is_loop() for e in inc):
            continue
        e1, e2 = (g.edge(e) for e in inc)
        new = (e1.other_end(v), e2.other_end(v), e1.length + e2.length)
        return _merge(g, trace, "series", ids, (e1.id, e2.id), new, {v})
    return None


def _merge(g: Multigraph, trace, rule, ids, consumed, new, gone=frozenset()):
    """G without the vertices ``gone`` and with the consumed edges replaced
    by one edge ``new`` = (u, v, length), whose id is the first of ``ids``
    that no kept edge has."""
    kept = [ed for ed in g.edges() if ed.id not in consumed]
    merged = Edge(_first_free(ids, {ed.id for ed in kept}), *new)
    trace.add(rule, consumed, (merged,))
    return Multigraph(g.vertices() - gone, kept + [merged])


def _apply_delta_y(g: Multigraph, trace) -> Optional[Multigraph]:
    verts = g.sorted_vertices()
    for x, y, z in combinations(verts, 3):
        exy = g.edges_between(x, y)
        eyz = g.edges_between(y, z)
        ezx = g.edges_between(z, x)
        if exy and eyz and ezx:
            tri = (exy[0], eyz[0], ezx[0])
            before = {e.id for e in g.edges()}
            g2 = delta_y(g, *tri)
            produced = tuple(e for e in g2.edges() if e.id not in before)
            trace.add("delta-y", tri, produced)
            return g2
    return None
