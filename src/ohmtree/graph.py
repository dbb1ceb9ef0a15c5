"""Weighted multigraphs and the surgery operations used by network identities.

Graphs are immutable: every surgery (edge deletion, edge contraction, vertex
identification, vertex deletion) returns a new graph.  Operations that merge
vertices also return a rename map so callers can track a query point across
several derived graphs of the same parent.

Vertex and edge ids are opaque hashables.  Merging produces a
:class:`MergedVertex`, a frozenset of the original atoms, so repeated
identifications compose: merging {a,b} and then {ab,c} yields the same vertex
id as merging {a,b,c} directly.

A graph never changes, so it computes its sorted vertex and edge order, its
connectivity and each edge's bridge answer once, on first use, and keeps them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Set, Tuple

from .exactnum import rational

VertexId = Hashable
EdgeId = Hashable


class GraphError(ValueError):
    pass


class UnknownVertexError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class PreconditionError(GraphError):
    """An operation's hypothesis (non-bridge edge, non-cut vertex, ...) fails."""


class MergedVertex(frozenset):
    """Vertex id produced by identification; nested merges are flattened."""

    __slots__ = ()

    def __new__(cls, members: Iterable[VertexId]):
        atoms: List[VertexId] = []
        for m in members:
            if isinstance(m, MergedVertex):
                atoms.extend(m)
            else:
                atoms.append(m)
        return super().__new__(cls, atoms)

    def __str__(self) -> str:
        return "+".join(sorted(str(a) for a in self))

    def __repr__(self) -> str:
        return f"<{self}>"


def _vkey(v: VertexId):
    # Deterministic vertex ordering; type name breaks str collisions.
    return (str(v), type(v).__name__)


def _first_free(candidates: Iterable, taken) -> Hashable:
    """The first candidate id not in ``taken``; an iterator shared between
    calls never hands out the same id twice."""
    return next(c for c in candidates if c not in taken)


class Edge(NamedTuple):
    id: EdgeId
    u: VertexId
    v: VertexId
    length: Fraction

    def other_end(self, w: VertexId) -> VertexId:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise UnknownVertexError(f"{w!r} is not an endpoint of {self.id!r}")

    def is_loop(self) -> bool:
        return self.u == self.v


class VertexPartition:
    """Disjoint groups of vertices to identify; absent vertices stay singleton."""

    def __init__(self, groups: Iterable[Iterable[VertexId]]):
        gs = tuple(tuple(g) for g in groups)
        seen: Set[VertexId] = set()
        for g in gs:
            if not g:
                raise GraphError("empty identification group")
            members = set(g)
            if members & seen:
                raise GraphError(f"overlapping identification groups: {g}")
            seen |= members
        self.groups = gs

    def __iter__(self):
        return iter(self.groups)


class Multigraph:
    """Undirected multigraph with parallel edges, self-loops, and positive
    rational edge lengths (resistances)."""

    def __init__(
        self,
        vertices: Iterable[VertexId],
        edges: Iterable = (),
    ):
        vs = set(vertices)
        es: Dict[EdgeId, Edge] = {}
        for spec in edges:
            if isinstance(spec, Edge):
                e = spec
            else:
                eid, u, v, *rest = spec
                e = Edge(eid, u, v, rest[0] if rest else 1)
            if not isinstance(e.length, Fraction):
                e = e._replace(length=rational(e.length))
            if e.id in es:
                raise GraphError(f"duplicate edge id {e.id!r}")
            if e.u not in vs or e.v not in vs:
                raise UnknownVertexError(
                    f"edge {e.id!r} endpoint not among declared vertices"
                )
            if e.length.numerator <= 0:
                raise GraphError(f"edge {e.id!r} has non-positive length")
            es[e.id] = e
        self._vertices = frozenset(vs)
        self._edges = es
        incident: Dict[VertexId, List[EdgeId]] = {v: [] for v in vs}
        for e in es.values():
            incident[e.u].append(e.id)
            if e.v != e.u:
                incident[e.v].append(e.id)
        self._incident = incident
        self._bridge: Dict[EdgeId, bool] = {}

    @classmethod
    def from_edges(
        cls, pairs: Iterable, vertices: Iterable[VertexId] = ()
    ) -> "Multigraph":
        """Build from (u, v) or (u, v, length) tuples with auto edge ids e1.."""
        edges = []
        vs = set(vertices)
        for k, spec in enumerate(pairs, start=1):
            u, v, *rest = spec
            edges.append((f"e{k}", u, v, *rest))
            vs.add(u)
            vs.add(v)
        return cls(vs, edges)

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self) -> frozenset:
        return self._vertices

    @cached_property
    def _order(self) -> tuple:
        edges = sorted(self._edges.values(), key=lambda e: _vkey(e.id))
        return sorted(self._vertices, key=_vkey), edges

    def sorted_vertices(self) -> list:
        return list(self._order[0])

    def edges(self) -> List[Edge]:
        return list(self._order[1])

    def edge_ids(self) -> list:
        return [e.id for e in self._order[1]]

    def edge(self, e: EdgeId) -> Edge:
        try:
            return self._edges[e]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {e!r}") from None

    def endpoints(self, e: EdgeId) -> Tuple[VertexId, VertexId]:
        ed = self.edge(e)
        return ed.u, ed.v

    def length(self, e: EdgeId) -> Fraction:
        return self.edge(e).length

    def total_length(self) -> Fraction:
        return sum((e.length for e in self._edges.values()), Fraction(0))

    def has_unit_lengths(self) -> bool:
        return all(e.length == 1 for e in self._edges.values())

    def incident(self, v: VertexId) -> List[EdgeId]:
        self._require_vertex(v)
        return list(self._incident[v])

    def edges_between(self, u: VertexId, v: VertexId) -> List[EdgeId]:
        """Edge ids joining u and v; with u == v, the self-loops at u."""
        self._require_vertex(u)
        self._require_vertex(v)
        if u == v:
            return [e for e in self._incident[u] if self._edges[e].is_loop()]
        return [
            e
            for e in self._incident[u]
            if not self._edges[e].is_loop() and self._edges[e].other_end(u) == v
        ]

    def neighbors_with_multiplicity(self, v: VertexId) -> List[Tuple[VertexId, int]]:
        """Neighbors and parallel-edge counts; self-loops are excluded."""
        self._require_vertex(v)
        counts: Counter = Counter()
        for eid in self._incident[v]:
            e = self._edges[eid]
            if not e.is_loop():
                counts[e.other_end(v)] += 1
        return sorted(counts.items(), key=lambda kv: _vkey(kv[0]))

    def degree(self, v: VertexId) -> int:
        """Number of incident non-loop edges."""
        return sum(m for _, m in self.neighbors_with_multiplicity(v))

    def genus(self) -> int:
        """Cyclomatic number m - n + 1 of a connected graph."""
        return self.m - self.n + 1

    # -- connectivity ----------------------------------------------------

    def _reach(self, start: VertexId, avoid_edge: EdgeId = None) -> Set[VertexId]:
        """Vertices reached from ``start`` by walks that never cross
        ``avoid_edge``."""
        seen = {start}
        stack = [start]
        while stack:
            w = stack.pop()
            for eid in self._incident[w]:
                if eid != avoid_edge:
                    o = self._edges[eid].other_end(w)
                    if o not in seen:
                        seen.add(o)
                        stack.append(o)
        return seen

    def connected_components(self) -> List[Set[VertexId]]:
        remaining = set(self._vertices)
        comps = []
        while remaining:
            comp = self._reach(remaining.pop())
            remaining -= comp
            comps.append(comp)
        return comps

    @cached_property
    def _connected(self) -> bool:
        return self.n <= 1 or len(self._reach(next(iter(self._vertices)))) == self.n

    def is_connected(self) -> bool:
        return self._connected

    def is_bridge(self, e: EdgeId) -> bool:
        """True iff deleting the edge disconnects its endpoints."""
        memo = self._bridge
        if e not in memo:
            memo[e] = self.separates(e, *self.endpoints(e))
        return memo[e]

    def bridges(self) -> list:
        return [e for e in self.edge_ids() if self.is_bridge(e)]

    def separates(self, e: EdgeId, s: VertexId, t: VertexId) -> bool:
        """True iff s and t fall into different components of graph - e:
        a walk from s that never crosses e does not reach t."""
        self.edge(e)
        self._require_vertex(s)
        self._require_vertex(t)
        return s != t and t not in self._reach(s, e)

    def bridge_kind(self, e: EdgeId, s: VertexId, t: VertexId) -> str:
        """How the edge sits between s and t: ``"bridge-on-path"`` for a
        bridge that separates them, ``"bridge-off-path"`` for any other
        bridge, ``"non-bridge"`` for a self-loop or an edge on a cycle."""
        if self.edge(e).is_loop() or not self.is_bridge(e):
            return "non-bridge"
        return "bridge-on-path" if self.separates(e, s, t) else "bridge-off-path"

    def laplacian_rows(self, conductance: Callable[[Edge], object]) -> list:
        """Laplacian rows in sorted vertex order: off-diagonal -(sum of
        ``conductance(edge)`` over the joining edges), diagonal chosen so
        rows sum to zero.  Self-loops contribute nothing."""
        vertices, edges = self._order
        idx = {v: i for i, v in enumerate(vertices)}
        n = len(idx)
        rows = [[0] * n for _ in range(n)]
        for e in edges:
            if e.is_loop():
                continue
            c = conductance(e)
            i, j = idx[e.u], idx[e.v]
            rows[i][j] -= c
            rows[j][i] -= c
            rows[i][i] += c
            rows[j][j] += c
        return rows

    # -- surgery ---------------------------------------------------------

    def delete_edge(self, e: EdgeId) -> "Multigraph":
        self.edge(e)
        return Multigraph(
            self._vertices, (ed for ed in self._edges.values() if ed.id != e)
        )

    def delete_edges(self, ids: Iterable[EdgeId]) -> "Multigraph":
        drop = set(ids)
        for e in drop:
            self.edge(e)
        return Multigraph(
            self._vertices, (ed for ed in self._edges.values() if ed.id not in drop)
        )

    def delete_vertex(self, v: VertexId) -> "Multigraph":
        """Remove the vertex and every edge incident to it."""
        self._require_vertex(v)
        return Multigraph(
            self._vertices - {v},
            (ed for ed in self._edges.values() if v not in (ed.u, ed.v)),
        )

    def with_length(self, e: EdgeId, length) -> "Multigraph":
        """Same graph with edge ``e`` given a new positive length."""
        ed = self.edge(e)
        new_len = rational(length)
        if new_len <= 0:
            raise GraphError(f"edge length must be positive, got {new_len}")
        return Multigraph(
            self._vertices,
            (x if x.id != e else ed._replace(length=new_len) for x in self._edges.values()),
        )

    def with_unit_lengths(self) -> "Multigraph":
        return Multigraph(
            self._vertices,
            (ed._replace(length=Fraction(1)) for ed in self._edges.values()),
        )

    def identify(
        self, partition: Iterable[Iterable[VertexId]]
    ) -> Tuple["Multigraph", Dict[VertexId, VertexId]]:
        """Collapse each group of the partition to a single vertex.

        Edges with both endpoints in one group become self-loops; the edge
        multiset is otherwise preserved.  Returns the new graph and a rename
        map defined on every vertex of the original graph.
        """
        if not isinstance(partition, VertexPartition):
            partition = VertexPartition(partition)
        renames: Dict[VertexId, VertexId] = {v: v for v in self._vertices}
        for group in partition:
            for v in group:
                self._require_vertex(v)
            if len(set(group)) < 2:
                continue  # singleton group is a no-op
            merged = MergedVertex(group)
            for v in group:
                renames[v] = merged
        new_edges = (
            Edge(ed.id, renames[ed.u], renames[ed.v], ed.length)
            for ed in self._edges.values()
        )
        return Multigraph(set(renames.values()), new_edges), renames

    def contract_edge(
        self, e: EdgeId
    ) -> Tuple["Multigraph", Dict[VertexId, VertexId]]:
        """Contract the edge: remove it and identify its endpoints.

        Parallel edges between the endpoints become self-loops.  Contracting
        a self-loop is defined as deleting it.
        """
        ed = self.edge(e)
        if ed.is_loop():
            g = self.delete_edge(e)
            return g, {v: v for v in self._vertices}
        return self.delete_edge(e).identify([(ed.u, ed.v)])

    # -- hashing / serialization -----------------------------------------

    def canonical_text(self) -> str:
        lines = [f"vertex {v}" for v in map(str, self.sorted_vertices())]
        for ed in self.edges():
            lines.append(f"edge {ed.id} {ed.u} {ed.v} {ed.length}")
        return "\n".join(lines) + "\n"

    def graph_hash(self) -> str:
        return sha256(self.canonical_text().encode()).hexdigest()[:12]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._vertices, tuple(e.id for e in self._order[1])))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m}, hash={self.graph_hash()})"

    def _require_vertex(self, v: VertexId) -> None:
        if v not in self._vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")


# -- standard families ----------------------------------------------------


def path_graph(s: int, length=1) -> Multigraph:
    """Path on s >= 1 vertices v1..vs."""
    if s < 1:
        raise GraphError("path needs at least one vertex")
    return Multigraph(
        (f"v{i}" for i in range(1, s + 1)),
        ((f"e{i}", f"v{i}", f"v{i+1}", length) for i in range(1, s)),
    )


def cycle_graph(s: int, length=1) -> Multigraph:
    """Cycle on s >= 1 vertices; s=1 is a single vertex with a self-loop."""
    if s < 1:
        raise GraphError("cycle needs at least one vertex")
    return Multigraph(
        (f"v{i}" for i in range(1, s + 1)),
        (
            (f"e{i}", f"v{i}", f"v{i % s + 1}", length)
            for i in range(1, s + 1)
        ),
    )


def banana_graph(s: int, length=1) -> Multigraph:
    """Two vertices joined by s >= 1 parallel edges (dipole)."""
    if s < 1:
        raise GraphError("banana needs at least one edge")
    return Multigraph(
        ("v1", "v2"), ((f"e{i}", "v1", "v2", length) for i in range(1, s + 1))
    )


def complete_graph(n: int, length=1) -> Multigraph:
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    edges = []
    k = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            k += 1
            edges.append((f"e{k}", f"v{i}", f"v{j}", length))
    return Multigraph((f"v{i}" for i in range(1, n + 1)), edges)


def _spoked(rim: list, n: int, a: int) -> Multigraph:
    """The ``rim`` edges on v1..vn plus an apex joined to each vi by a edges."""
    spokes = [
        (f"s{i}_{j}", "apex", f"v{i}", 1)
        for i in range(1, n + 1) for j in range(1, a + 1)
    ]
    return Multigraph([f"v{i}" for i in range(1, n + 1)] + ["apex"], rim + spokes)


def fan_graph(n: int, a: int = 1) -> Multigraph:
    """Path on n vertices plus an apex joined to every path vertex by a edges."""
    if n < 1 or a < 1:
        raise GraphError("fan needs n >= 1 path vertices and a >= 1 spokes")
    return _spoked([(f"p{i}", f"v{i}", f"v{i+1}", 1) for i in range(1, n)], n, a)


def wheel_graph(n: int, a: int = 1) -> Multigraph:
    """Cycle on n vertices plus an apex joined to every cycle vertex by a edges."""
    if n < 1 or a < 1:
        raise GraphError("wheel needs n >= 1 rim vertices and a >= 1 spokes")
    rim = [(f"r{i}", f"v{i}", f"v{i % n + 1}", 1) for i in range(1, n + 1)]
    return _spoked(rim, n, a)
