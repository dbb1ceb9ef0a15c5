"""Weighted multigraphs and the surgery operations used by network identities.

Graphs are immutable: every surgery (edge deletion, edge contraction, vertex
identification, vertex deletion) returns a new graph.  Operations that merge
vertices also return a rename map so callers can track a query point across
several derived graphs of the same parent.

Vertex and edge ids are opaque hashables.  Merging produces a
:class:`MergedVertex`, a frozenset of the original atoms, so repeated
identifications compose: merging {a,b} and then {ab,c} yields the same vertex
id as merging {a,b,c} directly.

A graph is stored in sorted order: a dict from each vertex to its position
among the vertices sorted by id (:meth:`Multigraph.position`, the row of
the vertex in every Laplacian), and a dict of its edges sorted by id.  Only
the constructor, ``identify``, ``contract_edge`` and ``delete_vertex`` sort
or renumber; every other surgery shares its parent's vertex positions and
filters or re-maps the parent's edges, which keeps their order, without
re-running the constructor's checks.

A graph never changes, so it computes its incidence lists, its
connectivity, its hash and each edge's bridge answer once, on first use, and
keeps them.  One walk, ``_reach``, answers connectivity, components,
separation and bridges: an edge is a bridge iff it separates its own
endpoints.  A graph keeps no other graph: ``identify`` asks
``exactnum.remember``, so its results are kept only inside
``exactnum.remembering()``, and every call hands out a fresh copy of the
rename map.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Set, Tuple

from .exactnum import rational, remember

VertexId = Hashable
EdgeId = Hashable

_ONE = Fraction(1)  # shared, so equal unit graphs compare lengths by identity


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


def _positions(vertices: Iterable[VertexId]) -> Dict[VertexId, int]:
    """Each vertex's position among the vertices sorted by id."""
    return {v: i for i, v in enumerate(sorted(vertices, key=_vkey))}


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
        for eid, u, v, *rest in edges:
            e = Edge(eid, u, v, rational(rest[0]) if rest else _ONE)
            if e.id in es:
                raise GraphError(f"duplicate edge id {e.id!r}")
            if e.u not in vs or e.v not in vs:
                raise UnknownVertexError(
                    f"edge {e.id!r} endpoint not among declared vertices"
                )
            if e.length.numerator <= 0:
                raise GraphError(f"edge {e.id!r} has non-positive length")
            es[e.id] = e
        self._adopt(_positions(vs), {k: es[k] for k in sorted(es, key=_vkey)})

    @classmethod
    def _derive(cls, index: Dict[VertexId, int], edges: Dict[EdgeId, Edge]):
        """A graph of a vertex index and an edge dict in sorted order, made
        from parts a parent graph has already checked; ``__init__``'s checks
        do not run."""
        g = cls.__new__(cls)
        g._adopt(index, edges)
        return g

    def _adopt(self, index, edges) -> None:
        # None, or an edge absent from _bridge, marks a fact still to compute.
        self._index = index
        self._edges = edges
        self._incident = None
        self._connected = None
        self._bridge: Dict[EdgeId, bool] = {}
        self._hash = None

    @classmethod
    def from_edges(cls, pairs: Iterable) -> "Multigraph":
        """Build from (u, v) or (u, v, length) tuples with auto edge ids e1.."""
        edges = [(f"e{k}", *spec) for k, spec in enumerate(pairs, start=1)]
        return cls({w for e in edges for w in e[1:3]}, edges)

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._index)

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self) -> frozenset:
        return frozenset(self._index)

    def position(self, v: VertexId) -> int:
        """The vertex's position in ``sorted_vertices()``: its row in every
        Laplacian of the graph."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def _incidence(self) -> Dict[VertexId, List[EdgeId]]:
        if self._incident is None:
            incident: Dict[VertexId, List[EdgeId]] = {v: [] for v in self._index}
            for e in self._edges.values():
                incident[e.u].append(e.id)
                if e.v != e.u:
                    incident[e.v].append(e.id)
            self._incident = incident
        return self._incident

    def sorted_vertices(self) -> list:
        return list(self._index)

    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def edge_ids(self) -> list:
        return list(self._edges)

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

    def has_unit_lengths(self) -> bool:
        return all(e.length == 1 for e in self._edges.values())

    def incident(self, v: VertexId) -> List[EdgeId]:
        self.position(v)
        return list(self._incidence()[v])

    def edges_between(self, u: VertexId, v: VertexId) -> List[EdgeId]:
        """Edge ids joining u and v; with u == v, the self-loops at u."""
        self.position(u)
        self.position(v)
        incident = self._incidence()[u]
        if u == v:
            return [e for e in incident if self._edges[e].is_loop()]
        return [
            e
            for e in incident
            if not self._edges[e].is_loop() and self._edges[e].other_end(u) == v
        ]

    def neighbors_with_multiplicity(self, v: VertexId) -> List[Tuple[VertexId, int]]:
        """Neighbors and parallel-edge counts; self-loops are excluded."""
        self.position(v)
        counts: Counter = Counter()
        for eid in self._incidence()[v]:
            e = self._edges[eid]
            if not e.is_loop():
                counts[e.other_end(v)] += 1
        return sorted(counts.items(), key=lambda kv: _vkey(kv[0]))

    def degree(self, v: VertexId) -> int:
        """Number of incident non-loop edges."""
        self.position(v)
        edges = self._edges
        return sum(not edges[e].is_loop() for e in self._incidence()[v])

    def genus(self) -> int:
        """Cyclomatic number m - n + 1 of a connected graph."""
        return self.m - self.n + 1

    # -- connectivity ----------------------------------------------------

    def _reach(self, start: VertexId, avoid_edge: EdgeId = None) -> Set[VertexId]:
        """Vertices reached from ``start`` by walks that never cross
        ``avoid_edge``."""
        incident = self._incidence()
        seen = {start}
        stack = [start]
        while stack:
            w = stack.pop()
            for eid in incident[w]:
                if eid != avoid_edge:
                    o = self._edges[eid].other_end(w)
                    if o not in seen:
                        seen.add(o)
                        stack.append(o)
        return seen

    def connected_components(self) -> List[Set[VertexId]]:
        remaining = set(self._index)
        comps = []
        while remaining:
            comp = self._reach(remaining.pop())
            remaining -= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = (
                self.n <= 1 or len(self._reach(next(iter(self._index)))) == self.n
            )
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
        self.position(s)
        self.position(t)
        return s != t and t not in self._reach(s, e)

    def bridge_kind(self, e: EdgeId, s: VertexId, t: VertexId) -> str:
        """How the edge sits between s and t: ``"bridge-on-path"`` for a
        bridge that separates them, ``"bridge-off-path"`` for any other
        bridge, ``"non-bridge"`` for a self-loop or an edge on a cycle."""
        self.position(s)
        self.position(t)
        if not self.is_bridge(e):
            return "non-bridge"
        return "bridge-on-path" if self.separates(e, s, t) else "bridge-off-path"

    def laplacian_rows(self, conductance: Callable[[Edge], object]) -> list:
        """Laplacian rows in sorted vertex order: off-diagonal -(sum of
        ``conductance(edge)`` over the joining edges), diagonal chosen so
        rows sum to zero.  Self-loops contribute nothing."""
        idx, n = self._index, self.n
        rows = [[0] * n for _ in range(n)]
        for e in self.edges():
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
        return self._without({e})

    def delete_edges(self, ids: Iterable[EdgeId]) -> "Multigraph":
        return self._without(set(ids))

    def _without(self, drop: Set[EdgeId]) -> "Multigraph":
        for e in drop:
            self.edge(e)
        return self._derive(
            self._index, {k: x for k, x in self._edges.items() if k not in drop}
        )

    def delete_vertex(self, v: VertexId) -> "Multigraph":
        """Remove the vertex and every edge incident to it."""
        self.position(v)
        return self._derive(
            {w: i for i, w in enumerate(w for w in self._index if w != v)},
            {k: x for k, x in self._edges.items() if v not in (x.u, x.v)},
        )

    def with_length(self, e: EdgeId, length) -> "Multigraph":
        """Same graph with edge ``e`` given a new positive length."""
        ed = self.edge(e)
        new_len = rational(length)
        if new_len <= 0:
            raise GraphError(f"edge length must be positive, got {new_len}")
        return self._derive(self._index, {**self._edges, e: ed._replace(length=new_len)})

    def with_unit_lengths(self) -> "Multigraph":
        return self._derive(
            self._index, {k: x._replace(length=_ONE) for k, x in self._edges.items()}
        )

    def identify(
        self, partition: Iterable[Iterable[VertexId]]
    ) -> Tuple["Multigraph", Dict[VertexId, VertexId]]:
        """Collapse each group of the partition to a single vertex.

        The groups must be nonempty and disjoint.  Edges with both endpoints
        in one group become self-loops; the edge multiset is otherwise
        preserved.  Returns the new graph and a rename map defined on every
        vertex of the original graph.  A singleton group changes nothing.
        The result is remembered per equal graph and partition, and every
        call returns its own copy of the rename map.
        """
        parts = [tuple(group) for group in partition]
        seen: Set[VertexId] = set()
        for group in parts:
            if not group:
                raise GraphError("empty identification group")
            if seen.intersection(group):
                raise GraphError(f"overlapping identification groups: {group}")
            seen.update(group)
        for v in (v for group in parts for v in group):
            self.position(v)
        groups = frozenset(map(frozenset, parts))
        graph, renames = remember(
            ("identify", self, groups), lambda: self._identified_by(groups)
        )
        return graph, dict(renames)

    def _identified_by(self, groups: frozenset) -> tuple:
        renames: Dict[VertexId, VertexId] = {v: v for v in self._index}
        for group in (g for g in groups if len(g) > 1):
            merged = MergedVertex(group)
            for v in group:
                renames[v] = merged
        edges = {
            k: Edge(k, renames[x.u], renames[x.v], x.length)
            for k, x in self._edges.items()
        }
        return self._derive(_positions(set(renames.values())), edges), renames

    def contract_edge(
        self, e: EdgeId
    ) -> Tuple["Multigraph", Dict[VertexId, VertexId]]:
        """Contract the edge: remove it and identify its endpoints, keeping
        nothing in a memo.

        Parallel edges between the endpoints become self-loops.  A self-loop's
        ends form a singleton group, so contracting it deletes it, with the
        identity rename map.
        """
        ends = frozenset(self.endpoints(e))
        return self.delete_edge(e)._identified_by(frozenset([ends]))

    # -- hashing / serialization -----------------------------------------

    def canonical_text(self) -> str:
        lines = [f"vertex {v}" for v in map(str, self.sorted_vertices())]
        for ed in self.edges():
            lines.append(f"edge {ed.id} {ed.u} {ed.v} {ed.length}")
        return "\n".join(lines) + "\n"

    def graph_hash(self) -> str:
        from hashlib import sha256

        return sha256(self.canonical_text().encode()).hexdigest()[:12]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self._index.keys() == other._index.keys()
            and self._edges == other._edges
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self._index), tuple(self._edges.values())))
        return self._hash

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m}, hash={self.graph_hash()})"


# -- standard families ----------------------------------------------------


def path_graph(s: int) -> Multigraph:
    """Path on s >= 1 vertices v1..vs."""
    if s < 1:
        raise GraphError("path needs at least one vertex")
    return Multigraph(
        (f"v{i}" for i in range(1, s + 1)),
        ((f"e{i}", f"v{i}", f"v{i+1}") for i in range(1, s)),
    )


def cycle_graph(s: int) -> Multigraph:
    """Cycle on s >= 1 vertices; s=1 is a single vertex with a self-loop."""
    if s < 1:
        raise GraphError("cycle needs at least one vertex")
    return Multigraph(
        (f"v{i}" for i in range(1, s + 1)),
        ((f"e{i}", f"v{i}", f"v{i % s + 1}") for i in range(1, s + 1)),
    )


def banana_graph(s: int) -> Multigraph:
    """Two vertices joined by s >= 1 parallel edges (dipole)."""
    if s < 1:
        raise GraphError("banana needs at least one edge")
    return Multigraph(
        ("v1", "v2"), ((f"e{i}", "v1", "v2") for i in range(1, s + 1))
    )


def complete_graph(n: int) -> Multigraph:
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    edges = []
    k = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            k += 1
            edges.append((f"e{k}", f"v{i}", f"v{j}"))
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
