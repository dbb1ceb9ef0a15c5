"""Effective resistance and voltage via the exact Laplacian pseudo-inverse.

A :class:`Network` wraps a connected multigraph, viewing each edge of length
L as a resistor of L ohms.  Everything here is exact.  The Laplacian is
assembled in integers over one common denominator, a vertex's row being its
``Multigraph.position``, and grounded at its first sorted vertex: without
that row and column it is invertible by one fraction-free ``Matrix.inverse``
per network, and the inverse, padded with zeros, is centred in integers to
the pseudo-inverse.  A resistance or voltage looks its vertices up first, so
an unknown vertex costs no inversion, and is one integer combination of the
numerators over their one denominator, so every identity evaluator below can
report a residual that is literally zero.  The only floating-point code is
the finite-difference mirror used to cross-check the derivative formula; it
grounds the float Laplacian the same way and inverts it by Gauss-Jordan
elimination on floats (``exactnum.invert_rows``).

Derived quantities for a surgered graph (vertices identified, an edge deleted
or contracted, a length changed) are always computed by building the surgered
network and re-deriving its pseudo-inverse, never by trusting the identity
under test.  What is reused is only what does not depend on the law, and only
inside ``exactnum.remembering()``: an equal graph's Laplacian and
identifications, and the G - e that ``deleted(e)`` and ``contracted(e)``
share.  Every ``shorted``, ``deleted`` and ``contracted`` call still returns
a fresh ``Network``, which inverts its own Laplacian when first queried.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm
from typing import Dict, List, NamedTuple, Tuple

from .exactnum import Matrix, SingularMatrixError, invert_rows, rational, remember
from .graph import (
    DisconnectedError,
    EdgeId,
    Multigraph,
    PreconditionError,
    VertexId,
)


def laplacian(graph: Multigraph) -> Matrix:
    """Discrete Laplacian, conductance 1/L per edge, in sorted vertex order:
    integer rows of D / L over D, the lcm of the non-loop L's numerators;
    remembered per equal graph."""
    return remember(("laplacian", graph), partial(_assemble_laplacian, graph))


def _assemble_laplacian(graph: Multigraph) -> Matrix:
    if not graph.is_connected():
        raise DisconnectedError("laplacian of a disconnected graph")
    d = lcm(*(e.length.numerator for e in graph.edges() if not e.is_loop()))
    rows = graph.laplacian_rows(lambda e: d // e.length.numerator * e.length.denominator)
    return Matrix.from_integer_rows(rows, d)


def pseudo_inverse(lap: Matrix) -> Matrix:
    """Moore-Penrose pseudo-inverse of a connected-graph Laplacian: the
    inverse W / d of L grounded at vertex 0, padded with zeros for that vertex,
    centred as P (W / d) P with P = I - J/n, which is the integer matrix
    n^2 W - n (s_i + s_j) + S over n^2 d, s the row sums of W and S their sum."""
    n = lap.rows
    if n == 0:
        raise ValueError("empty matrix")
    try:
        grounded = lap.drop(0, 0).inverse()
    except SingularMatrixError as exc:
        raise DisconnectedError(
            f"matrix is not a connected-graph laplacian (pivot {exc.pivot + 1})"
        ) from exc
    w = [(0,) * n] + [(0, *row) for row in grounded.numerators]
    s = [sum(row) for row in w]
    total, nn = sum(s), n * n
    num = [[nn * x - n * (a + b) + total for x, b in zip(r, s)] for r, a in zip(w, s)]
    return Matrix.from_integer_rows(num, nn * grounded.denominator)


class Network:
    """A connected multigraph with its pseudo-inverse, computed on first use
    and kept."""

    def __init__(self, graph: Multigraph):
        if not graph.is_connected():
            raise DisconnectedError("network graph must be connected")
        self.graph = graph
        self._pseudo_inverse = None

    @property
    def laplacian(self) -> Matrix:
        return laplacian(self.graph)

    @property
    def pseudo_inverse(self) -> Matrix:
        if self._pseudo_inverse is None:
            self._pseudo_inverse = pseudo_inverse(self.laplacian)
        return self._pseudo_inverse

    def resistance(self, p: VertexId, q: VertexId) -> Fraction:
        """Effective resistance r(p, q) = l+pp - 2 l+pq + l+qq."""
        i, j = self.graph.position(p), self.graph.position(q)
        lp = self.pseudo_inverse
        m = lp.numerators
        return Fraction(m[i][i] - 2 * m[i][j] + m[j][j], lp.denominator)

    def voltage(self, z: VertexId, x: VertexId, y: VertexId) -> Fraction:
        """Voltage j_z(x, y): potential at x, reference 0 at z, when unit
        current enters at y and exits at z.  Equals l+zz - l+zx - l+zy + l+xy."""
        a, b, c = map(self.graph.position, (z, x, y))
        lp = self.pseudo_inverse
        m = lp.numerators
        return Fraction(m[a][a] - m[a][b] - m[a][c] + m[b][c], lp.denominator)

    # -- derived networks --------------------------------------------------

    def shorted(self, p: VertexId, q: VertexId) -> Tuple["Network", Dict]:
        """Network with p and q identified, plus the vertex rename map."""
        g, renames = self.graph.identify([(p, q)])
        return Network(g), renames

    def _cut_graph(self, e: EdgeId) -> Multigraph:
        """G - e, remembered: a law asks for ``deleted(e)`` and
        ``contracted(e)`` of one edge in turn."""
        return remember(("cut", self.graph, e), partial(self.graph.delete_edge, e))

    def deleted(self, e: EdgeId) -> "Network":
        """Network with the edge's interior removed (raises if that
        disconnects the graph)."""
        return Network(self._cut_graph(e))

    def contracted(self, e: EdgeId) -> Tuple["Network", Dict]:
        """Network with the edge contracted, plus the vertex rename map."""
        g, renames = self._cut_graph(e).identify([self.graph.endpoints(e)])
        return Network(g), renames


class DeltaResult(NamedTuple):
    """Before/after resistances of a surgery plus the law's correction term.

    The law under test asserts before - after == correction (for cutting,
    after - before == correction); residuals are computed by the caller so
    both sides stay independent.
    """

    before: Fraction
    after: Fraction
    correction: Fraction


class EulerTerm(NamedTuple):
    edge: EdgeId
    kind: str  # "bridge-on-path" | "bridge-off-path" | "non-bridge"
    contribution: Fraction


def _cut(net: Network, e: EdgeId):
    """Cut-graph data of the non-bridge edge e = (p, q): the network G - e,
    its resistance R_e = r'(p, q) and the voltage x -> j'_p(q, x)."""
    ed = net.graph.edge(e)
    if net.graph.is_bridge(e):
        raise PreconditionError(f"edge {e!r} is a bridge; the law needs a non-bridge")
    deleted = net.deleted(e)
    return deleted, deleted.resistance(ed.u, ed.v), partial(deleted.voltage, ed.u, ed.v)


def _loop_or_bridge(net: Network, ed, s: VertexId, t: VertexId, drop: Fraction):
    """Correction of a surgery on a self-loop (0) or a bridge (``drop`` when
    the bridge separates s from t, else 0); None for any other edge."""
    if ed.is_loop():
        return Fraction(0)
    kind = net.graph.bridge_kind(ed.id, s, t)
    if kind == "non-bridge":
        return None
    return drop if kind == "bridge-on-path" else Fraction(0)


def resistance_derivative(
    net: Network, e: EdgeId, s: VertexId, t: VertexId
) -> Fraction:
    """Exact partial derivative of r(s, t) with respect to the length of e.

    Bridge separating s and t: 1.  Bridge not separating (or any edge with
    s == t): 0.  Non-bridge: the squared voltage difference across the edge's
    endpoints in the deleted graph, divided by (L + R)^2.
    """
    kind = net.graph.bridge_kind(e, s, t)
    if kind != "non-bridge":
        return Fraction(1 if kind == "bridge-on-path" else 0)
    _, big_r, j = _cut(net, e)
    diff = j(s) - j(t)
    return diff * diff / (net.graph.length(e) + big_r) ** 2


def _split(net: Network, s: VertexId, t: VertexId, term) -> List[EulerTerm]:
    """One term of r(s, t) per edge (p, q) of length L, ``term(p, q, L)``,
    labelled by how the edge sits between s and t; no label changes a term."""
    g = net.graph
    g.position(s), g.position(t)
    return [
        EulerTerm(ed.id, g.bridge_kind(ed.id, s, t), term(ed.u, ed.v, ed.length))
        for ed in g.edges()
    ]


def euler_decomposition(net: Network, s: VertexId, t: VertexId) -> List[EulerTerm]:
    """Split r(s, t) into one nonnegative term per edge: e = (p, q) of length
    L contributes (j_p(q, s) - j_p(q, t))^2 / L, with voltages taken in the
    whole network.  A bridge's voltage difference is +-L when it separates s
    from t and 0 otherwise, a self-loop's is 0.  The terms sum exactly to
    r(s, t)."""
    j = net.voltage
    return _split(net, s, t, lambda p, q, L: (j(p, q, s) - j(p, q, t)) ** 2 / L)


def euler_decomposition_resistance_only(
    net: Network, s: VertexId, t: VertexId
) -> List[EulerTerm]:
    """The same split from resistances only: each edge (p, q) of length L
    contributes (r(p,s) - r(q,s) - r(p,t) + r(q,t))^2 / (4 L), since the
    bracket is 2 (j_p(q, s) - j_p(q, t))."""
    r = net.resistance
    return _split(
        net, s, t, lambda p, q, L: (r(p, s) - r(q, s) - r(p, t) + r(q, t)) ** 2 / (4 * L)
    )


def shorting_delta(
    net: Network, p: VertexId, q: VertexId, s: VertexId, t: VertexId
) -> DeltaResult:
    """Shorting law: identifying p and q drops r(s, t) by exactly
    (j_p(q,s) - j_p(q,t))^2 / r(p, q)."""
    if p == q:
        raise PreconditionError("shorting law needs two distinct vertices")
    before = net.resistance(s, t)
    shorted, ren = net.shorted(p, q)
    after = shorted.resistance(ren[s], ren[t])
    diff = net.voltage(p, q, s) - net.voltage(p, q, t)
    return DeltaResult(before, after, diff * diff / net.resistance(p, q))


def cutting_delta(
    net: Network, e: EdgeId, s: VertexId, t: VertexId
) -> DeltaResult:
    """Cutting law: deleting a non-bridge edge raises r(s, t) by exactly
    (j'_p(q,s) - j'_p(q,t))^2 / (L + R), primes taken in the cut graph."""
    deleted, big_r, j = _cut(net, e)
    diff = j(s) - j(t)
    return DeltaResult(
        net.resistance(s, t),
        deleted.resistance(s, t),
        diff * diff / (net.graph.length(e) + big_r),
    )


def contraction_delta(
    net: Network, e: EdgeId, s: VertexId, t: VertexId
) -> DeltaResult:
    """Monotonicity law for contraction: collapsing edge e drops r(s, t) by
    (L + R)/(L R) times the squared voltage difference across e; for a bridge
    the drop is L when e separates s from t and 0 otherwise."""
    ed = net.graph.edge(e)
    before = net.resistance(s, t)
    contracted, ren = net.contracted(e)
    after = contracted.resistance(ren[s], ren[t])
    corr = _loop_or_bridge(net, ed, s, t, ed.length)
    if corr is None:
        _, big_r, _ = _cut(net, e)
        diff = net.voltage(ed.u, ed.v, s) - net.voltage(ed.u, ed.v, t)
        corr = (ed.length + big_r) * diff * diff / (ed.length * big_r)
    return DeltaResult(before, after, corr)


def edge_modification_delta(
    net: Network, e: EdgeId, new_length, s: VertexId, t: VertexId
) -> DeltaResult:
    """Monotonicity law for re-lengthening: replacing L by L' changes r(s, t)
    by (L - L') / ((L + R)(L' + R)) times the squared cut-graph voltage
    difference; bridge cases give exactly L - L' or 0."""
    ed = net.graph.edge(e)
    new_len = rational(new_length)
    if new_len <= 0:
        raise PreconditionError("replacement length must be positive")
    before = net.resistance(s, t)
    after = Network(net.graph.with_length(e, new_len)).resistance(s, t)
    corr = _loop_or_bridge(net, ed, s, t, ed.length - new_len)
    if corr is None:
        _, big_r, j = _cut(net, e)
        diff = j(s) - j(t)
        corr = (ed.length - new_len) * diff * diff / (
            (ed.length + big_r) * (new_len + big_r)
        )
    return DeltaResult(before, after, corr)


def convex_combination_check(
    net: Network, e: EdgeId, s: VertexId, t: VertexId
) -> Fraction:
    """Residual of r(s,t) = L/(L+R) * r_cut(s,t) + R/(L+R) * r_contracted(s,t)
    for a non-bridge edge; must be zero."""
    length = net.graph.length(e)
    deleted, big_r, _ = _cut(net, e)
    contracted, ren = net.contracted(e)
    mix = (
        length * deleted.resistance(s, t)
        + big_r * contracted.resistance(ren[s], ren[t])
    ) / (length + big_r)
    return net.resistance(s, t) - mix


def voltage_transfer_shorting(
    net: Network, p: VertexId, q: VertexId, u: VertexId, s: VertexId, t: VertexId
) -> Fraction:
    """Residual of the voltage transfer law under identification of p, q:

        j_u(t,s) = j'_u(t,s) + (j_p(q,u)-j_p(q,t)) (j_p(q,u)-j_p(q,s)) / r(p,q)

    with primes in the shorted network.  u = p recovers the product special
    case, t = p the difference special case."""
    if p == q:
        raise PreconditionError("voltage transfer needs two distinct vertices")
    shorted, ren = net.shorted(p, q)
    base = shorted.voltage(ren[u], ren[t], ren[s])
    d_t = net.voltage(p, q, u) - net.voltage(p, q, t)
    d_s = net.voltage(p, q, u) - net.voltage(p, q, s)
    return net.voltage(u, t, s) - base - d_t * d_s / net.resistance(p, q)


def voltage_transfer_cutting(
    net: Network, e: EdgeId, u: VertexId, s: VertexId, t: VertexId
) -> Fraction:
    """Residual of the voltage transfer law under deletion of a non-bridge
    edge; must be zero."""
    deleted, big_r, j = _cut(net, e)
    return (
        net.voltage(u, t, s)
        - deleted.voltage(u, t, s)
        + (j(u) - j(t)) * (j(u) - j(s)) / (net.graph.length(e) + big_r)
    )


def voltage_transfer_contraction(
    net: Network, e: EdgeId, u: VertexId, s: VertexId, t: VertexId
) -> Fraction:
    """Residual of the voltage transfer law under contraction of a non-bridge
    edge; must be zero.  A self-loop contracts to a deletion with no
    correction term."""
    ed = net.graph.edge(e)
    corr = Fraction(0)
    if not ed.is_loop():
        _, big_r, j = _cut(net, e)
        corr = ed.length * (j(u) - j(t)) * (j(u) - j(s)) / (big_r * (ed.length + big_r))
    contracted, ren = net.contracted(e)
    return net.voltage(u, t, s) - contracted.voltage(ren[u], ren[t], ren[s]) - corr


# -- floating-point mirror -------------------------------------------------


def float_resistance(
    graph: Multigraph, p: VertexId, q: VertexId, length_override=None
) -> float:
    """Resistance computed with binary floats.  Used only to cross-check the
    exact derivative against central finite differences; ``length_override``
    maps edge ids to float lengths.  A disconnected graph raises
    DisconnectedError, as on the exact path.

    The Laplacian is grounded at the first sorted vertex: without its row
    and column it is symmetric positive definite, so the float Gauss-Jordan
    routine needs no pivoting.  Padded with zeros for that vertex, its
    inverse G gives r(p, q) = G[p,p] - 2 G[p,q] + G[q,q]."""
    i, j = graph.position(p), graph.position(q)
    if not graph.is_connected():
        raise DisconnectedError("float resistance of a disconnected graph")
    override = length_override or {}
    rows = graph.laplacian_rows(lambda e: 1.0 / override.get(e.id, float(e.length)))
    grounded = invert_rows([row[1:] for row in rows[1:]], 1.0)
    g = [[0.0] * graph.n] + [[0.0] + row for row in grounded]
    return g[i][i] - 2.0 * g[i][j] + g[j][j]


FD_STEP = 1e-6


def resistance_fd(graph: Multigraph, e: EdgeId, s: VertexId, t: VertexId) -> float:
    """Central finite-difference estimate, with step ``FD_STEP``, of the
    derivative of r(s, t) with respect to the length of e, on the float
    mirror."""
    base = float(graph.length(e))
    hi = float_resistance(graph, s, t, {e: base + FD_STEP})
    lo = float_resistance(graph, s, t, {e: base - FD_STEP})
    return (hi - lo) / (2.0 * FD_STEP)
