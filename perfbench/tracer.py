"""Spans recorded from outside the program, around calls into each module.

A :class:`Tracer` replaces public functions and methods of ``ohmtree`` with
wrappers that record one span per call: its name, start, end, parent span
and operation id.  Wrappers are installed on the name the caller looks up at
call time: a class attribute, a module attribute, or a registry entry.  A
name bound by ``from ... import`` lives in the importing module, so it is
wrapped there as well (``cli.reduce_two_terminal``).

Spans stay in memory and are written out by :meth:`Tracer.write` at the end
of a run.  A span's self time is its duration minus the time its child
spans cover; a layer's ``.s`` metric is the sum of the self times of its
spans, so no interval is counted in two layers.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.keys: defaultdict = defaultdict(set)
        self.peaks: Counter = Counter()
        self.totals: Counter = Counter()
        self._stack: list = []  # [span index, time covered by children]
        self._undo: list = []

    def next_op(self) -> None:
        self.op += 1

    def wrap(self, owner, attr, name, key=None, on_call=None, on_result=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        recording wrapper.  ``key(args)`` feeds the distinct-input count of
        ``name``; ``on_call(args)`` and ``on_result(args, result)`` let a
        caller record counts taken from the arguments or the answer."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            if key is not None:
                self.keys[name].add(key(args))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, is_dict))

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def layers_with_spans(self) -> set:
        return {name.split(".", 1)[0] for name, n in self.calls.items() if n}

    def write(self, path) -> None:
        """Write every span as a tab-separated line: index, name, start and
        end in microseconds from the first span, parent index, op id."""
        t_ref = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - t_ref) * 1e6:.1f}\t"
                    f"{(self.end[i] - t_ref) * 1e6:.1f}\t"
                    f"{self.parent[i]}\t{self.op_of[i]}\n"
                )


def _entry_bits(matrix) -> int:
    return max(
        (
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for i in range(matrix.rows)
            for x in matrix.row(i)
        ),
        default=0,
    )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ohmtree module."""
    from ohmtree import cli, exactnum, graph, polyseq, reduction, resistnet
    from ohmtree import spantree, verify

    edges = graph.Multigraph.edges  # unwrapped, so keys record no spans

    def tree_structure(args):
        # What a spanning-tree count depends on: the vertex set and the
        # multiset of non-loop endpoint pairs; lengths and edge ids play no part.
        g = args[0]
        pairs = sorted(
            tuple(sorted((str(e.u), str(e.v)))) for e in edges(g) if not e.is_loop()
        )
        return frozenset(map(str, g.vertices())), tuple(pairs)

    def inverse_result(args, result):
        tracer.peaks["exactnum.inverse.max_dim"] = max(
            tracer.peaks["exactnum.inverse.max_dim"], args[0].rows
        )
        tracer.peaks["exactnum.entry_bits.max"] = max(
            tracer.peaks["exactnum.entry_bits.max"], _entry_bits(result)
        )

    def reduce_result(args, result):
        tracer.totals["reduction.steps"] += len(result[1].steps)

    matrix = exactnum.Matrix
    tracer.wrap(matrix, "inverse", "exactnum.inverse", on_result=inverse_result)
    tracer.wrap(matrix, "det", "exactnum.det", key=lambda a: a[0])

    net = resistnet.Network
    tracer.wrap(net, "__init__", "resistnet.network")
    tracer.wrap(resistnet, "laplacian", "resistnet.laplacian")
    tracer.wrap(
        resistnet, "pseudo_inverse", "resistnet.pseudo_inverse", key=lambda a: a[0]
    )
    tracer.wrap(net, "resistance", "resistnet.query")
    tracer.wrap(net, "voltage", "resistnet.query")
    tracer.wrap(resistnet, "float_resistance", "resistnet.float_mirror")

    tracer.wrap(
        spantree, "count_matrix_tree", "spantree.count_matrix_tree",
        key=tree_structure,
    )
    # Both identified-count entry points feed one metric.
    tracer.wrap(spantree, "identified_count", "spantree.identified_count")
    tracer.wrap(spantree, "count_identified", "spantree.identified_count")
    tracer.wrap(
        spantree, "count_deletion_contraction", "spantree.count_deletion_contraction"
    )

    mg = graph.Multigraph
    for attr in (
        "identify", "contract_edge", "delete_edge", "delete_edges",
        "delete_vertex", "with_length", "with_unit_lengths",
    ):
        tracer.wrap(mg, attr, "graph.surgery")
    tracer.wrap(mg, "is_bridge", "graph.is_bridge")
    tracer.wrap(mg, "connected_components", "graph.components")
    for attr in ("sorted_vertices", "edges", "edge_ids"):
        tracer.wrap(mg, attr, "graph.sorted")

    for tag in list(verify.REGISTRY):
        tracer.wrap(
            verify.REGISTRY, tag, f"verify.tag.{tag}",
            on_call=lambda args: tracer.next_op(),
        )
    tracer.wrap(verify, "generate", "verify.generate")

    tracer.wrap(spantree, "morgan_voyce", "polyseq")
    tracer.wrap(spantree, "w_poly", "polyseq")
    tracer.wrap(polyseq.IntPolynomial, "__call__", "polyseq")

    for owner in (reduction, cli):
        tracer.wrap(
            owner, "reduce_two_terminal", "reduction.reduce", on_result=reduce_result
        )

    tracer.wrap(cli, "parse_graph_text", "cli.parse")
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            tracer.wrap(cli, attr, "cli.cmd")
