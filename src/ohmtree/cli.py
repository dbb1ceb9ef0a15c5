"""Command-line front end.

Graph files are line oriented:

    # comment
    vertex a            (optional; endpoints of edges are declared implicitly)
    edge e1 a b 2/3     (length defaults to 1; integers and p/q accepted)

Graph files are read as UTF-8.  Exact fractions are the primary output
(first line, as num/den), printed in full however many digits they have; a
12 significant digit decimal follows where that helps a human.  Exit codes:
0 ok, 1 verification failures, 2 parse error, 3 disconnected graph,
4 unknown vertex or edge, 5 violated hypothesis, bad parameters or an
exceeded budget (``spantree --method enum``, ``dc`` or ``vertex-del``), 141
(128 + SIGPIPE) when the reader of stdout goes away, as in
``ohmtree verify | head -1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from . import resistnet
from .graph import (
    DisconnectedError,
    GraphError,
    Multigraph,
    PreconditionError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .reduction import reduce_two_terminal
from .resistnet import Network

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_UNKNOWN_ID = 4
EXIT_PRECONDITION = 5
EXIT_PIPE = 141


class GraphFileError(ValueError):
    pass


def parse_graph_text(text: str) -> Multigraph:
    vertices = set()
    edges = []
    seen_ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 2:
                raise GraphFileError(f"line {lineno}: vertex takes one id")
            vertices.add(parts[1])
        elif kind == "edge":
            if len(parts) not in (4, 5):
                raise GraphFileError(
                    f"line {lineno}: edge takes id, two endpoints, optional length"
                )
            eid, u, v = parts[1:4]
            if eid in seen_ids:
                raise GraphFileError(f"line {lineno}: duplicate edge id {eid}")
            seen_ids.add(eid)
            length = Fraction(1)
            if len(parts) == 5:
                try:
                    length = Fraction(parts[4])
                except (ValueError, ZeroDivisionError) as exc:
                    raise GraphFileError(
                        f"line {lineno}: bad length {parts[4]!r}"
                    ) from exc
                if length <= 0:
                    raise GraphFileError(f"line {lineno}: length must be positive")
            vertices.update((u, v))
            edges.append((eid, u, v, length))
        else:
            raise GraphFileError(f"line {lineno}: unknown directive {kind!r}")
    if not vertices:
        raise GraphFileError("graph file declares no vertices")
    return Multigraph(vertices, edges)


def load_graph(path: str) -> Multigraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFileError(f"cannot read {path}: {exc}") from exc
    return parse_graph_text(text)


def _print_fraction(x: Fraction) -> None:
    print(f"{x.numerator}/{x.denominator}")
    if not x or sys.float_info.min <= abs(x) <= sys.float_info.max:
        print(f"{x.numerator / x.denominator:.12g}")
        return
    with localcontext() as ctx:  # outside the normal float range: round in decimal
        ctx.prec = 12
        print(f"{Decimal(x.numerator) / x.denominator:.12g}")


# subcommand, help, positional names after the file, value on the network;
# Network methods are looked up per call, so a wrapper set on them is seen
VALUE_COMMANDS = (
    (
        "resistance",
        "effective resistance between two vertices",
        ("p", "q"),
        lambda net, *a: net.resistance(*a),
    ),
    ("voltage", "voltage j_z(x, y)", ("z", "x", "y"), lambda net, *a: net.voltage(*a)),
    (
        "derivative",
        "derivative of r(s,t) in an edge length",
        ("edge", "s", "t"),
        resistnet.resistance_derivative,
    ),
)


def cmd_value(args) -> int:
    net = Network(load_graph(args.file))
    _print_fraction(args.value(net, *(getattr(args, k) for k in args.names)))
    return 0


def cmd_spantree(args) -> int:
    from . import spantree

    g = load_graph(args.file)
    if args.method == "matrix":
        t = spantree.count_matrix_tree(g)
    elif args.method == "dc":
        t = spantree.count_deletion_contraction(g)
    elif args.method == "enum":
        t = spantree.count_enumeration(g)
    elif g.n < 2 or not g.is_connected():  # vertex-del needs n >= 2, connected
        t = spantree.count_matrix_tree(g)
    else:  # the count is the same at any removable vertex: take one of least degree
        u = min(spantree.removable_vertices(g), key=g.degree)
        t = spantree.vertex_deletion_count(g, u)
    print(t)
    return 0


def cmd_identify(args) -> int:
    g = load_graph(args.file)
    groups = [grp.split(",") for grp in args.group]
    merged, _ = g.identify(groups)
    sys.stdout.write(merged.canonical_text())
    return 0


def cmd_euler(args) -> int:
    net = Network(load_graph(args.file))
    if args.form == "I":
        terms = resistnet.euler_decomposition(net, args.s, args.t)
    else:
        terms = resistnet.euler_decomposition_resistance_only(net, args.s, args.t)
    total = Fraction(0)
    for term in terms:
        c = term.contribution
        print(f"{term.edge} {term.kind} {c.numerator}/{c.denominator}")
        total += c
    print(f"total {total.numerator}/{total.denominator}")
    return 0


def cmd_reduce(args) -> int:
    g = load_graph(args.file)
    value, trace = reduce_two_terminal(g, args.s, args.t)
    if value is None:
        print("not-reducible")
    else:
        print(f"{value.numerator}/{value.denominator}")
    sys.stdout.write(trace.text())
    return 0


def cmd_closed_form(args) -> int:
    from . import spantree

    print(spantree.closed_form(args.family, args.n, args.a))
    return 0


def cmd_verify(args) -> int:
    from . import verify

    tags = args.tags.split(",") if args.tags else list(verify.ALL_TAGS)
    spec = verify.GraphGenSpec(seed=args.seed)
    result = verify.run_suite(
        spec,
        tags,
        instances=args.count,
        samples=args.samples,
        exhaustive=args.exhaustive,
    )
    for report in result.reports:
        print(report.line())
    failures = sum(1 for r in result.reports if not r.passed)
    skipped = {t: n for t, n in result.skipped.items() if n}
    print(
        f"checked {len(result.reports)} identities, {failures} failures, "
        f"skipped selections: {skipped or 'none'}",
        file=sys.stderr,
    )
    if result.unchecked_tags:
        print(
            f"error: no identity checked for tags: {','.join(result.unchecked_tags)}",
            file=sys.stderr,
        )
    return 0 if result.all_passed() else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohmtree",
        description="Exact resistance, voltage, and spanning-tree computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, names, value in VALUE_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in ("file", *names):
            p.add_argument(arg)
        p.set_defaults(func=cmd_value, value=value, names=names)

    p = sub.add_parser("spantree", help="number of spanning trees")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=("matrix", "dc", "enum", "vertex-del"),
        default="matrix",
    )
    p.set_defaults(func=cmd_spantree)

    p = sub.add_parser("identify", help="identify vertex groups, print the graph")
    p.add_argument("file")
    p.add_argument(
        "--group",
        action="append",
        required=True,
        help="comma-separated vertices to merge; repeatable",
    )
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("euler", help="per-edge split of the resistance")
    p.add_argument("file")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--form", choices=("I", "II"), default="I")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("reduce", help="series/parallel/delta-wye reduction")
    p.add_argument("file")
    p.add_argument("s")
    p.add_argument("t")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("closed-form", help="closed-form spanning-tree counts")
    p.add_argument("family", choices=("path", "cycle", "banana", "complete", "fan", "wheel"))
    p.add_argument("n", type=int)
    p.add_argument("a", type=int, nargs="?", default=1)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("verify", help="run the seeded identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20, help="instances to generate")
    p.add_argument("--samples", type=int, default=6, help="selections per instance")
    p.add_argument("--tags", default="", help="comma-separated tags (default: all)")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # exact answers can outgrow the int <-> str digit limit (Python 3.10.7+);
    # lift it for this call only, so importing the library changes nothing
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; as the Python docs advise for SIGPIPE, point
        # stdout at devnull so the final flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except GraphFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (UnknownVertexError, UnknownEdgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ID
    except (PreconditionError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
