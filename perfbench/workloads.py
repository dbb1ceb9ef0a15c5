"""The four benchmark workloads.

Every workload is a closed loop with a single client: the next call is made
only after the previous answer is back, in one process and one thread.  A
workload is run in passes, and the same seed gives the same inputs.  In the
in-process workloads pass ``i`` draws its inputs from ``(seed, i)``, so no
pass can be answered from a cache another pass filled; the command-line
workload repeats one mix, since every child process starts empty.

A workload provides:

* ``make_input(i)``: the inputs of pass ``i``, built outside the timed region;
* ``run(inp, inprocess)``: one pass, timed by the caller, returning a
  :class:`PassOutput`;
* ``check(inp, out)``: the correctness oracles, run outside the timed region,
  returning the number of failed operations of the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import ohmtree
from ohmtree import cli, resistnet, spantree, verify


@dataclass
class PassOutput:
    ops: int  # operations attempted in the pass
    result: object  # what the oracles check
    digest: str  # stable fingerprint of the answers
    samples: dict = field(default_factory=dict)  # latency samples by metric


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def weighted_grid(k: int, rng: random.Random) -> ohmtree.Multigraph:
    """k x k grid whose edge lengths are small random rationals."""
    def length():
        return Fraction(rng.randint(1, 4), rng.randint(1, 4))

    vs = [f"x{i}_{j}" for i in range(k) for j in range(k)]
    es = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                es.append((f"h{i}_{j}", f"x{i}_{j}", f"x{i + 1}_{j}", length()))
            if j + 1 < k:
                es.append((f"v{i}_{j}", f"x{i}_{j}", f"x{i}_{j + 1}", length()))
    return ohmtree.Multigraph(vs, es)


class GridQuery:
    """One seeded weighted k x k grid per pass: build the network, wait for
    the first resistance (this pays for the Laplacian inverse), answer a
    fixed batch of queries from the cached pseudo-inverse, then count the
    spanning trees of the grid and of a wheel and a fan."""

    name = "grid-query"
    unit = "grids"
    layers = ("exactnum", "resistnet", "spantree", "graph")
    trace_passes = 3
    K = 7  # n = 49: about 1.4 s per inverse at this commit
    QUERIES = 200
    FAMILY_N = 12

    def __init__(self, seed: int, out_dir: Path, env: dict):
        self.seed = seed

    def make_input(self, i: int):
        rng = random.Random(f"grid-query:{self.seed}:{i}")
        g = weighted_grid(self.K, rng)
        vs = g.sorted_vertices()
        queries = [
            ("r", (rng.choice(vs), rng.choice(vs)))
            if q % 2 == 0
            else ("v", (rng.choice(vs), rng.choice(vs), rng.choice(vs)))
            for q in range(self.QUERIES)
        ]
        corners = ("x0_0", f"x{self.K - 1}_{self.K - 1}")
        return g, corners, queries

    def run(self, inp, inprocess) -> PassOutput:
        g, (a, b), queries = inp
        t0 = perf_counter()
        net = ohmtree.Network(g)
        first = net.resistance(a, b)
        first_ms = (perf_counter() - t0) * 1e3
        answers = [first]
        query_us = []
        for kind, args in queries:
            t = perf_counter()
            answers.append(net.resistance(*args) if kind == "r" else net.voltage(*args))
            query_us.append((perf_counter() - t) * 1e6)
        counts = [
            spantree.count_matrix_tree(g),
            spantree.count_matrix_tree(ohmtree.wheel_graph(self.FAMILY_N)),
            spantree.count_matrix_tree(ohmtree.fan_graph(self.FAMILY_N)),
        ]
        return PassOutput(
            1,
            (net, answers, counts),
            _digest([_frac(x) for x in answers] + [str(c) for c in counts]),
            {"first_answer_ms": [first_ms], "query_us": query_us},
        )

    def check(self, inp, out: PassOutput) -> int:
        g, _, queries = inp
        net, answers, counts = out.result
        foster = sum(
            (net.resistance(e.u, e.v) / e.length for e in g.edges()), Fraction(0)
        )
        ok = foster == g.n - 1
        for (kind, args), ans in zip(queries, answers[1:]):
            if kind == "r":
                p, q = args
                ok = ok and ans == net.resistance(q, p) == net.voltage(q, p, p)
        ok = ok and counts[1] == spantree.closed_form("wheel", self.FAMILY_N)
        ok = ok and counts[2] == spantree.closed_form("fan", self.FAMILY_N)
        return 0 if ok else 1


class _Suite:
    """Shared by the two verify workloads: one pass is one ``run_suite``
    call, and one operation is one identity check."""

    unit = "checks"
    layers = ("exactnum", "resistnet", "spantree", "graph", "verify")

    def __init__(self, seed: int, out_dir: Path, env: dict):
        self.seed = seed

    def make_input(self, i: int):
        # Pass 0 runs the suite at the workload seed itself.
        return self.spec(self.seed + 1000 * i)

    def run(self, spec, inprocess) -> PassOutput:
        res = verify.run_suite(spec, **self.suite_args)
        zero = sum(1 for n in self.tag_checks(res).values() if n == 0)
        return PassOutput(
            len(res.reports) + zero, res, _digest(r.line() for r in res.reports)
        )

    @staticmethod
    def tag_checks(res) -> dict:
        checks = {tag: 0 for tag in verify.ALL_TAGS}
        for r in res.reports:
            checks[r.tag] += 1
        return checks

    def check(self, spec, out: PassOutput) -> int:
        res = out.result
        zero = sum(1 for n in self.tag_checks(res).values() if n == 0)
        return zero + sum(1 for r in res.reports if not r.passed)


class VerifySampled(_Suite):
    """The default suite: 20 random instances (n = 3..6) x 6 samples, all
    21 tags."""

    name = "verify-sampled"
    trace_passes = 1
    suite_args = {}

    @staticmethod
    def spec(seed):
        return verify.GraphGenSpec(seed=seed)


class VerifyExhaustive(_Suite):
    """Every selection on one instance per pass, all 21 tags.  The shape is
    fixed at n = 4, m = 6 so that every pass costs about the same; with
    n = 4..5 and m <= 7 one pass takes 1 to 10 s and a run holds too few
    passes to give a steady rate."""

    name = "verify-exhaustive"
    trace_passes = 2
    suite_args = {"instances": 1, "exhaustive": True}

    @staticmethod
    def spec(seed):
        return verify.GraphGenSpec(seed=seed, n_min=4, n_max=4, m_min=6, m_max=6)


CHILD_MAIN = "import sys; from ohmtree.cli import main; sys.exit(main())"


def child_command(*args) -> list:
    """The interpreter with a fixed set of flags; the caller passes the
    fixed environment (``run.child_env``)."""
    return [sys.executable, "-s", *args]


class CliOneshot:
    """A fixed mix of ``ohmtree`` invocations, one child process at a time:
    resistance, voltage and euler on a small and a medium graph file,
    spantree by matrix-tree and by deletion-contraction on wheel_graph(8),
    reduce on a series-parallel file with at least six edges, and
    closed-form wheel N."""

    name = "cli-oneshot"
    unit = "invocations"
    layers = (
        "cli", "exactnum", "resistnet", "spantree", "graph", "polyseq", "reduction",
    )
    trace_passes = 1

    def __init__(self, seed: int, out_dir: Path, env: dict):
        self.seed = seed
        self.env = env
        self.dir = out_dir / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"cli-oneshot:{seed}")
        small = verify.generate(verify.GraphGenSpec(seed=seed), 0)
        medium = weighted_grid(5, rng)
        wheel = ohmtree.wheel_graph(8)
        sp_rng = random.Random(f"cli-oneshot:{seed}:sp")
        sp, s0, s1 = verify.generate_series_parallel(sp_rng)
        while sp.m < 6:  # a single edge would leave the reducer nothing to do
            sp, s0, s1 = verify.generate_series_parallel(sp_rng)
        self.graphs = {"small": small, "medium": medium, "wheel8": wheel, "sp": sp}
        for name, g in self.graphs.items():
            (self.dir / f"{name}.graph").write_text(g.canonical_text())
        self.mix = []
        for name in ("small", "medium"):
            vs = self.graphs[name].sorted_vertices()
            path = str(self.dir / f"{name}.graph")
            self.mix += [
                ("resistance", name, ["resistance", path, vs[0], vs[-1]]),
                ("voltage", name, ["voltage", path] + [rng.choice(vs) for _ in range(3)]),
                ("euler", name, ["euler", path, rng.choice(vs), rng.choice(vs)]),
            ]
        wheel_path = str(self.dir / "wheel8.graph")
        self.mix += [
            ("spantree-matrix", "wheel8", ["spantree", wheel_path, "--method", "matrix"]),
            ("spantree-dc", "wheel8", ["spantree", wheel_path, "--method", "dc"]),
            ("reduce", "sp", ["reduce", str(self.dir / "sp.graph"), s0, s1]),
            ("closed-form", None, ["closed-form", "wheel", str(8 + seed % 8)]),
        ]
        self.expected = None

    def expect(self) -> list:
        """Expected stdout of every invocation, computed by the library on
        the graph each file was written from; False where an independent
        cross-check of that answer fails."""
        out = []
        for cmd, name, argv in self.mix:
            g = self.graphs.get(name)
            ok = True
            if cmd in ("resistance", "voltage"):
                net = ohmtree.Network(g)
                x = net.resistance(*argv[2:]) if cmd == "resistance" else net.voltage(*argv[2:])
                text = f"{_frac(x)}\n{x.numerator / x.denominator:.12g}\n"
            elif cmd == "euler":
                net = ohmtree.Network(g)
                s, t = argv[2:]
                terms = resistnet.euler_decomposition(net, s, t)
                total = sum((term.contribution for term in terms), Fraction(0))
                text = "".join(
                    f"{term.edge} {term.kind} {_frac(term.contribution)}\n"
                    for term in terms
                ) + f"total {_frac(total)}\n"
                ok = total == net.resistance(s, t)
            elif cmd.startswith("spantree"):
                count = (
                    spantree.count_matrix_tree(g)
                    if cmd == "spantree-matrix"
                    else spantree.count_deletion_contraction(g)
                )
                text = f"{count}\n"
                ok = count == spantree.closed_form("wheel", 8)
            elif cmd == "reduce":
                s, t = argv[2:]
                value, trace = ohmtree.reduce_two_terminal(g, s, t)
                text = f"{_frac(value)}\n" + trace.text()
                ok = value == ohmtree.Network(g).resistance(s, t)
            else:
                n = int(argv[2])
                count = spantree.closed_form("wheel", n)
                text = f"{count}\n"
                ok = count == spantree.count_matrix_tree(ohmtree.wheel_graph(n))
            out.append(text if ok else False)
        return out

    def make_input(self, i: int):
        return self.mix

    def run(self, mix, inprocess) -> PassOutput:
        results = []
        samples = {"invoke_ms": []}
        for cmd, _, argv in mix:
            if inprocess:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                results.append((code, buf.getvalue()))
                continue
            t = perf_counter()
            proc = subprocess.run(
                child_command("-c", CHILD_MAIN, *argv),
                env=self.env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            ms = (perf_counter() - t) * 1e3
            samples["invoke_ms"].append(ms)
            samples.setdefault(f"cmd:{cmd}", []).append(ms)
            results.append((proc.returncode, proc.stdout))
        return PassOutput(
            len(mix), results, _digest(text for _, text in results), samples
        )

    def check(self, mix, out: PassOutput) -> int:
        if self.expected is None:
            self.expected = self.expect()
        return sum(
            1
            for (code, text), want in zip(out.result, self.expected)
            if code != 0 or want is False or text != want
        )


WORKLOADS = {
    w.name: w for w in (GridQuery, VerifySampled, VerifyExhaustive, CliOneshot)
}
