"""Mutation check: do the law and kernel tests notice a broken formula?

    python3 mutcheck/run.py

Each mutant is one textual replacement in one module of ``src/ohmtree``: a
flipped sign, an off-by-one shift, a dropped correction or a swapped
argument in a shared helper.  For each mutant the script copies ``src/`` to
a temporary directory, applies the replacement there (its text must occur
exactly once) and runs the property, graph, reduction, tree-count,
network, kernel, polynomial and identity-suite tests against the copy with
``pytest -x``.
The mutant is killed when pytest fails.  The unmutated copy is run first
and must pass.

Exits 1 when a mutant survives or no longer applies, 2 when the unmutated
copy fails.  A surviving mutant calls for a new test; it is never taken off
the list.  Needs only the standard library besides the tests' own pytest
and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = [
    "tests/test_properties.py",
    "tests/test_graph.py",
    "tests/test_reduction.py",
    "tests/test_spantree.py",
    "tests/test_resistnet.py",
    "tests/test_exactnum.py",
    "tests/test_polyseq.py",
    "tests/test_verify.py",
]
TIMEOUT_S = 600

# (name, module, text, replacement)
MUTANTS = [
    (
        "quadratic-sign",
        "spantree.py",
        "+ sign * bracket * bracket",
        "- sign * bracket * bracket",
    ),
    (
        "quadratic-drop-pair",
        "spantree.py",
        "identified_count(h, pair, (s, t))",
        "identified_count(h, (s, t))",
    ),
    (
        "identified-merged-nonzero",
        "spantree.py",
        "if len(block) < 2 or any(block <= b for b in blocks):",
        "if len(block) < 2:",
    ),
    (
        "bracket-sign",
        "spantree.py",
        "- identified_count(graph, (q, s))\n        - identified_count(graph, (p, t))",
        "+ identified_count(graph, (q, s))\n        - identified_count(graph, (p, t))",
    ),
    (
        "contracted-keeps-ends",
        "spantree.py",
        "identified_count(graph.delete_edge(e), graph.endpoints(e))",
        "identified_count(graph.delete_edge(e))",
    ),
    (
        "subsets-off-by-one",
        "spantree.py",
        "range(smallest, len(weighted) + 1)",
        "range(smallest, len(weighted))",
    ),
    (
        "glue-shared-interior",
        "spantree.py",
        "vmap = {v: (i, v) for v in g.vertices()}",
        "vmap = {v: (0, v) for v in g.vertices()}",
    ),
    (
        "banana-cross-sum",
        "spantree.py",
        "enumerate(tpqs) if j != i)",
        "enumerate(tpqs) if j > i)",
    ),
    (
        "cycle-replacement-unswapped",
        "spantree.py",
        "return union_k_banana(t_st_list, t_list)",
        "return union_k_banana(t_list, t_st_list)",
    ),
    (
        "vertex-del-lead-neighbour-count",
        "spantree.py",
        "total = sum(a for _, a in neighbors) * count_matrix_tree(h)",
        "total = len(neighbors) * count_matrix_tree(h)",
    ),
    (
        "closed-form-at-one",
        "spantree.py",
        "return a * w_poly(n - 1, a)",
        "return a * w_poly(n - 1, 1)",
    ),
    (
        "three-vertex-bracket",
        "spantree.py",
        "a1 * (-a2 + b2 + c2)",
        "a1 * (a2 + b2 + c2)",
    ),
    (
        "cut-admits-bridge",
        "resistnet.py",
        "    if net.graph.is_bridge(e):\n",
        "    if False:\n",
    ),
    (
        "cut-doubled-resistance",
        "resistnet.py",
        "return deleted, deleted.resistance(ed.u, ed.v),",
        "return deleted, 2 * deleted.resistance(ed.u, ed.v),",
    ),
    (
        "cut-swapped-voltage",
        "resistnet.py",
        "partial(deleted.voltage, ed.u, ed.v)",
        "partial(deleted.voltage, ed.v, ed.u)",
    ),
    (
        "loop-or-bridge-loop",
        "resistnet.py",
        "    if ed.is_loop():\n        return Fraction(0)\n    kind",
        "    if ed.is_loop():\n        return drop\n    kind",
    ),
    (
        "loop-or-bridge-drop",
        "resistnet.py",
        'return drop if kind == "bridge-on-path" else Fraction(0)',
        "return Fraction(0)",
    ),
    (
        "euler-uniform-term",
        "resistnet.py",
        "** 2 / L)",
        "** 2 / (2 * L))",
    ),
    (
        "euler-split-label-pair",
        "resistnet.py",
        "g.bridge_kind(ed.id, s, t), term(",
        "g.bridge_kind(ed.id, s, s), term(",
    ),
    (
        "pseudo-inverse-centring",
        "resistnet.py",
        "nn * x - n * (a + b) + total",
        "nn * x - n * (a + b) - total",
    ),
    (
        "laplacian-conductance-swapped",
        "resistnet.py",
        "d // e.length.numerator * e.length.denominator",
        "d // e.length.denominator * e.length.numerator",
    ),
    (
        "laplacian-unit-denominator",
        "resistnet.py",
        "return Matrix.from_integer_rows(rows, d)",
        "return Matrix.from_integer_rows(rows, 1)",
    ),
    (
        "query-numerator",
        "resistnet.py",
        "m[i][i] - 2 * m[i][j] + m[j][j]",
        "m[i][i] - 1 * m[i][j] + m[j][j]",
    ),
    (
        "poly-truncates-coefficients",
        "polyseq.py",
        "list(index(c) for c in coeffs)",
        "list(int(c) for c in coeffs)",
    ),
    (
        "recurrence-shift",
        "polyseq.py",
        "for _ in range(n - 1):",
        "for _ in range(n):",
    ),
    (
        "recurrence-sign",
        "polyseq.py",
        "step * cur + sign * prev + shift",
        "step * cur - sign * prev + shift",
    ),
    (
        "invert-unswapped-rhs",
        "exactnum.py",
        "any(a[r][col] != 0 for r in range(col + 1, n))",
        "any(a[r][col] != 0 for r in range(col + 2, n))",
    ),
    (
        "invert-forward-only",
        "exactnum.py",
        "if r == col or a[r][col] == 0:",
        "if r <= col or a[r][col] == 0:",
    ),
    (
        "drop-row-past-end",
        "exactnum.py",
        "0 <= i < self.rows and",
        "0 <= i <= self.rows and",
    ),
    (
        "row-reads-from-end",
        "exactnum.py",
        "if not 0 <= i < self.rows:",
        "if not -self.rows <= i < self.rows:",
    ),
    (
        "det-swap-sign",
        "exactnum.py",
        "any(w[r][k] for r in range(k + 1, n))",
        "any(w[r][k] for r in range(k + 2, n))",
    ),
    (
        "det-bareiss-divisor",
        "exactnum.py",
        "        prev = p\n",
        "        prev = 1\n",
    ),
    (
        "inverse-current-pivot-divisor",
        "exactnum.py",
        "(row[j] * p - f * top[j]) // prev",
        "(row[j] * p - f * top[j]) // p",
    ),
    (
        "inverse-forward-only",
        "exactnum.py",
        "                if u:\n",
        "                if False:\n",
    ),
    (
        "inverse-unscaled-identity",
        "exactnum.py",
        "*(d * (i == j) for j in range(n))",
        "*(1 * (i == j) for j in range(n))",
    ),
    (
        "inverse-first-pivot",
        "exactnum.py",
        "    return prev\n",
        "    return w[0][0] if n else 1\n",
    ),
    (
        "lazy-pivot-row-stale",
        "exactnum.py",
        "        if base[k] != prev:\n",
        "        if False:\n",
    ),
    (
        "lazy-base-kept-after-update",
        "exactnum.py",
        "                base[i] = p\n",
        "",
    ),
    (
        "lazy-base-unswapped",
        "exactnum.py",
        "            if any(w[r][k] for r in range(k + 1, n)):\n",
        "            if False:\n",
    ),
    (
        "lazy-catch-up-inverted",
        "exactnum.py",
        "[x * prev // base[k] for x in top[k:]]",
        "[x * base[k] // prev for x in top[k:]]",
    ),
    (
        "memo-key-without-kind",
        "exactnum.py",
        '("inverse", self)',
        '("det", self)',
    ),
    (
        "memo-left-on-after-scope",
        "exactnum.py",
        "        _memo = outer\n",
        "        pass\n",
    ),
    (
        "matrix-unreduced",
        "exactnum.py",
        "g = gcd(den, *chain.from_iterable(num))",
        "g = 1",
    ),
    (
        "matrix-negative-denominator",
        "exactnum.py",
        "g = -g if den < 0 else g",
        "g = g",
    ),
    (
        "det-denominator-power",
        "exactnum.py",
        "self._den ** self.rows)",
        "self._den)",
    ),
    (
        "backsub-last-pivot-divisor",
        "exactnum.py",
        "y[i] = [a // row[i] for a in acc]",
        "y[i] = [a // last for a in acc]",
    ),
    (
        "backsub-unscaled-rhs",
        "exactnum.py",
        "acc = [last * x for x in row[n:]]",
        "acc = list(row[n:])",
    ),
    (
        "backsub-tridiagonal",
        "exactnum.py",
        "for j in range(i + 1, n):",
        "for j in range(i + 1, min(i + 2, n)):",
    ),
    (
        "dc-deletion-unsearched",
        "spantree.py",
        "(g.delete_edge(e), True)",
        "(g.delete_edge(e), False)",
    ),
    (
        "dc-contracts-through-memo",
        "graph.py",
        "return self.delete_edge(e)._identified_by(frozenset([ends]))",
        "return self.delete_edge(e).identify([ends])",
    ),
    (
        "union-fixed-tag",
        "spantree.py",
        '_first_free((f"u{k}" for k in count(2)), taken)',
        '"u2"',
    ),
    (
        "reduce-fresh-id-ignores-kept",
        "reduction.py",
        "_first_free(ids, {ed.id for ed in kept})",
        "next(ids)",
    ),
    (
        "dc-root-connectivity-unchecked",
        "spantree.py",
        "    if not graph.is_connected():\n        return 0\n    total, nodes",
        "    total, nodes",
    ),
    (
        "laplacian-diagonal",
        "graph.py",
        "rows[j][j] += c\n",
        "rows[j][j] += c + c\n",
    ),
    (
        "bridge-memo-fixed-key",
        "graph.py",
        "return memo[e]",
        "return memo[next(iter(memo))]",
    ),
    (
        "bridge-separates-wrong-pair",
        "graph.py",
        "memo[e] = self.separates(e, *self.endpoints(e))",
        "memo[e] = self.separates(e, self.endpoints(e)[0], self.sorted_vertices()[0])",
    ),
    (
        "identify-kept-any-partition",
        "graph.py",
        '("identify", self, groups)',
        '("identify", self)',
    ),
    (
        "identify-keeps-every-result",
        "graph.py",
        "return graph, dict(renames)",
        "return graph, renames",
    ),
    (
        "cut-graph-kept-without-edge",
        "resistnet.py",
        '("cut", self.graph, e)',
        '("cut", self.graph)',
    ),
    (
        "identify-overlap-unchecked",
        "graph.py",
        "if seen.intersection(group):",
        "if False:",
    ),
    (
        "delete-vertex-stale-index",
        "graph.py",
        "{w: i for i, w in enumerate(w for w in self._index if w != v)}",
        "self._index",
    ),
    (
        "identify-merges-singletons",
        "graph.py",
        "for group in (g for g in groups if len(g) > 1):",
        "for group in groups:",
    ),
    (
        "identify-unsorted-index",
        "graph.py",
        "_positions(set(renames.values()))",
        "{w: i for i, w in enumerate(set(renames.values()))}",
    ),
    (
        "reach-crosses-avoided-edge",
        "graph.py",
        "if eid != avoid_edge:",
        "if True:",
    ),
    (
        "spokes-skip-last-vertex",
        "graph.py",
        "for i in range(1, n + 1) for j in range(1, a + 1)",
        "for i in range(1, n) for j in range(1, a + 1)",
    ),
    (
        "law-skips-uncounted",
        "verify.py",
        "checks.count(None)",
        "0",
    ),
    (
        "law-no-names-draws-samples",
        "verify.py",
        "if exhaustive or not pools:",
        "if exhaustive:",
    ),
    (
        "vol-transfer-degenerate-t",
        "verify.py",
        "((u, t), (p, t), (u, p))",
        "((u, t), (p, t), (u, t))",
    ),
    (
        "lazy-unknown-name-resolves",
        "__init__.py",
        'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")',
        "return None",
    ),
]


def run_tests(src: Path, cwd: Path) -> bool:
    """True when the tests pass against the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += [str(ROOT / t) for t in TESTS]
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("*.egg-info"))
        t0 = time.perf_counter()
        if not run_tests(src, tmp):
            print("unmutated source fails the tests; nothing to check")
            return 2
        print(f"unmutated source passes ({time.perf_counter() - t0:.1f} s)")
        bad = []
        for name, module, text, replacement in MUTANTS:
            path = src / "ohmtree" / module
            original = path.read_text()
            found = original.count(text)
            if found != 1:
                print(f"{name:30} STALE: text found {found} times in {module}")
                bad.append(name)
                continue
            path.write_text(original.replace(text, replacement))
            t0 = time.perf_counter()
            killed = not run_tests(src, tmp)
            path.write_text(original)
            status = "killed" if killed else "SURVIVED"
            print(f"{name:30} {status} ({time.perf_counter() - t0:.1f} s)")
            if not killed:
                bad.append(name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
