"""Self-test of the benchmark; compares counts, never times.

    python3 perfbench/selftest.py

* Every workload's traced run, made twice at one seed, gives identical
  operation counts (every ``.calls``, ``.distinct``, ``.checks``,
  ``.skipped`` metric and the other exact counts).
* The counts at the reference seeds are pinned: ``run_suite`` at seed 17
  with the defaults, and the exhaustive setup at seed 3 (n 4..5, m <= 7,
  3 instances).
* A traced run fails when a layer its workload declares records no span.
* The metric names run.py reports are exactly those of BENCHMARK.json.

Exits 1 and names every mismatch when a check fails.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import run

PINNED = {
    "verify-sampled@17": {
        "checks": 2614,
        "exactnum.inverse.calls": 1543,
        "resistnet.pseudo_inverse.distinct": 351,
        "exactnum.det.calls": 6873,
        "exactnum.det.distinct": 644,
    },
    "exhaustive@3": {
        "checks": 15159,
        "exactnum.inverse.calls": 12388,
        "resistnet.pseudo_inverse.distinct": 186,
        "exactnum.det.calls": 17271,
        "exactnum.det.distinct": 181,
    },
}

COUNT_SUFFIXES = (".calls", ".distinct", ".checks", ".skipped", ".builds", ".steps")


def traced_counts(wl):
    with contextlib.redirect_stdout(io.StringIO()):
        tally, metrics = run.run_traced(wl, 1e9, run.child_env())
    if tally.failed:
        raise RuntimeError(f"{wl.name}: {tally.failed} failed operations")
    counts = {
        k: v["value"] for k, v in metrics.items()
        if k.endswith(COUNT_SUFFIXES) or k in ("exactnum.inverse.max_dim", "exactnum.entry_bits.max")
    }
    counts["checks"] = sum(v for k, v in counts.items() if k.endswith(".checks"))
    return counts


def main() -> int:
    if not run.import_program():
        return 2
    from workloads import WORKLOADS, VerifyExhaustive

    class PinnedExhaustive(VerifyExhaustive):
        name = "verify-exhaustive-pinned"
        trace_passes = 1
        suite_args = {"instances": 3, "exhaustive": True}

        @staticmethod
        def spec(seed):
            from ohmtree import verify

            return verify.GraphGenSpec(seed=seed, n_min=4, n_max=5, m_max=7)

    errors = []
    env = run.child_env()
    seeds = {"verify-sampled": 17}
    for name, cls in WORKLOADS.items():
        seed = seeds.get(name, 1)
        first = traced_counts(cls(seed, run.OUT, env))
        again = traced_counts(cls(seed, run.OUT, env))
        diff = sorted(k for k in first if first[k] != again[k])
        print(f"{name}@{seed}: {len(first)} counts, {len(diff)} differ between two traced runs")
        errors += [f"{name}: {k} {first[k]} != {again[k]}" for k in diff]
        if name == "verify-sampled":
            pinned_17 = first
    pinned_3 = traced_counts(PinnedExhaustive(3, run.OUT, env))
    for label, got in (("verify-sampled@17", pinned_17), ("exhaustive@3", pinned_3)):
        for k, want in PINNED[label].items():
            status = "ok" if got[k] == want else "MISMATCH"
            print(f"{label}: {k} = {got[k]} (pinned {want}) {status}")
            if got[k] != want:
                errors.append(f"{label}: {k} = {got[k]}, pinned {want}")

    class Uncovered(WORKLOADS["grid-query"]):
        layers = WORKLOADS["grid-query"].layers + ("reduction",)
        trace_passes = 1

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tally, _ = run.run_traced(Uncovered(1, run.OUT, env), 1e9, env)
    print(f"coverage guard: a declared layer without spans fails {tally.failed} operation(s)")
    if tally.failed != 1:
        errors.append("a declared layer without spans did not fail the traced run")

    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    if [m["name"] for m in bench["end_to_end"]] != list(run.END_TO_END):
        errors.append("end_to_end names differ from run.END_TO_END")
    if [m["name"] for m in bench["per_layer"]] != list(run.per_layer_units()):
        errors.append("per_layer names differ from run.per_layer_units()")
    for m in bench["end_to_end"] + bench["per_layer"]:
        unit = run.END_TO_END.get(m["name"]) or run.per_layer_units().get(m["name"])
        if m["unit"] != unit:
            errors.append(f"{m['name']}: unit {m['unit']} != {unit}")

    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
