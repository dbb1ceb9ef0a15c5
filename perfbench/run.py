"""ohmtree benchmark: four closed-loop workloads, end-to-end metrics with
tracing off, and a traced run that splits the time by module.

    python3 perfbench/run.py --workload grid-query --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory, and everything the benchmark writes goes to ``.bench_out/``
there.  The report is printed first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every oracle passed.

``--trace 0`` runs passes of the workload for ``--seconds`` of busy time and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs the
workload's fixed number of passes once untraced and once traced, reports the
per-layer metrics and writes every span to ``.bench_out/spans/``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
PROBE_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = (
    "resistance", "voltage", "euler", "spantree-matrix", "spantree-dc",
    "reduce", "closed-form",
)


def _tags():
    from ohmtree.verify import ALL_TAGS

    return ALL_TAGS


def per_layer_units() -> dict:
    """Every per-layer metric and its unit, in report order."""
    units = {}
    for name in ("inverse", "det"):
        units[f"exactnum.{name}.calls"] = "count"
        units[f"exactnum.{name}.s"] = "s"
    units["exactnum.inverse.max_dim"] = "rows"
    units["exactnum.det.distinct"] = "count"
    units["exactnum.entry_bits.max"] = "bits"
    units.update({
        "resistnet.network.builds": "count",
        "resistnet.pseudo_inverse.calls": "count",
        "resistnet.pseudo_inverse.distinct": "count",
        "resistnet.pseudo_inverse.reuse": "ratio",
        "resistnet.pseudo_inverse.s": "s",
        "resistnet.laplacian.s": "s",
        "resistnet.query.calls": "count",
        "resistnet.query.s": "s",
        "resistnet.float_mirror.s": "s",
        "resistnet.first_answer_ms": "ms",
        "resistnet.query_us": "us",
        "spantree.count_matrix_tree.calls": "count",
        "spantree.count_matrix_tree.distinct": "count",
        "spantree.count_matrix_tree.reuse": "ratio",
        "spantree.count_matrix_tree.s": "s",
        "spantree.identified_count.calls": "count",
        "spantree.identified_count.s": "s",
        "spantree.count_deletion_contraction.s": "s",
    })
    for name in ("surgery", "is_bridge", "components", "sorted"):
        units[f"graph.{name}.calls"] = "count"
        units[f"graph.{name}.s"] = "s"
    for tag in _tags():
        units[f"verify.tag.{tag}.s"] = "s"
        units[f"verify.tag.{tag}.checks"] = "count"
        units[f"verify.tag.{tag}.skipped"] = "count"
    units["verify.generate.s"] = "s"
    units.update({
        "polyseq.s": "s",
        "reduction.reduce.calls": "count",
        "reduction.reduce.s": "s",
        "reduction.steps": "count",
        "cli.interp_ms": "ms",
        "cli.import_ms": "ms",
        "cli.import_numpy_ms": "ms",
        "cli.parse_s": "s",
        "cli.invoke_ms.p50": "ms",
    })
    for cmd in CLI_COMMANDS:
        units[f"cli.cmd.{cmd}.ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env() -> dict:
    """The fixed environment of every child process."""
    return {
        "PATH": os.defpath,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
    }


def timed_child(cmd, env) -> float:
    """Run one child to completion; its wall time in seconds."""
    t = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"child {cmd[2:]} exited {proc.returncode}: {proc.stderr}")
    return elapsed


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(1000 * (1 - 10 / n)) / 10
    rank = max(1, math.ceil(p / 100 * n))
    return p, sorted(values)[rank - 1]


def describe(name, values, unit) -> str:
    text = f"p50 {statistics.median(values):.4g} {unit}"
    t = tail(values)
    if t:
        text += f", p{t[0]:g} {t[1]:.4g} {unit}"
    return f"  {name:<16} {text}  (n={len(values)})"


def merge_samples(into: dict, samples: dict) -> None:
    for k, v in samples.items():
        into.setdefault(k, []).extend(v)


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl, inp, inprocess=False):
        """One pass; returns (busy seconds, output or None if it raised)."""
        t = perf_counter()
        try:
            out = wl.run(inp, inprocess=inprocess)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return perf_counter() - t, None
        busy = perf_counter() - t
        self.attempted += out.ops
        return busy, out

    def check(self, wl, inp, out) -> None:
        """The pass's oracles, outside the timed region."""
        if out is None:
            return
        try:
            self.failed += wl.check(inp, out)
        except Exception:
            traceback.print_exc()
            self.failed += out.ops

    def run_and_check(self, wl, inp, inprocess=False):
        busy, out = self.run(wl, inp, inprocess)
        self.check(wl, inp, out)
        return busy, out

    def repeat(self, first, again) -> None:
        """A rerun of the same inputs must give the same answers."""
        self.attempted += 1
        if first is None or again is None or first.digest != again.digest:
            print("repeat of one input gave different answers", file=sys.stderr)
            self.failed += 1


def run_untraced(wl, seconds, env):
    tally = Tally()
    setup_cmd = [
        str(ROOT / "perfbench" / "run.py"), "--workload", wl.name,
        "--seed", str(wl.seed), "--setup-only",
    ]
    from workloads import child_command

    timed_child(child_command(*setup_cmd), env)  # fills the bytecode cache
    setups = [timed_child(child_command(*setup_cmd), env) for _ in range(SETUP_REPEATS)]

    durations, samples = [], {}
    busy = 0.0
    while busy < seconds:
        inp = wl.make_input(len(durations))
        dt, out = tally.run_and_check(wl, inp)
        busy += dt
        durations.append(dt)
        if out is not None:
            merge_samples(samples, out.samples)
    ops = tally.attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(durations),
        "ops_per_s": ops / busy,
        "peak_rss_mb": peak_rss_mb(wl),
    }
    print(f"{wl.name} seed={wl.seed} trace=0: {len(durations)} passes, "
          f"{ops} {wl.unit} in {busy:.2f} s busy")
    print(f"  {'setup_s':<16} {metrics['setup_s']:.4f} s  (median of {len(setups)} set-ups)")
    print(describe("wall_s", durations, "s"))
    print(f"  {'ops_per_s':<16} {metrics['ops_per_s']:.4f} {wl.unit}/s  (n={ops})")
    for key, unit in (("first_answer_ms", "ms"), ("query_us", "us"), ("invoke_ms", "ms")):
        if samples.get(key):
            print(describe(key, samples[key], unit))
    print(f"  {'fail_ratio':<16} {tally.failed / max(1, tally.attempted):.4g}  "
          f"({tally.failed} of {tally.attempted})")
    print(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:.1f} MB")
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def startup_probes(env) -> dict:
    from workloads import child_command

    def median_ms(code):
        return 1e3 * statistics.median(
            timed_child(child_command("-c", code), env) for _ in range(PROBE_REPEATS)
        )

    timed_child(child_command("-c", "import ohmtree"), env)  # fills the bytecode cache
    interp = median_ms("pass")
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": median_ms("import ohmtree") - interp,
        "cli.import_numpy_ms": median_ms("import numpy") - interp,
    }


def run_traced(wl, seconds, env):
    from tracer import Tracer, install

    tally = Tally()
    inputs = [wl.make_input(i) for i in range(wl.trace_passes)]
    plain, samples, plain_busy = [], {}, 0.0
    for inp in inputs:
        dt, out = tally.run_and_check(wl, inp)
        plain.append(out)
        plain_busy += dt
        if out is not None:
            merge_samples(samples, out.samples)
        if plain_busy > seconds:  # cap for a much slower program
            break
    inputs = inputs[: len(plain)]
    if wl.name == "cli-oneshot":  # the traced run is in-process
        ref_busy = sum(tally.run_and_check(wl, inp, inprocess=True)[0] for inp in inputs)
    else:
        ref_busy = plain_busy

    tracer = Tracer()
    install(tracer)
    traced, traced_busy = [], 0.0
    try:
        for inp in inputs:
            tracer.next_op()
            dt, out = tally.run(wl, inp, inprocess=True)
            traced.append(out)
            traced_busy += dt
    finally:
        tracer.uninstall()
    for inp, a, b in zip(inputs, plain, traced):
        tally.check(wl, inp, b)
        tally.repeat(a, b)

    missing = sorted(set(wl.layers) - tracer.layers_with_spans())
    if missing:
        print(f"no spans recorded in declared layers: {missing}", file=sys.stderr)
        tally.failed += len(missing)
        tally.attempted += len(missing)

    calls, self_s, keys = tracer.calls, tracer.self_s, tracer.keys
    m = dict.fromkeys(per_layer_units(), 0)
    for k in m:
        base, _, kind = k.rpartition(".")
        if kind == "calls":
            m[k] = calls[base]
        elif kind == "s":
            m[k] = self_s[base]
        elif kind == "distinct":
            m[k] = len(keys[base])
        elif kind == "reuse":
            m[k] = len(keys[base]) / calls[base] if calls[base] else 0
    m.update(tracer.peaks)
    m.update(tracer.totals)
    m["resistnet.network.builds"] = calls["resistnet.network"]
    m["cli.parse_s"] = self_s["cli.parse"]
    if samples.get("first_answer_ms"):
        m["resistnet.first_answer_ms"] = statistics.median(samples["first_answer_ms"])
        m["resistnet.query_us"] = statistics.median(samples["query_us"])
    if wl.unit == "checks":
        for out in traced:
            if out is None:
                continue
            for tag, n in wl.tag_checks(out.result).items():
                m[f"verify.tag.{tag}.checks"] += n
                m[f"verify.tag.{tag}.skipped"] += out.result.skipped.get(tag, 0)
    if wl.name == "cli-oneshot":
        m.update(startup_probes(env))
        m["cli.invoke_ms.p50"] = statistics.median(samples["invoke_ms"])
        for cmd in CLI_COMMANDS:
            m[f"cli.cmd.{cmd}.ms"] = statistics.median(samples[f"cmd:{cmd}"])
    m["trace.overhead_ratio"] = traced_busy / ref_busy if ref_busy else 0

    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_file = spans_dir / f"{wl.name}-seed{wl.seed}.tsv"
    tracer.write(spans_file)

    print(f"{wl.name} seed={wl.seed} trace=1: {len(inputs)} passes untraced "
          f"{ref_busy:.2f} s, traced {traced_busy:.2f} s; "
          f"{len(tracer.start)} spans in {spans_file.relative_to(ROOT)}")
    units = per_layer_units()
    for k, v in m.items():
        if v:
            print(f"  {k:<40} {v:.6g} {units[k]}")
    return tally, {k: {"value": v, "unit": units[k]} for k, v in m.items()}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    results = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
    print(json.dumps({
        "correct": all(r.get("correct") for r in results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {
            f"{name}.{k}": v for name, r in results.items()
            for k, v in r.get("metrics", {}).items()
        },
    }))
    return code or (0 if all(r.get("correct") for r in results.values()) else 1)


def import_program() -> bool:
    """Import ohmtree from src/ next to the benchmark, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "ohmtree" / "__init__.py").is_file():
        print(f"error: no ohmtree sources under {src}", file=sys.stderr)
        return False
    # Bytecode of this process and of every child goes here, never into src/.
    sys.pycache_prefix = str(OUT / "pycache")
    sys.path.insert(0, str(src))
    import ohmtree

    if Path(ohmtree.__file__).resolve().parent != (src / "ohmtree").resolve():
        print(f"error: imported ohmtree from {ohmtree.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="grid-query, verify-sampled, verify-exhaustive, cli-oneshot or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times set-up in a fresh process)")
    args = parser.parse_args(argv)

    if not import_program():
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    env = child_env()
    wl = WORKLOADS[args.workload](args.seed, OUT, env)
    if args.setup_only:
        wl.make_input(0)
        return 0
    if args.trace:
        tally, metrics = run_traced(wl, args.seconds, env)
    else:
        tally, metrics = run_untraced(wl, args.seconds, env)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
