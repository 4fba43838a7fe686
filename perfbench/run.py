"""Benchmark for adicshift: one command, three workloads.

    python3 perfbench/run.py --workload recognize-scan --seed 1 \
        --seconds 40 --trace 0

Run from the repository root.  The workload's inputs come from --seed; its
operations run one at a time, in rounds of the same operations, while
another round still ends within --seconds (and until MIN_OPS operations
and MIN_ROUNDS rounds ran).  Every output is checked against
bench_oracles.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 one
untraced round is followed by one traced round, and the metrics are the
per-layer ones: calls, counts and self times per public function, plus the
tracing overhead.  Spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_workloads as wl  # noqa: E402
from bench_trace import Tracer, percentile, self_times  # noqa: E402

WORKLOADS = {w.name: w for w in (wl.RecognizeScan, wl.DiagramSurvey,
                                 wl.CliOneshot)}
SETUP_REPEATS = 5
MIN_OPS = 100
MIN_ROUNDS = 2
OUT = os.path.join(HERE, "out")

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER_COUNTS = (
    "words.factor_language.calls", "words.factor_language.built",
    "words.factor_language.max_cap", "words.factor_language.factors",
    "recognize.one_word_tilings.calls", "recognize.one_word_tilings.tilings",
    "recognize.parse_chains", "recognize.ambiguity_reports",
    "phase.core_membership.calls",
    "constructions.return_words.calls", "constructions.return_words.vocabulary",
    "diagrams.vershik_orbit_coding.steps", "diagrams.vershik_successor.calls",
    "symbols.witness.examined",
    "symbols.path_window.calls", "symbols.depth_and_cuts.calls",
)
PER_LAYER_SELF = (
    "words.factor_language", "words.expand",
    "recognize.one_word_tilings", "recognize.recognize_window",
    "phase.core_membership", "phase.lambda_window",
    "constructions.return_words", "constructions.minimal_components",
    "constructions.derivative_substitution",
    "constructions.diagram_via_derivative", "constructions.nesting_diagram",
    "diagrams.vershik_orbit_coding", "diagrams.vershik_successor",
    "symbols.expansiveness_witness_search", "symbols.path_window",
    "symbols.depth_and_cuts", "cli.run",
)
PER_LAYER_CLI = {"cli.interpreter_s": "s", "cli.import_s": "s",
                 "cli.report_bytes": "bytes"}
PER_LAYER_TRACE = {"trace.untraced_s": "s", "trace.traced_s": "s",
                   "trace.overhead_s": "s", "trace.unattributed_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {name: "count" for name in PER_LAYER_COUNTS}
    units.update({f"{name}.self_s": "s" for name in PER_LAYER_SELF})
    units.update(PER_LAYER_CLI)
    units.update(PER_LAYER_TRACE)
    return units


# ---------------------------------------------------------------------------
# set-up


def child_seconds(code: str) -> tuple[float, str]:
    """Wall time of one fresh interpreter running code, and its output."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT,
                          env=wl.child_env(), capture_output=True, text=True,
                          check=True)
    return time.perf_counter() - start, done.stdout


IMPORT_TIMER = ("import time; t = time.perf_counter(); import adicshift; "
                "print(time.perf_counter() - t)")


def import_adicshift():
    if not os.path.isdir(os.path.join(wl.SRC, "adicshift")):
        sys.exit(f"adicshift sources not found under {wl.SRC}")
    sys.path.insert(0, wl.SRC)
    import adicshift
    return adicshift


def clear_caches():
    """Empty every functools cache in the package, so each round starts as
    cold as the first."""
    for name, module in list(sys.modules.items()):
        if name != "adicshift" and not name.startswith("adicshift."):
            continue
        for obj in list(vars(module).values()):
            for target in (obj, getattr(obj, "__wrapped__", None)):
                clear = getattr(target, "cache_clear", None)
                if callable(clear):
                    clear()


# ---------------------------------------------------------------------------
# measuring


class Rounds:
    """Times operations one at a time and tallies the checks."""

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.times: list[list[float]] = []      # by round, then operation
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def round(self, tracer: Tracer | None = None) -> float:
        """One pass over the operations; returns their summed time."""
        clear_caches()
        times = []
        for op in self.ops:
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = self.workload.run(op)
            except Exception as exc:  # counted as a failed operation
                result = exc
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.active = False
            times.append(elapsed)
            self.attempted += 1
            if isinstance(result, Exception):
                verdict = f"raised {type(result).__name__}: {result}"
            else:
                verdict = self.workload.check(op, result)
            if isinstance(result, Exception) or verdict == wl.FAILED:
                self.failed += 1
            elif verdict is not None:
                self.errors.append(verdict)
        self.times.append(times)
        return sum(times)

    def ops_per_s(self) -> float:
        """Operations of a round over the round's time, each operation
        taken at its median over the rounds: a burst of load on a shared
        machine that slows a few rounds does not move it."""
        typical = [statistics.median(op) for op in zip(*self.times)]
        return len(typical) / sum(typical)

    def percentile(self, q: float) -> float:
        return percentile([t for times in self.times for t in times], q)

    def until(self, seconds: float):
        """Whole rounds while the next one, as long as the last, still ends
        within the seconds (and until MIN_OPS operations and MIN_ROUNDS
        rounds ran)."""
        start = time.perf_counter()
        last = 0.0
        while (time.perf_counter() - start + last < seconds
               or self.attempted < MIN_OPS
               or len(self.times) < MIN_ROUNDS):
            began = time.perf_counter()
            self.round()
            last = time.perf_counter() - began


def median_setup(workload_cls, seed: int):
    """(setup seconds, workload, ops): median of SETUP_REPEATS set-ups."""
    lib = import_adicshift()
    if workload_cls is wl.CliOneshot:
        # a CLI call pays interpreter start as well as the import
        imports = [child_seconds("import adicshift")[0]
                   for _ in range(SETUP_REPEATS)]
        workload = workload_cls()
    else:
        imports = [float(child_seconds(IMPORT_TIMER)[1])
                   for _ in range(SETUP_REPEATS)]
        workload = workload_cls(lib)
    gen = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workload.inputs(seed)
        gen.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(gen), workload, ops


def peak_rss_mb(workload_cls) -> float:
    who = (resource.RUSAGE_CHILDREN if workload_cls is wl.CliOneshot
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload_cls, seed: int, seconds: float):
    setup_s, workload, ops = median_setup(workload_cls, seed)
    rounds = Rounds(workload, ops)
    rounds.until(seconds)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": rounds.ops_per_s(),
        "op_p50_ms": 1000 * rounds.percentile(0.5),
        "op_p90_ms": 1000 * rounds.percentile(0.9),
        "peak_rss_mb": peak_rss_mb(workload_cls),
    }
    return rounds, {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in metrics.items()}


# ---------------------------------------------------------------------------
# tracing


class InProcessCli:
    """The cli-oneshot argv lists run through adicshift.cli.run inside this
    process, output captured and its bytes counted."""

    def __init__(self, workload):
        self.check = workload.check
        self.report_bytes = 0

    def run(self, argv):
        from adicshift import cli
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
        self.report_bytes += len(sink.getvalue().encode())
        return code, sink.getvalue()


def traced(workload_cls, seed: int, name: str):
    _, workload, ops = median_setup(workload_cls, seed)
    values: dict[str, float] = {}
    if workload_cls is wl.CliOneshot:
        values["cli.interpreter_s"] = statistics.median(
            child_seconds("pass")[0] for _ in range(SETUP_REPEATS))
        values["cli.import_s"] = statistics.median(
            float(child_seconds(IMPORT_TIMER)[1])
            for _ in range(SETUP_REPEATS))
        workload = InProcessCli(workload)
    rounds = Rounds(workload, ops)
    untraced_s = rounds.round()
    if isinstance(workload, InProcessCli):
        values["cli.report_bytes"] = workload.report_bytes
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = rounds.round(tracer)
    finally:
        tracer.uninstall()
    selfs = self_times(tracer.spans)
    values.update({name: float(tracer.counts.get(name, 0))
                   for name in PER_LAYER_COUNTS})
    values.update({f"{n}.self_s": selfs.get(n, 0.0) for n in PER_LAYER_SELF})
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.unattributed_s"] = traced_s - sum(selfs.values())
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{name}-{seed}.tsv"))
    units = per_layer_units()
    for key in units:
        values.setdefault(key, 0.0)
    if values["trace.unattributed_s"] < 0:
        rounds.errors.append("self times exceed the traced wall time")
    return rounds, {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        rounds, metrics = traced(workload_cls, args.seed, args.workload)
    else:
        rounds, metrics = end_to_end(workload_cls, args.seed, args.seconds)
    for message in rounds.errors[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    print(json.dumps({"correct": not rounds.errors,
                      "attempted": rounds.attempted,
                      "failed": rounds.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
