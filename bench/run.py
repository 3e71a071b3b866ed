"""Benchmark of the bratteli library; see bench/README.md.

    python3 bench/run.py --workload build-family --seed 1 --seconds 30 --trace 0

Runs one workload in this process and one thread, checks every
operation's output outside the timed region, and prints a report followed
by one JSON line: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

from reference import HostSpeed
from workloads import DEFAULT_SEED, OUT_DIR, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
SETUP_REPEATS = 7
WARMUP_SECONDS = 1.0
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "substitution.parse_spec.self_s": "s",
    "substitution.legal_words.calls": "count",
    "substitution.legal_words.self_s": "s",
    "substitution.aperiodicity_screen.self_s": "s",
    "substitution.perron_lengths.self_s": "s",
    "diagram.build_vertical.self_s": "s",
    "diagram.build_horizontal.self_s": "s",
    "diagram.enumerate_squares.self_s": "s",
    "diagram.enumerate_squares.zero_tests": "count",
    "diagram.enumerate_squares.hit_ratio": "ratio",
    "diagram.pair_extremes.self_s": "s",
    "diagram.diagram_chains.self_s": "s",
    "diagram.export_json.self_s": "s",
    "exactnum.is_zero.calls": "count",
    "exactnum.is_zero.self_s": "s",
    "exactnum.is_zero.sturm_ratio": "ratio",
    "exactnum.inverse.calls": "count",
    "exactnum.inverse.self_s": "s",
    "exactnum.sign.calls": "count",
    "exactnum.sign.self_s": "s",
    "exactnum.to_decimal.calls": "count",
    "exactnum.to_decimal.self_s": "s",
    "exactnum.AlgebraicNumber.allocs": "count",
    "exactnum.refined.max_k": "count",
    "ratpoly.gcd.calls": "count",
    "ratpoly.count_roots_halfopen.calls": "count",
    "paths.rb_equiv.calls": "count",
    "paths.rb_equiv.self_s": "s",
    "paths.rb_equiv.equiv_ratio": "ratio",
    "paths.u_of_prefix.calls": "count",
    "paths.u_of_prefix.self_s": "s",
    "paths.u_of_prefix.edges": "count",
    "paths.decode.self_s": "s",
    "paths.decode.tiles": "count",
    "paths.vershik_successor.self_s": "s",
    "paths.parse_path.self_s": "s",
    "paths.enumerate_paths.self_s": "s",
    "analysis.gap_profile.self_s": "s",
    "analysis.classify_GF.self_s": "s",
    "verify.run_battery.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.bytes_out": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_error_s": "s",
}


class BenchError(Exception):
    """The run cannot produce a result: no sources, no frozen inputs, or no
    operation that succeeded."""


def import_library() -> SimpleNamespace:
    """Import bratteli afresh from this checkout's src/ (never from an
    installed copy): earlier imports are dropped from sys.modules first, so
    module-level state starts empty each time."""
    if not os.path.isfile(os.path.join(SRC, "bratteli", "__init__.py")):
        raise BenchError(f"no bratteli sources under {SRC}")
    for name in [m for m in sys.modules if m == "bratteli" or m.startswith("bratteli.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    b = importlib.import_module("bratteli")
    cli = importlib.import_module("bratteli.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(b.__file__))) != SRC:
        raise BenchError(f"imported bratteli from {b.__file__}, not from {SRC}")
    return SimpleNamespace(bratteli=b, cli=cli)


def load_frozen() -> dict:
    path = os.path.join(BENCH, "frozen.json")
    if not os.path.isfile(path):
        raise BenchError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(ordered, q: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples and the count beyond it."""
    rank = max(math.ceil(q / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(ordered, q: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the workload's tail
    percentile q, or for the highest lower one of TAIL_PERCENTILES if q
    leaves fewer than ten samples beyond it (p50 if none does)."""
    for p in sorted((p for p in TAIL_PERCENTILES if p <= q), reverse=True):
        value, beyond = percentile(ordered, p)
        if beyond >= 10 or p == 50:
            return p, value, beyond
    raise ValueError("TAIL_PERCENTILES must include 50")


class Run:
    """One workload, one seed: set-up, timed passes, checks, metrics."""

    def __init__(self, workload_cls, frozen: dict, seed: int, seconds: float, corrupt: bool = False):
        self.workload = workload_cls(frozen, seed)
        self.seconds = seconds
        self.corrupt = corrupt
        self.attempted = 0
        self.failures: list[str] = []
        self.speed = HostSpeed()
        self.setup_times: list[tuple[float, int]] = []  # (seconds, probe mark)
        for _ in range(SETUP_REPEATS):
            self.speed.probe()
            start = perf_counter()
            self.lib = import_library()
            self.workload.setup(self.lib)
            self.setup_times.append((perf_counter() - start, len(self.speed.times) - 1))
        self.speed.probe()
        self.ops = self.workload.ops(self.lib)
        gc.collect()

    def _execute(self, op, timed):
        """Run one operation through `timed` (which returns its output and
        duration), then check the output outside the timed region."""
        self.attempted += 1
        try:
            output, duration = timed(op.run)
        except Exception as exc:  # a raising operation is a failed operation
            self.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return None, math.nan
        if self.corrupt and self.attempted == 1:
            output = self.workload.corrupt(output)
        error = self.workload.check(self.lib, op, output)
        if error:
            self.failures.append(f"{op.label}: {error}")
        return output, duration

    def warm_up(self) -> None:
        """Run operations for about WARMUP_SECONDS before timing, so that the
        interpreter has specialised the hot code; these runs are neither
        checked nor counted (a failing operation fails again when timed)."""
        start = perf_counter()
        for op in self.ops:
            with contextlib.suppress(Exception):
                op.run()
            if perf_counter() - start > WARMUP_SECONDS:
                return

    def passes(self, body) -> int:
        """Warm up, then call body(op) for whole passes over the operations;
        start no pass that the passes so far predict would end after
        `seconds`."""
        self.warm_up()
        start = perf_counter()
        done = 0
        while True:
            for op in self.ops:
                body(op)
            done += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / done > self.seconds:
                return done

    def end_to_end(self) -> dict:
        """The end-to-end metrics at reference speed (see reference.py); the
        same figures from the raw times go into the report."""
        raw, marks, groups = array("d"), array("q"), []

        def body(op):
            mark = self.speed.mark()
            _, duration = self._execute(op, timed)
            if not math.isnan(duration):
                raw.append(duration)
                marks.append(mark)
                groups.append(op.group)

        self.n_passes = self.passes(body)
        self.speed.probe()
        self.final_checks()
        if not raw:
            raise BenchError(f"every operation failed; first: {self.failures[0]}")
        durations = [self.speed.scale(d, m) for d, m in zip(raw, marks)]
        order = sorted(range(len(durations)), key=durations.__getitem__)
        q, tail, beyond = tail_percentile([durations[i] for i in order], self.workload.TAIL_PERCENTILE)
        setup = [self.speed.scale(t, m) for t, m in self.setup_times]
        raw_sorted = sorted(raw)
        self.report = {
            "passes": self.n_passes,
            "samples": len(durations),
            "tail_percentile": q,
            "tail_beyond": beyond,
            "tail_groups": Counter(groups[i] for i in order[len(order) - beyond :] if groups[i]),
            "kernel_ms": statistics.median(self.speed.times) * 1e3,
            "raw": {
                "ops_per_s": len(raw) / sum(raw),
                "latency_p50_ms": percentile(raw_sorted, 50)[0] * 1e3,
                "latency_tail_ms": percentile(raw_sorted, q)[0] * 1e3,
                "setup_s": statistics.median(t for t, _ in self.setup_times),
            },
        }
        return {
            "ops_per_s": len(durations) / sum(durations),
            "latency_p50_ms": percentile(sorted(durations), 50)[0] * 1e3,
            "latency_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def traced(self, trace_path: str | None) -> dict:
        """Each operation untraced and then traced, so that the tracing
        overhead compares the same work; per-layer figures are per pass."""
        from tracer import Tracer

        tracer = Tracer()
        tracer.plan(sys.modules)
        totals = {"untraced": 0.0, "traced": 0.0, "ops": 0}
        self.op_records = []

        def body(op):
            _, plain = self._execute(op, timed)
            output, duration = self._execute(op, tracer.run_op)
            if math.isnan(plain) or math.isnan(duration):
                return
            totals["untraced"] += plain
            totals["traced"] += duration
            totals["ops"] += 1
            for name, n in self.workload.trace_counts(output).items():
                tracer.counts[name] += n
            self.op_records.append((op, duration, dict(tracer.op_incl)))

        self.n_passes = self.passes(body)
        self.final_checks()
        if not totals["ops"]:
            raise BenchError(f"every operation failed; first: {self.failures[0]}")
        metrics = tracer.metrics(self.n_passes)
        metrics["trace.ops_per_s"] = totals["ops"] / totals["traced"]
        metrics["trace.untraced_ops_per_s"] = totals["ops"] / totals["untraced"]
        metrics["trace.overhead_ratio"] = totals["traced"] / totals["untraced"]
        if trace_path:
            tracer.write(trace_path)
        self.report = {"passes": self.n_passes, "spans": tracer.n_spans}
        return metrics

    def final_checks(self) -> None:
        self.errors = self.workload.final_checks(self.lib)


def timed(fn):
    start = perf_counter()
    output = fn()
    return output, perf_counter() - start


def environment() -> str:
    load = os.getloadavg()
    return (
        f"python {platform.python_version()} on {platform.platform()}; "
        f"nproc {len(os.sched_getaffinity(0))}; load average at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bratteli benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = environment()
    try:
        run = Run(WORKLOADS[args.workload], load_frozen(), args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed {args.seed}: {env}")
    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            values, units = run.traced(trace_path), PER_LAYER
        else:
            values, units = run.end_to_end(), END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        print(f"# traced {run.report['passes']} passes, {run.report['spans']} spans, kept in {trace_path}")
        for what, share, figure, agrees in run.workload.attribution(run.op_records):
            print(f"# baseline: {what}: measured {share:.3f}, ROADMAP {figure}: {'ok' if agrees else 'MISMATCH'}")
    else:
        r = run.report
        groups = "".join(f", {n} {g}" for g, n in sorted(r["tail_groups"].items()))
        print(
            f"# {r['passes']} passes, {r['samples']} timed ops; latency_tail_ms is p{r['tail_percentile']} "
            f"with {r['tail_beyond']} samples beyond{groups}; failed_ratio {len(run.failures) / run.attempted:.6f}"
        )
        raw = ", ".join(f"{name} {value:.6g}" for name, value in r["raw"].items())
        print(f"# raw (host speed: reference kernel median {r['kernel_ms']:.4f} ms): {raw}")
    for error in (run.failures + run.errors)[:10]:
        print(f"# FAILED {error}")
    print(
        json.dumps(
            {
                "correct": not run.failures and not run.errors,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
