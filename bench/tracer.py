"""Spans around the library's public functions, installed from outside.

The tracer rebinds module and class attributes of the imported ``bratteli``
package to wrappers, so no library code changes.  A *span* wrapper times
the call and attributes it to its caller: a span's self time is its
duration minus the durations of the spans it directly contains, so the self
times of all spans under one operation sum to that operation's traced
duration.  A *counter* wrapper only counts calls (it is too hot to time).
Each call is also counted under the name of the span that made it, which
gives "zero tests made by enumerate_squares" and "Sturm counts made by
is_zero".

Spans are kept in memory (the first ``KEEP_SPANS`` of a run in full,
every one in the totals) and written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

KEEP_SPANS = 100_000
ROOT = "op"
# work counted by the notes below and, for cli.main.bytes_out, by the harness
NOTE_COUNTS = ["paths.u_of_prefix.edges", "paths.decode.tiles", "cli.main.bytes_out"]

# (span name, module, attribute); "Class.method" names a method.
SPANS = [
    ("substitution.parse_spec", "bratteli.substitution", "parse_spec"),
    ("substitution.legal_words", "bratteli.substitution", "legal_words"),
    ("substitution.aperiodicity_screen", "bratteli.substitution", "aperiodicity_screen"),
    ("substitution.perron_lengths", "bratteli.substitution", "perron_lengths"),
    ("diagram.build_vertical", "bratteli.diagram", "build_vertical"),
    ("diagram.build_horizontal", "bratteli.diagram", "build_horizontal"),
    ("diagram.enumerate_squares", "bratteli.diagram", "enumerate_squares"),
    ("diagram.diagram_chains", "bratteli.diagram", "diagram_chains"),
    ("diagram.pair_extremes", "bratteli.paths", "pair_extremes"),
    ("diagram.export_json", "bratteli.diagram", "export_json"),
    ("exactnum.is_zero", "bratteli.exactnum", "AlgebraicNumber.is_zero"),
    ("exactnum.inverse", "bratteli.exactnum", "AlgebraicNumber.inverse"),
    ("exactnum.sign", "bratteli.exactnum", "AlgebraicNumber.sign"),
    ("exactnum.to_decimal", "bratteli.exactnum", "AlgebraicNumber.to_decimal"),
    ("paths.rb_equiv", "bratteli.paths", "rb_equiv"),
    ("paths.u_of_prefix", "bratteli.paths", "u_of_prefix"),
    ("paths.decode", "bratteli.paths", "decode"),
    ("paths.vershik_successor", "bratteli.paths", "vershik_successor"),
    ("paths.parse_path", "bratteli.paths", "parse_path"),
    ("paths.enumerate_paths", "bratteli.paths", "enumerate_paths"),
    ("analysis.gap_profile", "bratteli.analysis", "gap_profile"),
    ("analysis.classify_GF", "bratteli.analysis", "classify_GF"),
    ("verify.run_battery", "bratteli.verify", "run_battery"),
    ("cli.main", "bratteli.cli", "main"),
]
COUNTERS = [
    ("exactnum.AlgebraicNumber.allocs", "bratteli.exactnum", "AlgebraicNumber.__init__"),
    ("exactnum.refined.calls", "bratteli.exactnum", "ModulusField.refined"),
    ("ratpoly.gcd.calls", "bratteli.ratpoly", "gcd"),
    ("ratpoly.count_roots_halfopen.calls", "bratteli.ratpoly", "count_roots_halfopen"),
]


def _notes(tracer):
    """Per-call extras: amounts of work read off arguments and results."""
    counts = tracer.counts

    def u_edges(args, result):
        counts["paths.u_of_prefix.edges"] += len(args[0].edges)

    def tiles(args, result):
        counts["paths.decode.tiles"] += len(result.tiles)

    def equiv(args, result):
        counts["paths.rb_equiv.equiv"] += result is not None

    def squares(args, result):
        counts["diagram.enumerate_squares.squares"] += len(result)

    def refined_k(args, result):
        tracer.max_refined_k = max(tracer.max_refined_k, args[1])

    return {
        "paths.u_of_prefix": u_edges,
        "paths.decode": tiles,
        "paths.rb_equiv": equiv,
        "diagram.enumerate_squares": squares,
        "exactnum.refined.calls": refined_k,
    }


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_refined_k = 0
        self.under: dict[tuple[str, str], int] = defaultdict(int)  # (callee, calling span) -> calls
        self.spans: list[tuple] = []  # (id, parent id, name, op, start, end)
        self.n_spans = 0
        self.stack: list[list] = []  # frames [name, span id, child time]
        self.active: dict[str, int] = defaultdict(int)
        self.op_incl: dict[str, float] = {}
        self.op_index = -1
        self.op_self = 0.0
        self.max_self_error = 0.0
        self.patches: list[tuple] = []

    # -- installing -----------------------------------------------------------

    def plan(self, modules: dict) -> None:
        """Find every binding of each traced function in the bratteli
        modules (``from .x import f`` makes copies) and prepare wrappers."""
        notes = _notes(self)
        lib = {name: m for name, m in modules.items() if name == "bratteli" or name.startswith("bratteli.")}
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, module, attr in table:
                owner = lib[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    self.patches.append((owner, attr, original, make(name, original, notes.get(name))))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original, notes.get(name))
                for m in lib.values():
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self.patches.append((m, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, note):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            tracer.under[(name, stack[-1][0] if stack else None)] += 1
            span_id = tracer.n_spans
            tracer.n_spans += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, start, end)
            if note:
                note(args, result)
            return result

        return wrapper

    def _counter(self, name, fn, note):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            tracer.under[(name, stack[-1][0] if stack else None)] += 1
            result = fn(*args, **kwargs)
            if note:
                note(args, result)
            return result

        return wrapper

    def _close(self, frame, start, end) -> None:
        name, span_id, child = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        own = duration - child
        self.calls[name] += 1
        self.self_s[name] += own
        self.op_self += own
        self.active[name] -= 1
        if not self.active[name]:
            self.op_incl[name] = self.op_incl.get(name, 0.0) + duration
        if len(self.spans) < KEEP_SPANS:
            parent = self.stack[-1][1] if self.stack else None
            self.spans.append((span_id, parent, name, self.op_index, start, end))

    # -- one operation ----------------------------------------------------------

    def run_op(self, fn):
        """Run one operation under a root span; returns (output, duration)."""
        self.op_index += 1
        self.op_incl = {}
        self.op_self = 0.0
        frame = [ROOT, self.n_spans, 0.0]
        self.n_spans += 1
        self.stack.append(frame)
        self.active[ROOT] += 1
        self.install()
        start = perf_counter()
        try:
            output = fn()
        finally:
            end = perf_counter()
            self.uninstall()
            self.stack.pop()
            self._close(frame, start, end)
        self.max_self_error = max(self.max_self_error, abs(self.op_self - (end - start)))
        return output, end - start

    # -- results ----------------------------------------------------------------

    def count(self, name: str) -> int:
        return sum(n for (callee, _), n in self.under.items() if callee == name)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass of the workload."""
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.self_s"] = self.self_s[name] / passes
            out[f"{name}.calls"] = self.calls[name] / passes
        for name, _, _ in COUNTERS:
            out[name] = self.count(name) / passes
        for name in NOTE_COUNTS:
            out[name] = self.counts[name] / passes
        zero_tests = self.under[("exactnum.is_zero", "diagram.enumerate_squares")]
        out["diagram.enumerate_squares.zero_tests"] = zero_tests / passes
        out["diagram.enumerate_squares.hit_ratio"] = _ratio(self.counts["diagram.enumerate_squares.squares"], zero_tests)
        out["exactnum.is_zero.sturm_ratio"] = _ratio(
            self.under[("ratpoly.count_roots_halfopen.calls", "exactnum.is_zero")], self.calls["exactnum.is_zero"]
        )
        out["paths.rb_equiv.equiv_ratio"] = _ratio(self.counts["paths.rb_equiv.equiv"], self.calls["paths.rb_equiv"])
        out["exactnum.refined.max_k"] = self.max_refined_k
        out["trace.self_sum_error_s"] = self.max_self_error
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "op", "start_s", "end_s"],
                    "kept": len(self.spans),
                    "total": self.n_spans,
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0

