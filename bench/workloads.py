"""The benchmark's three workloads: seeded inputs, one operation, its check.

Every workload is a class with the same steps:

* ``__init__(frozen, seed)`` draws the inputs as plain data (spec texts,
  argv lists) without touching the library;
* ``setup(lib)`` turns them into what the operations need, using the
  freshly imported library; this is what ``setup_s`` times;
* ``ops(lib)`` lists one pass of operations;
* ``check(lib, op, output)`` decides, outside the timed region, whether
  one operation's output is right, and returns the reason if it is not;
* ``corrupt(output)`` spoils an output, so the self-test can show that
  ``check`` is not vacuous;
* ``attribution(records)`` compares a traced run's time shares with the
  baseline table in ROADMAP.md and says where they disagree.

Spec texts the library rejects never reach an operation: the spec family
was drawn from a frozen pool whose members passed the whole build-family
operation when ``freeze.py`` made it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    label: str
    run: object  # zero-argument callable; its result goes to check()
    key: object = None  # what check() needs to find the expected output
    group: str | None = None  # the report counts each group's samples in the latency tail


# -- independent count of legal 3-words ----------------------------------------------


def parse_rules(text: str) -> list[tuple[int, ...]]:
    """Rules of a spec text as letter indices, read without the library."""
    names: list[str] = []
    rules: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "letters":
            names = value.split()
        elif key.startswith("rule "):
            rules[key[5:].strip()] = value.split()
    index = {n: i for i, n in enumerate(names)}
    return [tuple(index[t] for t in rules[n]) for n in names]


def count_legal_3words(rules: list[tuple[int, ...]]) -> int:
    """Number of legal 3-words of a primitive substitution, by closure.

    A k-factor of sigma^n(a) lies inside sigma(u) for a legal word u of
    length at most k (every image is nonempty), so the legal k-words are
    the least set holding the k-factors of sigma(u) for every legal u
    shorter than k and closed under "k-factors of sigma(w)".
    """

    def image(w):
        return tuple(x for a in w for x in rules[a])

    def factors(w, k):
        return {w[i : i + k] for i in range(len(w) - k + 1)}

    def closure(seeds, k):
        found: set = set()
        frontier = {f for u in seeds for f in factors(image(u), k)}
        while frontier:
            found |= frontier
            frontier = {f for w in frontier for f in factors(image(w), k)} - found
        return found

    letters = [(a,) for a in range(len(rules))]
    return len(closure(letters + sorted(closure(letters, 2)), 3))


class Workload:
    # The percentile latency_tail_ms reads: the highest of run.TAIL_PERCENTILES
    # that leaves at least ten samples beyond it in a run at this commit's
    # speed.  It stays fixed so that a faster program is measured at the
    # same percentile; a run with too few samples steps down.
    TAIL_PERCENTILE = 50

    def setup(self, lib) -> None:
        pass

    def final_checks(self, lib) -> list[str]:
        """Checks over the whole run, made after the last pass."""
        return []

    def trace_counts(self, output) -> dict[str, int]:
        """Per-layer counts read off an output in the traced run."""
        return {}

    def attribution(self, records) -> list[tuple[str, float, str, bool]]:
        """(what, measured share, ROADMAP's figure, whether they agree) for
        the traced records (op, duration, inclusive seconds per span name)."""
        return []


# ROADMAP's shares come from one-off runs, some under cProfile, which
# inflates call-heavy code, so a measured share agrees with one when within
# this factor of it.
AGREE = 1.5


def _share(records, name: str, of: str | None = None) -> float:
    num = sum(incl.get(name, 0.0) for _, _, incl in records)
    den = sum((incl.get(of, 0.0) if of else duration) for _, duration, incl in records)
    return num / den if den else 0.0


def _against(what: str, share: float, figure: float, source: str) -> tuple[str, float, str, bool]:
    return (what, share, f"{figure:.3f} ({source})", figure / AGREE <= share <= figure * AGREE)


# -- build-family -----------------------------------------------------------------------


class BuildFamily(Workload):
    """parse_spec -> build_diagram -> pair_extremes -> export_json per spec."""

    # The family is the same for every seed: the fixed specs and the pool
    # specs freeze.py drew for the default seed (see freeze.draw_family).
    # The seed only orders the pass.  A seeded draw per run made the pass
    # cost, its median and its tail swing with the seed by more than the
    # benchmark's bounds.  The median falls among the 3- and 4-letter
    # builds; the twenty 6-letter builds, where enumerate_squares
    # dominates, fill most of the samples beyond the p75 tail.
    TAIL_PERCENTILE = 75  # one pass of 60 operations

    def __init__(self, frozen: dict, seed: int):
        by_text = {s["text"]: s for s in frozen["fixed"] + frozen["pool"]}
        self.specs = [dict(by_text[text]) for text in frozen["default"]["build-family"]]
        random.Random(seed).shuffle(self.specs)
        for s in self.specs:
            s["legal3"] = count_legal_3words(parse_rules(s["text"]))

    def ops(self, lib) -> list[Op]:
        b = lib.bratteli

        def make(spec):
            text, screen = spec["text"], spec.get("check_aperiodicity", True)

            def run():
                d = b.build_diagram(b.parse_spec(text, check_aperiodicity=screen))
                b.pair_extremes(d)
                return (len(d.vertices), b.export_json(d))

            return run

        return [
            Op(
                label=s.get("name") or f"{s['letters']}-letter V={s['vertices']}",
                run=make(s),
                key=s,
                group=f"{s['letters']}-letter",
            )
            for s in self.specs
        ]

    def check(self, lib, op: Op, output) -> str | None:
        vertices, text = output
        if sha256(text) != op.key["json_sha256"]:
            return "export_json digest differs from the frozen one"
        if vertices != op.key["legal3"]:
            return f"{vertices} collared letters, but {op.key['legal3']} legal 3-words"
        return None

    @staticmethod
    def corrupt(output):
        vertices, text = output
        return (vertices, text + " ")

    def attribution(self, records):
        """enumerate_squares' share of the 6-letter builds, over all of them,
        for the largest, and for every other one that disagrees."""
        figure, source = 4.2 / 5.4, "4.2 of 5.4 profiled s of one 6-letter build"
        six = [r for r in records if r[0].key["letters"] == 6]
        per_build: dict[int, list] = {}
        for r in six:
            per_build.setdefault(id(r[0]), []).append(r)
        rows = [_against("enumerate_squares share of the 6-letter builds", _share(six, "diagram.enumerate_squares"), figure, source)]
        by_size = sorted(per_build.values(), key=lambda rs: -rs[0][0].key["vertices"])
        for i, rs in enumerate(by_size):
            row = _against(
                f"enumerate_squares share of 6-letter build V={rs[0][0].key['vertices']}",
                _share(rs, "diagram.enumerate_squares"), figure, source,
            )
            if i == 0 or not row[3]:
                rows.append(row)
        return rows


# -- rb-allpairs ------------------------------------------------------------------------


def sample_pairs(n_paths: int, size: int | None, rng: random.Random) -> list[tuple[int, int]]:
    """A sorted sample of index pairs i < j, drawn without replacement
    (all of them when size is None)."""
    n_pairs = n_paths * (n_paths - 1) // 2
    picks = range(n_pairs) if size is None else sorted(rng.sample(range(n_pairs), min(size, n_pairs)))
    out, row, start = [], 0, 0
    for k in picks:
        while k >= start + (n_paths - 1 - row):  # unrank the upper triangle row by row
            start += n_paths - 1 - row
            row += 1
        out.append((row, row + 1 + k - start))
    return out


class RbAllPairs(Workload):
    """rb_equiv(x, y) on a sample of path pairs of three diagrams."""

    # Fields of degree 2, 1 and 3, with the number of pairs drawn from each
    # (None: all 1225 and 24976 pairs).  Most pairs are not equivalent and
    # cost microseconds; the few equivalent ones cost milliseconds.  The
    # sample is the one the default seed draws, for every seed, and the
    # seed orders the pass: a sample drawn per seed made the tail swing with
    # the seed.
    SAMPLE = {"fibonacci": None, "thue-morse": None, "rand3": 12000}
    TAIL_PERCENTILE = 99.9  # two or three passes of 38201 operations

    def __init__(self, frozen: dict, seed: int):
        texts = {f["name"]: f["text"] for f in frozen["fixed"]}
        self.seed = seed
        self.texts = [(name, texts[name]) for name in self.SAMPLE]
        self.frozen = frozen["default"].get("rb-allpairs")  # None while freeze.py runs

    def setup(self, lib):
        b = lib.bratteli
        self.pairs = []
        for name, text in self.texts:
            paths = b.enumerate_paths(b.build_diagram(b.parse_spec(text)), 4, 3)
            rng = random.Random(f"{DEFAULT_SEED}:{name}")
            self.pairs += [(name, paths[i], paths[j]) for i, j in sample_pairs(len(paths), self.SAMPLE[name], rng)]
        self.order = list(range(len(self.pairs)))
        random.Random(self.seed).shuffle(self.order)
        self.expected: dict[int, bool] = {}
        self.seen: dict[int, str] = {}

    def pairs_digest(self, lib) -> str:
        render = lib.bratteli.render_path
        return sha256("".join(f"{n}|{render(x)}|{render(y)}\n" for n, x, y in self.pairs))

    def witness_digest(self) -> str:
        return sha256("".join(self.seen[i] + "\n" for i in range(len(self.pairs))))

    def ops(self, lib) -> list[Op]:
        b = lib.bratteli  # looked up per call, so that a traced run sees its wrappers

        def make(x, y):
            def run():
                w = b.rb_equiv(x, y)
                if w is None:
                    return (False, "None")
                return (True, f"{w.n0}|{' '.join(map(str, w.chain))}|{w.translation.render()}")

            return run

        ops = []
        for i in self.order:
            name, x, y = self.pairs[i]
            ops.append(Op(label=f"{name} pair {i}", run=make(x, y), key=i, group=name))
        return ops

    def check(self, lib, op: Op, output) -> str | None:
        verdict, text = output
        i = op.key
        if i not in self.expected:
            _, x, y = self.pairs[i]
            self.expected[i] = lib.bratteli.rb_via_generators(x, y)
        if verdict != self.expected[i]:
            return "rb_equiv verdict disagrees with rb_via_generators"
        if self.seen.setdefault(i, text) != text:
            return "witness differs between passes"
        return None

    def final_checks(self, lib) -> list[str]:
        """The sample and the witnesses against the frozen digests (once
        every pair has been checked)."""
        errors = []
        if self.pairs_digest(lib) != self.frozen["pairs_sha256"]:
            errors.append("rb-allpairs pair sample drifted")
        if len(self.seen) == len(self.pairs) and self.witness_digest() != self.frozen["witness_sha256"]:
            errors.append("rb-allpairs witnesses differ from the frozen digest")
        return errors

    @staticmethod
    def corrupt(output):
        verdict, text = output
        return (not verdict, text)

    def attribution(self, records):
        # ROADMAP gives no number: all-pairs rb_equiv time is "mostly"
        # _chain_translation -> u_of_prefix, read here as more than half
        share = _share(records, "paths.u_of_prefix", "paths.rb_equiv")
        return [("u_of_prefix share of rb_equiv", share, "mostly (> 0.5)", share > 0.5)]


# -- cli-session ------------------------------------------------------------------------


class CliSession(Workload):
    """One in-process bratteli.cli.main(argv) per operation."""

    TAIL_PERCENTILE = 90  # about fifteen passes of 15 operations

    def __init__(self, frozen: dict, seed: int):
        self.commands = [dict(c) for c in frozen["cli"]]
        random.Random(seed).shuffle(self.commands)

    def ops(self, lib) -> list[Op]:
        def make(argv):
            return lambda: run_cli(lib.cli.main, argv)

        return [Op(label=" ".join(c["argv"]), run=make(resolve_argv(c["argv"])), key=c) for c in self.commands]

    def check(self, lib, op: Op, output) -> str | None:
        rc, text = output
        if rc != 0:
            return f"exit status {rc}"
        if sha256(text) != op.key["stdout_sha256"]:
            return "stdout digest differs from the frozen one"
        return None

    @staticmethod
    def corrupt(output):
        rc, text = output
        return (rc, text + "x")

    def trace_counts(self, output):
        return {"cli.main.bytes_out": len(output[1].encode("utf-8"))}

    def attribution(self, records):
        # ROADMAP: decode --depth 16 takes 11.1 s, 0.11 s in decode() and the
        # rest in to_decimal; measured here at depth 10
        deep = [r for r in records if r[0].label.startswith("decode") and "--depth 10" in r[0].label]
        source = "decode --depth 16"
        return [
            _against("to_decimal share of decode --depth 10", _share(deep, "exactnum.to_decimal"), 11.0 / 11.1, source),
            _against("decode() share of decode --depth 10", _share(deep, "paths.decode"), 0.11 / 11.1, source),
        ]


def resolve_argv(argv: list[str]) -> list[str]:
    """The frozen argv lists write files into {out}, the benchmark's own
    output directory."""
    return [a.replace("{out}", OUT_DIR) for a in argv]


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """One CLI call with stdout and stderr captured; the text of an --out
    file is appended so that it is checked too."""
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_path:
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    text = buf.getvalue()
    if out_path and rc == 0:
        with open(out_path, encoding="utf-8") as fh:
            text += fh.read()
    return rc, text


WORKLOADS = {"build-family": BuildFamily, "rb-allpairs": RbAllPairs, "cli-session": CliSession}
