"""Regenerate bench/frozen.json, the benchmark's frozen inputs.

    python3 bench/freeze.py   # rewrite frozen.json from the current library

frozen.json holds:

* ``fixed``: the two fixtures, the doubling odometer and ``rand3``, with
  the digest of each one's ``export_json``;
* ``pool``: POOL_PER_SIZE seeded random primitive specs per alphabet size
  3..6, each with its collared-letter count, square count, work estimate
  (incident triples and field degree) and ``export_json`` digest.  A drawn
  spec enters the pool only if the whole build-family operation succeeds
  on it, so no timed operation meets a spec the library rejects;
* ``cli``: the cli-session argv lists with the digest of each one's output;
* ``default``: the build-family spec texts (``draw_family`` with the
  default seed; every run uses them), and for the drift check the digest
  of the default seed's rb-allpairs pair sample and of its witnesses.
"""

from __future__ import annotations

import json
import os
import random
import shlex
import sys

import run
from workloads import (
    DEFAULT_SEED,
    RbAllPairs,
    count_legal_3words,
    parse_rules,
    resolve_argv,
    run_cli,
    sha256,
)

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen.json")
POOL_SEED = 911
POOL_PER_SIZE = 48
POOL_SIZES = (3, 4, 5, 6)

# Pool specs drawn into the build-family per alphabet size, one from each
# stratum of the pool sorted by estimated work (incident triples x field
# degree), so that the family spans the pool's range of cost.  Twenty
# 6-letter builds fill most of the samples beyond the p75 tail.
STRATA = {3: 16, 4: 16, 5: 4, 6: 20}

# The first success of tests/conftest.py's seeded 3-letter draw (seed 1200).
RAND3_SPEC = "letters: 0 1 2\nrule 0: 2 1\nrule 1: 2\nrule 2: 0 0 2"

# The README command list, then heavier fibonacci commands.
CLI_COMMANDS = """\
collar --fixture fibonacci
diagram --fixture fibonacci --format json
diagram --fixture thue-morse --depth 3 --format dot --out {out}/tm.dot
decode --fixture fibonacci --x "root=a; ac ca ab"
decode --fixture fibonacci --collared --x "root=a;"
extremes --fixture fibonacci
vershik --fixture fibonacci --x "root=b; (bd db)" --steps 5
rb --fixture fibonacci --x "root=a; (ac ca)" --y "root=b; (bd db)"
analyze --fixture fibonacci --x "root=a; (ab bd da)"
verify-paper fibonacci
verify-paper thue-morse
decode --fixture fibonacci --x "root=a; (ab bd da)" --depth 8
decode --fixture fibonacci --x "root=a; (ab bd da)" --depth 10
analyze --fixture fibonacci --x "root=a; (ab bd da)" --depth 12
vershik --fixture fibonacci --x "root=b; (bd db)" --steps 40
"""


def describe(lib, text: str, screen: bool = True) -> dict | None:
    """The frozen record of one spec, or None if the library rejects it
    anywhere in the build-family operation."""
    b = lib.bratteli
    try:
        d = b.build_diagram(b.parse_spec(text, check_aperiodicity=screen))
        b.pair_extremes(d)
        js = b.export_json(d)
    except b.BratteliError:
        return None
    if len(d.vertices) != count_legal_3words(parse_rules(text)):
        raise AssertionError(f"collared letters disagree with the legal 3-word count:\n{text}")
    return {
        "vertices": len(d.vertices),
        "squares": len(d.squares),
        # incident (horizontal, left edge, right edge) triples: the candidates
        # enumerate_squares tests, each by Q(lambda) arithmetic of this degree
        "triples": sum(len(d.out_edges[h.src]) * len(d.out_edges[h.rng]) for h in d.horizontals),
        # degree of the modulus elements are reduced by (no public accessor)
        "degree": len(d.field._reduced) - 1,
        "json_sha256": sha256(js),
    }


def draw_pool(lib, size: int, count: int, log=None) -> list[dict]:
    """The first `count` accepted specs of the seeded draw for one alphabet
    size: rule lengths 1..3 over letters 0..size-1, as in tests/conftest.py."""
    rng = random.Random(f"{POOL_SEED}:{size}")
    letters = [str(i) for i in range(size)]
    out = []
    while len(out) < count:
        lines = ["letters: " + " ".join(letters)]
        for a in letters:
            lines.append(f"rule {a}: " + " ".join(rng.choice(letters) for _ in range(rng.randint(1, 3))))
        text = "\n".join(lines)
        record = describe(lib, text)
        if record is not None:
            out.append({"letters": size, "text": text, **record})
            if log:
                log(f"pool {size}-letter #{len(out)}: V={record['vertices']} triples={record['triples']}")
    return out


def draw_family(frozen: dict, seed: int) -> list[str]:
    """The build-family spec texts: the fixed specs and one pool spec per
    stratum, in a seeded order."""
    rng = random.Random(seed)
    chosen = [s["text"] for s in frozen["fixed"]]
    for k, strata in STRATA.items():
        members = sorted(
            (s for s in frozen["pool"] if s["letters"] == k),
            key=lambda s: (s["triples"] * s["degree"], s["text"]),
        )
        width = len(members) // strata
        for i in range(strata):
            chosen.append(rng.choice(members[i * width : (i + 1) * width])["text"])
    rng.shuffle(chosen)
    return chosen


def build_frozen(lib, log) -> dict:
    fx = lib.bratteli.fixtures
    fixed = []
    for name, text, screen in [
        ("fibonacci", fx.FIBONACCI_SPEC, True),
        ("thue-morse", fx.THUE_MORSE_SPEC, True),
        ("doubling", fx.DOUBLING_SPEC, False),
        ("rand3", RAND3_SPEC, True),
    ]:
        entry = {"name": name, "letters": len(parse_rules(text)), "text": text, **describe(lib, text, screen)}
        if not screen:
            entry["check_aperiodicity"] = False
        fixed.append(entry)
    frozen = {"pool_seed": POOL_SEED, "fixed": fixed, "pool": [], "cli": []}
    for size in POOL_SIZES:
        frozen["pool"] += draw_pool(lib, size, POOL_PER_SIZE, log)
    for line in CLI_COMMANDS.splitlines():
        argv = shlex.split(line)
        rc, text = run_cli(lib.cli.main, resolve_argv(argv))
        if rc != 0:
            raise AssertionError(f"cli command failed with status {rc}: {line}")
        frozen["cli"].append({"argv": argv, "stdout_sha256": sha256(text)})
    frozen["default"] = {"build-family": draw_family(frozen, DEFAULT_SEED)}
    rb = RbAllPairs(frozen, DEFAULT_SEED)
    rb.setup(lib)
    for op in rb.ops(lib):
        error = rb.check(lib, op, op.run())
        if error:
            raise AssertionError(error)
    frozen["default"]["rb-allpairs"] = {"pairs_sha256": rb.pairs_digest(lib), "witness_sha256": rb.witness_digest()}
    return frozen


def check_pool(lib, frozen: dict, count: int) -> list[str]:
    """Redraw the first `count` pool specs of each size and the family, and
    compare them with the frozen ones."""
    errors = []
    if draw_family(frozen, DEFAULT_SEED) != frozen["default"]["build-family"]:
        errors.append("build-family draw from the pool drifted")
    for size in POOL_SIZES:
        drawn = draw_pool(lib, size, count)
        kept = [s for s in frozen["pool"] if s["letters"] == size][:count]
        if drawn != kept:
            errors.append(f"pool draw for {size} letters drifted")
    return errors


def main() -> int:
    frozen = build_frozen(run.import_library(), lambda msg: print(msg, file=sys.stderr))
    with open(FROZEN, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
