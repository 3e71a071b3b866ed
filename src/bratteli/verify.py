"""Verification battery for the two worked fixtures.

Generic checks compare a computed diagram with the classical tables for the
golden-mean and Thue-Morse systems: collared rules, exact edge labels, the
commutative-diagram census with its translation sums, decoded words, prefix
labels, extremal paths with their pairing, and the boundary dichotomy.  A
fixture is only a table in `EXPECTED`: check name -> {generic check: the
value it must find}, built in the fixture's field.  Then come the checks any
diagram must pass.  The CLI's verify-paper command runs this battery and
reports one line per check.

Two of those checks are where the square equation is checked: every square
the census lists, and every opposite pair, is decided on the template
coefficients as they are kept, integer vectors over the diagram's one
denominator, with lambda c(h) formed once per horizontal as an integer
product.  Each vector is decided by the field's one sign routine
(`ModulusField._sign`), as the denominator is positive: a zero vector holds
at once, with no element formed, and only a nonzero one goes to the exact
zero test, which a reducible reduced modulus needs, as it has nonzero
representatives of 0.  The checks that compare labels with a fixture's
table read elements through the diagram's element view.
"""

from __future__ import annotations

from ._record import Record
from .analysis import classify_GF
from .diagram import BratteliDiagram, build_diagram, diagram_chains, hypothesis_check
from .exactnum import HALF
from .fixtures import load_fixture
from .paths import af_equiv, decode, extremal_paths, pair_extremes, parse_path, render_path, u_of_prefix


class CheckResult(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail


def run_battery(fixture: str) -> list[CheckResult]:
    diagram = build_diagram(load_fixture(fixture))
    results = []
    for name, parts in {**EXPECTED[fixture](diagram), **COMMON}.items():
        try:
            for check, expected in parts.items():
                check(diagram, expected)
            results.append(CheckResult(name, True))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results


def _assert(cond, message):
    if not cond:
        raise AssertionError(message)


# -- generic checks: each takes the diagram and the values it must find -------------


def _triples(diagram: BratteliDiagram, expected: dict[str, tuple[str, ...]]):
    csub, base = diagram.csub, diagram.csub.base.alphabet
    triples = {csub.name_of(i): tuple(base[x].name for x in c.triple()) for i, c in enumerate(csub.collared_alphabet)}
    _assert(triples == expected, f"collar triples {triples}")


def _rules(diagram: BratteliDiagram, expected: dict[str, str]):
    csub = diagram.csub
    rules = {csub.name_of(i): csub.rule_name(i) for i in range(len(diagram.vertices))}
    _assert(rules == expected, f"collared rules {rules}")


def _lengths(diagram: BratteliDiagram, expected: list):
    lengths = [diagram.csub.base.lengths[x] for x in sorted(diagram.csub.base.lengths)]
    ok = len(lengths) == len(expected) and all(a.equals(b) for a, b in zip(lengths, expected))
    _assert(ok, f"tile lengths {[a.render() for a in lengths]}")


def _inflation(diagram: BratteliDiagram, expected: int):
    _assert(diagram.lam.equals(expected), f"inflation {diagram.lam.render()}")


def _labels(what: str, got: dict, expected: dict):
    _assert(set(got) == set(expected), f"{what} {sorted(got)}")
    for name, value in expected.items():
        _assert(got[name].equals(value), f"{what} {name} is {got[name].render()}, not {value.render()}")


def _verticals(diagram: BratteliDiagram, expected: dict):
    _labels("vertical edges", {diagram.edge_label(e): diagram.elements[e.coeff] for e in diagram.verticals}, expected)


def _patches(diagram: BratteliDiagram, expected: dict):
    """The positively oriented template of each legal adjacency, keyed leftname+rightname."""
    patches = {}
    for h in diagram.horizontals:
        if not h.trivial and diagram.field._sign(h.coeff) > 0:
            patches[diagram.vertices[h.src] + diagram.vertices[h.rng]] = diagram.elements[h.coeff]
    _labels("patches", patches, expected)


def _nontrivial(diagram: BratteliDiagram, expected: int):
    n = sum(1 for h in diagram.horizontals if not h.trivial)
    _assert(n == expected, f"{n} directed nontrivial horizontals")


def _diagram_sums(diagram: BratteliDiagram, expected: list[tuple]):
    """`expected` pairs each translation sum u with the number of recurrent
    diagrams that carry it; at generation n the sum is u*lambda^(n-2)."""
    diags = diagram.diagrams
    _assert(len(diags) == sum(k for _, k in expected), f"{len(diags)} recurrent commutative diagrams")
    counts = [0] * len(expected)
    for s in diags:
        usum = diagram.square_usum(s)
        i = next((i for i, (u, _) in enumerate(expected) if usum.equals(u)), None)
        _assert(i is not None, f"diagram sum {usum.render()}")
        counts[i] += 1
    _assert(counts == [k for _, k in expected], f"diagrams per sum {counts}")


def _chains(diagram: BratteliDiagram, expected: list[int]):
    _, cycles = diagram_chains(diagram)
    _assert(sorted(len(c) for c in cycles) == expected, f"cycles {cycles}")


def _decoded(diagram: BratteliDiagram, expected: dict[str, tuple[str, int]]):
    for text, word_and_index in expected.items():
        patch = decode(parse_path(diagram, text))
        got = (patch.word(), patch.puncture_index)
        _assert(got == word_and_index, f"{text} decodes to word {got[0]}, puncture index {got[1]}")


def _prefixes(diagram: BratteliDiagram, expected: dict):
    for text, value in expected.items():
        u = u_of_prefix(parse_path(diagram, text))
        _assert(u.equals(value), f"u({text}) is {u.render()}, not {value.render()}")


def _pairing(diagram: BratteliDiagram, expected: dict[str, str]):
    """`expected` maps each maximal path to psi of it, a minimal path."""
    for kind, paths, names in zip(("mins", "maxs"), extremal_paths(diagram), (expected.values(), expected)):
        got = sorted(render_path(p) for p in paths)
        _assert(got == sorted(names), f"{kind} {got}")
    pairing = pair_extremes(diagram)
    _assert(len(pairing.pairs) == len(expected), f"{len(pairing.pairs)} extremal pairs")
    got = {render_path(mx): render_path(mn) for mx, mn in pairing.pairs}
    _assert(got == expected, f"pairing {got}")


def _dichotomy(diagram: BratteliDiagram, expected: dict[str, str]):
    """Extremal paths stay near a boundary (F); `expected` gives other paths' kinds."""
    mins, maxs = extremal_paths(diagram)
    for p in mins + maxs:
        _assert(classify_GF(p).kind == "F", "extremal paths stay near a boundary")
    for text, kind in expected.items():
        got = classify_GF(parse_path(diagram, text)).kind
        _assert(got == kind, f"{text} is of kind {got}, not {kind}")
    _assert(not af_equiv(mins[0], maxs[0]), "min and max are not tail equivalent")


# -- checks every diagram must pass: they find no values ---------------------------


def _regularity(diagram, _=None):
    for v in range(len(diagram.vertices)):
        _assert(diagram.in_edges[v], f"vertex {diagram.vertices[v]} has no incoming edge")
        _assert(diagram.out_edges[v], f"vertex {diagram.vertices[v]} has no outgoing edge")


def _opposites(diagram, _=None):
    hs = diagram.horizontals
    for h in hs:
        _assert(hs[h.opposite].opposite == h.index, "opposite pairing is not an involution")
        cancel = [a + b for a, b in zip(h.coeff, hs[h.opposite].coeff)]
        _assert(diagram.field._sign(cancel) == 0, "opposite labels do not cancel")


def _residuals(diagram, _=None):
    # every square's equation in integers over the diagram's one denominator,
    # lambda c(h) formed once per horizontal: the census finds the squares by
    # adjacency with no arithmetic and this reads only their keys, so it is an
    # independent cross-check
    ev, hv = [e.coeff for e in diagram.verticals], [h.coeff for h in diagram.horizontals]
    lam_hv = [diagram.field.product(v, [0, 1]) for v in hv]
    for s in diagram.squares:
        res = [a + b - c - d for a, b, c, d in zip(ev[s.e_left], lam_hv[s.h_bot], hv[s.h_top], ev[s.e_right])]
        _assert(diagram.field._sign(res) == 0, "nonzero residual")


def _hypothesis(diagram, _=None):
    _assert(hypothesis_check(diagram) is None, "violating vertex found")


COMMON = {
    "regularity (no sinks, no sources)": {_regularity: None},
    "two-infinite-paths hypothesis": {_hypothesis: None},
    "opposite horizontals cancel": {_opposites: None},
    "all commutative squares have zero residual": {_residuals: None},
}


# -- the fixtures' tables ----------------------------------------------------------


def _fibonacci(diagram: BratteliDiagram) -> dict[str, dict]:
    f, phi = diagram.field, diagram.lam
    inv2phi = (phi - 1).scale(HALF)  # 1/(2*phi)
    return {
        "collared alphabet and rules match the classical table": {
            _triples: {"a": ("0", "0", "1"), "b": ("1", "0", "0"), "c": ("1", "0", "1"), "d": ("0", "1", "0")},
            _rules: {"a": "cd", "b": "ad", "c": "ad", "d": "b"},
        },
        "tile lengths (1, 1/phi)": {_lengths: [f.one, phi - 1]},
        "vertical labels (1/(2 phi), 0, -1/2)": {
            _verticals: {**_each("ab ac ca", inv2phi), "bd": f.zero, **_each("da db dc", f.rational(-HALF))}
        },
        "horizontal adjacencies and labels": {
            _patches: {"ba": f.one, **_each("ad db cd dc", phi.scale(HALF))}, _nontrivial: 10
        },
        "exactly 2 commutative diagrams with sums -phi^(n-2), -(phi+1)/2*phi^(n-2)": {
            _diagram_sums: [(f.rational(-1), 1), (-(phi + 1).scale(HALF), 1)]
        },
        "one 2-cycle of composable diagrams": {_chains: [2]},
        "path (a; ac ca ab) decodes to the dotted word adbad": {_decoded: {"root=a; ac ca ab": ("adbad", 0)}},
        "prefix translation labels": {
            _prefixes: {"root=a;": f.zero, "root=a; ac": inv2phi, "root=a; ac ca": inv2phi + inv2phi * phi}
        },
        "extremal paths and pairing psi": {
            _pairing: {"root=b; (bd db)": "root=a; (ac ca)", "root=d; (db bd)": "root=c; (ca ac)"}
        },
        "boundary dichotomy on extremal and mixed paths": {_dichotomy: {"root=a; (ab bd da)": "G"}},
    }


def _thue_morse(diagram: BratteliDiagram) -> dict[str, dict]:
    f, half = diagram.field, diagram.field.rational(HALF)
    return {
        "collared rules, lengths (1,1), inflation 2": {
            _rules: {"a": "bf", "b": "ec", "c": "de", "d": "fa", "e": "bc", "f": "da"},
            _lengths: [f.one, f.one],
            _inflation: 2,
        },
        "vertical labels +-1/2 * 2^(n-2)": {
            _verticals: {**_each("ba be dc df eb fd", half), **_each("ad af cb ce ec fa", -half)}
        },
        "horizontal adjacencies all carry |c| = 2^(n-1)": {_patches: _each("ab bc cd de ef fe fa da bf ec", f.one)},
        "exactly 4 commutative diagrams with sums -(3/2)*2^(n-2)": {_diagram_sums: [(f.rational(-3 * HALF), 4)]},
        "two 2-cycles of composable diagrams": {_chains: [2, 2]},
        "path (a; ad dc cb) decodes to ecdef(a)bc": {_decoded: {"root=a; ad dc cb": ("ecdefabc", 5)}},
        "four minimal / four maximal paths and pairing psi": {
            _pairing: {"root=a; (af fa)": "root=b; (be eb)", "root=f; (fa af)": "root=e; (eb be)",
                       "root=c; (ce ec)": "root=d; (df fd)", "root=e; (ec ce)": "root=f; (fd df)"}
        },
    }


def _each(names: str, value) -> dict:
    return dict.fromkeys(names.split(), value)


EXPECTED = {"fibonacci": _fibonacci, "thue-morse": _thue_morse}
