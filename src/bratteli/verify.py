"""Verification battery for the two worked fixtures.

Each check compares a computed object against the classical tables for the
golden-mean or Thue-Morse system: collared rules, exact edge labels, the
commutative-diagram census with its translation sums, decoded words,
extremal paths and their pairing.  The CLI's verify-paper command runs this
battery and reports one line per check; the acceptance test suite reuses
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import classify_GF
from .diagram import BratteliDiagram, build_diagram, diagram_chains, hypothesis_check
from .fixtures import load_fixture
from .paths import (
    af_equiv,
    decode,
    extremal_paths,
    parse_path,
    render_path,
    u_of_prefix,
    vershik_successor,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(results, name, fn):
    try:
        fn()
        results.append(CheckResult(name, True))
    except AssertionError as exc:
        results.append(CheckResult(name, False, str(exc)))


def run_battery(fixture: str) -> list[CheckResult]:
    sub = load_fixture(fixture)
    diagram = build_diagram(sub)
    if fixture == "fibonacci":
        return _fibonacci_battery(diagram)
    if fixture == "thue-morse":
        return _thue_morse_battery(diagram)
    raise ValueError(f"no battery for fixture {fixture!r}")


def _vertical_coeffs(diagram: BratteliDiagram) -> dict[str, object]:
    return {diagram.edge_label(e): e.coeff for e in diagram.verticals}


def _nontrivial_patches(diagram: BratteliDiagram) -> dict[str, object]:
    """Adjacency patches: the positively oriented template per ordered legal
    adjacency, keyed leftname+rightname."""
    out = {}
    for h in diagram.horizontals:
        if not h.trivial and h.coeff.sign() > 0:
            out[diagram.vertices[h.src] + diagram.vertices[h.rng]] = h.coeff
    return out


def _common_checks(diagram: BratteliDiagram, results):
    _check(results, "regularity (no sinks, no sources)", lambda: _regularity(diagram))
    _check(
        results,
        "two-infinite-paths hypothesis",
        lambda: _assert(hypothesis_check(diagram) is None, "violating vertex found"),
    )
    _check(results, "opposite horizontals cancel", lambda: _opposites(diagram))
    _check(results, "all commutative squares have zero residual", lambda: _residuals(diagram))


def _regularity(diagram):
    for v in range(len(diagram.vertices)):
        _assert(diagram.in_edges[v], f"vertex {diagram.vertices[v]} has no incoming edge")
        _assert(diagram.out_edges[v], f"vertex {diagram.vertices[v]} has no outgoing edge")


def _opposites(diagram):
    for h in diagram.horizontals:
        op = diagram.horizontals[h.opposite]
        _assert(op.opposite == h.index, "opposite pairing is not an involution")
        _assert((h.coeff + op.coeff).is_zero(), "opposite labels do not cancel")


def _residuals(diagram):
    # every square's equation by multiplication, once per horizontal: the
    # census finds the squares by adjacency with no arithmetic, so this is
    # an independent cross-check
    lam_c = [diagram.lam * h.coeff for h in diagram.horizontals]
    for s in diagram.squares:
        ht = diagram.horizontals[s.h_top]
        el = diagram.verticals[s.e_left]
        er = diagram.verticals[s.e_right]
        res = el.coeff + lam_c[s.h_bot] - ht.coeff - er.coeff
        _assert(res.is_zero(), "nonzero residual")


def _assert(cond, message="check failed"):
    if not cond:
        raise AssertionError(message)


def _collared_rules_str(diagram: BratteliDiagram) -> dict[str, str]:
    csub = diagram.csub
    return {csub.name_of(i): csub.rule_name(i) for i in range(len(diagram.vertices))}


def _fibonacci_battery(diagram: BratteliDiagram) -> list[CheckResult]:
    results: list[CheckResult] = []
    csub = diagram.csub
    f = diagram.field
    phi = diagram.lam
    half = Fraction(1, 2)
    inv2phi = (phi - 1).scale(half)  # 1/(2*phi)

    def check_collars():
        triples = {
            csub.name_of(i): tuple(
                csub.base.alphabet[x].name for x in csub.collared_alphabet[i].triple()
            )
            for i in range(4)
        }
        _assert(
            triples
            == {
                "a": ("0", "0", "1"),
                "b": ("1", "0", "0"),
                "c": ("1", "0", "1"),
                "d": ("0", "1", "0"),
            },
            f"collar triples {triples}",
        )
        rules = _collared_rules_str(diagram)
        _assert(
            rules == {"a": "cd", "b": "ad", "c": "ad", "d": "b"},
            f"collared rules {rules}",
        )

    _check(results, "collared alphabet and rules match the classical table", check_collars)

    def check_lengths():
        _assert(csub.base.lengths[0].equals(1), "length of 0 must be 1")
        _assert(csub.base.lengths[1].equals(phi - 1), "length of 1 must be 1/phi")

    _check(results, "tile lengths (1, 1/phi)", check_lengths)

    def check_verticals():
        got = _vertical_coeffs(diagram)
        _assert(set(got) == {"ab", "ac", "ca", "bd", "da", "db", "dc"}, f"edges {sorted(got)}")
        for name in ("ab", "ac", "ca"):
            _assert(got[name].equals(inv2phi), f"{name} label must be 1/(2 phi)")
        _assert(got["bd"].is_zero(), "bd label must be 0")
        for name in ("da", "db", "dc"):
            _assert(got[name].equals(f.rational(-half)), f"{name} label must be -1/2")

    _check(results, "vertical labels (1/(2 phi), 0, -1/2)", check_verticals)

    def check_horizontals():
        patches = _nontrivial_patches(diagram)
        _assert(set(patches) == {"ba", "ad", "db", "cd", "dc"}, f"patches {sorted(patches)}")
        _assert(patches["ba"].equals(1), "|c| of the a-b edge must be 1")
        for name in ("ad", "db", "cd", "dc"):
            _assert(patches[name].equals(phi.scale(half)), f"|c| of {name} must be phi/2")
        n_nontrivial = sum(1 for h in diagram.horizontals if not h.trivial)
        _assert(n_nontrivial == 10, f"{n_nontrivial} directed nontrivial horizontals")

    _check(results, "horizontal adjacencies and labels", check_horizontals)

    def check_diagrams():
        diags = diagram.diagrams
        _assert(len(diags) == 2, f"{len(diags)} recurrent commutative diagrams")
        sums = sorted(diagram.square_usum(s).to_decimal(6) for s in diags)
        expected = sorted(
            [f.rational(-1).to_decimal(6), (-(phi + 1).scale(half)).to_decimal(6)]
        )
        _assert(sums == expected, f"u-sums {sums}")
        for s in diags:
            usum = diagram.square_usum(s)
            _assert(
                usum.equals(f.rational(-1)) or usum.equals(-(phi + 1).scale(half)),
                "diagram sum must be -phi^(n-2) or -(phi+1)/2 phi^(n-2)",
            )
        for n in range(2, 7):
            scalepow = phi ** (n - 2)
            for s in diags:
                lhs = (diagram.verticals[s.e_left].coeff + phi * diagram.horizontals[s.h_bot].coeff) * scalepow
                rhs = (diagram.horizontals[s.h_top].coeff + diagram.verticals[s.e_right].coeff) * scalepow
                _assert((lhs - rhs).is_zero(), f"scaling law fails at n={n}")

    _check(results, "exactly 2 commutative diagrams with sums -phi^(n-2), -(phi+1)/2*phi^(n-2)", check_diagrams)

    def check_chains():
        _, cycles = diagram_chains(diagram)
        _assert(len(cycles) == 1 and len(cycles[0]) == 2, f"cycles {cycles}")

    _check(results, "one 2-cycle of composable diagrams", check_chains)

    def check_decode():
        patch = decode(parse_path(diagram, "root=a; ac ca ab"))
        _assert(patch.word() == "adbad", f"word {patch.word()}")
        _assert(patch.puncture_index == 0, f"puncture index {patch.puncture_index}")

    _check(results, "path (a; ac ca ab) decodes to the dotted word adbad", check_decode)

    def check_uprefix():
        _assert(u_of_prefix(parse_path(diagram, "root=a;")).is_zero())
        _assert(u_of_prefix(parse_path(diagram, "root=a; ac")).equals(inv2phi))
        _assert(
            u_of_prefix(parse_path(diagram, "root=a; ac ca")).equals(
                inv2phi + inv2phi * phi
            )
        )

    _check(results, "prefix translation labels", check_uprefix)

    def check_extremes():
        mins, maxs = extremal_paths(diagram)
        min_strs = sorted(render_path(p) for p in mins)
        max_strs = sorted(render_path(p) for p in maxs)
        _assert(min_strs == ["root=a; (ac ca)", "root=c; (ca ac)"], f"mins {min_strs}")
        _assert(max_strs == ["root=b; (bd db)", "root=d; (db bd)"], f"maxs {max_strs}")
        pairing = diagram.pair_extremes()
        _assert(len(pairing.pairs) == 2, "two extremal pairs")
        for mx, mn in pairing.pairs:
            _assert(vershik_successor(mx) == mn, "V(max) must be psi(max)")
        got = {render_path(mx): render_path(mn) for mx, mn in pairing.pairs}
        _assert(
            got == {"root=b; (bd db)": "root=a; (ac ca)", "root=d; (db bd)": "root=c; (ca ac)"},
            f"pairing {got}",
        )

    _check(results, "extremal paths and pairing psi", check_extremes)

    def check_gf():
        mins, maxs = extremal_paths(diagram)
        for p in mins + maxs:
            _assert(classify_GF(p).kind == "F", "extremal paths stay near a boundary")
        mixed = parse_path(diagram, "root=a; (ab bd da)")
        _assert(classify_GF(mixed).kind == "G", "mixed cycle must escape")
        _assert(not af_equiv(mins[0], maxs[0]), "min and max are not tail equivalent")

    _check(results, "boundary dichotomy on extremal and mixed paths", check_gf)

    _common_checks(diagram, results)
    return results


def _thue_morse_battery(diagram: BratteliDiagram) -> list[CheckResult]:
    results: list[CheckResult] = []
    csub = diagram.csub
    f = diagram.field
    lam = diagram.lam
    half = Fraction(1, 2)

    def check_rules():
        rules = _collared_rules_str(diagram)
        _assert(
            rules == {"a": "bf", "b": "ec", "c": "de", "d": "fa", "e": "bc", "f": "da"},
            f"collared rules {rules}",
        )
        _assert(csub.base.lengths[0].equals(1) and csub.base.lengths[1].equals(1))
        _assert(lam.equals(2), "inflation must be 2")

    _check(results, "collared rules, lengths (1,1), inflation 2", check_rules)

    def check_verticals():
        got = _vertical_coeffs(diagram)
        plus = {"ba", "be", "dc", "df", "eb", "fd"}
        minus = {"ad", "af", "cb", "ce", "ec", "fa"}
        _assert(set(got) == plus | minus, f"edges {sorted(got)}")
        for name in plus:
            _assert(got[name].equals(f.rational(half)), f"{name} must be +1/2")
        for name in minus:
            _assert(got[name].equals(f.rational(-half)), f"{name} must be -1/2")

    _check(results, "vertical labels +-1/2 * 2^(n-2)", check_verticals)

    def check_horizontals():
        patches = _nontrivial_patches(diagram)
        _assert(
            set(patches) == {"ab", "bc", "cd", "de", "ef", "fe", "fa", "da", "bf", "ec"},
            f"patches {sorted(patches)}",
        )
        for name, c in patches.items():
            _assert(c.equals(1), f"|c| of {name} must be 1")

    _check(results, "horizontal adjacencies all carry |c| = 2^(n-1)", check_horizontals)

    def check_diagrams():
        diags = diagram.diagrams
        _assert(len(diags) == 4, f"{len(diags)} recurrent commutative diagrams")
        for s in diags:
            _assert(
                diagram.square_usum(s).equals(f.rational(Fraction(-3, 2))),
                "sum must be -(3/2) 2^(n-2)",
            )
        for n in range(2, 7):
            scalepow = lam ** (n - 2)
            for s in diags:
                lhs = (diagram.verticals[s.e_left].coeff + lam * diagram.horizontals[s.h_bot].coeff) * scalepow
                _assert(lhs.equals(f.rational(Fraction(-3, 2)) * scalepow), f"n={n}")

    _check(results, "exactly 4 commutative diagrams with sums -(3/2)*2^(n-2)", check_diagrams)

    def check_chains():
        _, cycles = diagram_chains(diagram)
        _assert(len(cycles) == 2 and all(len(c) == 2 for c in cycles), f"cycles {cycles}")

    _check(results, "two 2-cycles of composable diagrams", check_chains)

    def check_decode():
        patch = decode(parse_path(diagram, "root=a; ad dc cb"))
        _assert(patch.word() == "ecdefabc", f"word {patch.word()}")
        _assert(patch.puncture_index == 5, f"puncture index {patch.puncture_index}")

    _check(results, "path (a; ad dc cb) decodes to ecdef(a)bc", check_decode)

    def check_extremes():
        mins, maxs = extremal_paths(diagram)
        min_strs = sorted(render_path(p) for p in mins)
        max_strs = sorted(render_path(p) for p in maxs)
        _assert(
            min_strs
            == ["root=b; (be eb)", "root=d; (df fd)", "root=e; (eb be)", "root=f; (fd df)"],
            f"mins {min_strs}",
        )
        _assert(
            max_strs
            == ["root=a; (af fa)", "root=c; (ce ec)", "root=e; (ec ce)", "root=f; (fa af)"],
            f"maxs {max_strs}",
        )
        pairing = diagram.pair_extremes()
        _assert(len(pairing.pairs) == 4, "four extremal pairs")
        for mx, mn in pairing.pairs:
            _assert(vershik_successor(mx) == mn, "V(max) must be psi(max)")
        got = {render_path(mx): render_path(mn) for mx, mn in pairing.pairs}
        _assert(
            got
            == {
                "root=a; (af fa)": "root=b; (be eb)",
                "root=f; (fa af)": "root=e; (eb be)",
                "root=c; (ce ec)": "root=d; (df fd)",
                "root=e; (ec ce)": "root=f; (fd df)",
            },
            f"pairing {got}",
        )

    _check(results, "four minimal / four maximal paths and pairing psi", check_extremes)

    _common_checks(diagram, results)
    return results
