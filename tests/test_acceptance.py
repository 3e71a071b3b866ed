"""Acceptance battery: one test per criterion, exact tolerances throughout.

Each test prints a PASS line on success (run with -s or -v to see them); a
failure surfaces as an ordinary assertion error naming the criterion.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from bratteli.analysis import classify_GF, escape_depth, gap_profile
from bratteli.diagram import export_json, hypothesis_check
from bratteli.paths import (
    af_equiv,
    decode,
    enumerate_paths,
    extremal_paths,
    pair_extremes,
    parse_path,
    rb_equiv,
    rb_via_generators,
    render_path,
    u_of_prefix,
    vershik_successor,
)

from oracles import diagram_from_export, glued_translation

HALF = Fraction(1, 2)


def ok(msg):
    print(f"PASS {msg}")


def triples_by_name(diagram):
    csub = diagram.csub
    return {
        cl.name: tuple(csub.base.alphabet[x].name for x in cl.triple())
        for cl in csub.collared_alphabet
    }


def rules_by_name(diagram):
    csub = diagram.csub
    return {csub.name_of(i): csub.rule_name(i) for i in range(len(diagram.vertices))}


def coeffs_by_label(diagram):
    return {diagram.edge_label(e): diagram.elements[e.coeff] for e in diagram.verticals}


def test_criterion_01_fibonacci_collaring(fib):
    assert triples_by_name(fib) == {
        "a": ("0", "0", "1"),
        "b": ("1", "0", "0"),
        "c": ("1", "0", "1"),
        "d": ("0", "1", "0"),
    }
    assert rules_by_name(fib) == {"a": "cd", "b": "ad", "c": "ad", "d": "b"}
    ok("criterion 1: Fibonacci collaring (4 letters, rules cd/ad/ad/b)")


def test_criterion_02_fibonacci_vertical_labels(fib):
    phi = fib.lam
    inv2phi = (phi - 1).scale(HALF)
    got = coeffs_by_label(fib)
    assert set(got) == {"ab", "ac", "ca", "bd", "da", "db", "dc"}
    for name in ("ab", "ac", "ca"):
        assert got[name].equals(inv2phi), name
    assert got["bd"].is_zero()
    for name in ("da", "db", "dc"):
        assert got[name].equals(fib.field.rational(-HALF)), name
    ok("criterion 2: Fibonacci vertical labels 1/(2phi), 0, -1/2 exactly")


def test_criterion_03_fibonacci_horizontal_labels(fib):
    phi = fib.lam
    patches = {}
    for h in fib.horizontals:
        if not h.trivial and fib.elements[h.coeff].sign() > 0:
            patches[fib.vertices[h.src] + fib.vertices[h.rng]] = fib.elements[h.coeff]
    assert set(patches) == {"ba", "ad", "db", "cd", "dc"}
    assert patches["ba"].equals(1)
    for name in ("ad", "db", "cd", "dc"):
        assert patches[name].equals(phi.scale(HALF)), name
    # documented orientation: source = left tile, coefficient positive;
    # the opposite edge carries the negated label
    for h in fib.horizontals:
        if not h.trivial:
            assert (fib.elements[h.coeff] + fib.elements[fib.horizontals[h.opposite].coeff]).is_zero()
    ok("criterion 3: Fibonacci horizontal adjacencies {ba,ad,db,cd,dc}, |c| in {1, phi/2}")


def test_criterion_04_commutative_diagrams(fib, tm):
    lamf = fib.lam
    assert len(fib.diagrams) == 2
    d1 = [s for s in fib.diagrams if fib.square_usum(s).equals(-1)]
    d2 = [s for s in fib.diagrams if fib.square_usum(s).equals(-(lamf + 1).scale(HALF))]
    assert len(d1) == 1 and len(d2) == 1
    # zero residual for every stored square, on both fixtures
    for diagram in (fib, tm):
        lam = diagram.lam
        for s in diagram.squares:
            res = (
                diagram.elements[diagram.verticals[s.e_left].coeff]
                + lam * diagram.elements[diagram.horizontals[s.h_bot].coeff]
                - diagram.elements[diagram.horizontals[s.h_top].coeff]
                - diagram.elements[diagram.verticals[s.e_right].coeff]
            )
            assert res.is_zero()
    # scaling law at n = 2..6: realized sums match the published powers
    for n in range(2, 7):
        p = fib.field.lam() ** (n - 2)
        realized = fib.square_usum(d1[0]) * p
        assert realized.equals(-p)  # -phi^(n-2)
    assert len(tm.diagrams) == 4
    for s in tm.diagrams:
        assert tm.square_usum(s).equals(tm.field.rational(Fraction(-3, 2)))
    for n in range(2, 7):
        p = tm.field.lam() ** (n - 2)
        for s in tm.diagrams:
            assert (tm.square_usum(s) * p).equals(p.scale(Fraction(-3, 2)))
    ok("criterion 4: 2 / 4 commutative diagrams, zero residuals, sums -phi^(n-2) and -(3/2)2^(n-2) for n=2..6")


def test_criterion_05_decoding(fib, tm):
    patch = decode(parse_path(fib, "root=a; ac ca ab"))
    assert patch.word() == "adbad" and patch.puncture_index == 0
    patch = decode(parse_path(tm, "root=a; ad dc cb"))
    assert patch.word() == "ecdefabc" and patch.puncture_index == 5
    ok("criterion 5: decoded words adbad (index 0) and ecdefabc (index 5)")


def test_criterion_06_thue_morse_labels(tm):
    got = coeffs_by_label(tm)
    plus = {"ba", "be", "dc", "df", "eb", "fd"}
    minus = {"ad", "af", "cb", "ce", "ec", "fa"}
    assert set(got) == plus | minus
    for name in plus:
        assert got[name].equals(tm.field.rational(HALF)), name
    for name in minus:
        assert got[name].equals(tm.field.rational(-HALF)), name
    for h in tm.horizontals:
        if not h.trivial:
            assert tm.elements[h.coeff].equals(1) or tm.elements[h.coeff].equals(-1)
    ok("criterion 6: Thue-Morse vertical labels +-1/2, horizontal |c| = 1")


def test_criterion_07_extremal_paths_and_pairing(fib, tm):
    mins, maxs = extremal_paths(fib)
    assert sorted(render_path(p) for p in mins) == ["root=a; (ac ca)", "root=c; (ca ac)"]
    assert sorted(render_path(p) for p in maxs) == ["root=b; (bd db)", "root=d; (db bd)"]
    tmins, tmaxs = extremal_paths(tm)
    assert {render_path(p) for p in tmins} == {
        "root=b; (be eb)", "root=e; (eb be)", "root=d; (df fd)", "root=f; (fd df)",
    }
    assert {render_path(p) for p in tmaxs} == {
        "root=a; (af fa)", "root=f; (fa af)", "root=c; (ce ec)", "root=e; (ec ce)",
    }
    for diagram, n_pairs in ((fib, 2), (tm, 4)):
        pairing = pair_extremes(diagram)
        assert len(pairing.pairs) == n_pairs
        seen_max = {render_path(mx) for mx, _ in pairing.pairs}
        seen_min = {render_path(mn) for _, mn in pairing.pairs}
        assert len(seen_max) == n_pairs and len(seen_min) == n_pairs  # bijection
        for mx, mn in pairing.pairs:
            assert vershik_successor(mx) == mn
            w = rb_equiv(mx, mn)  # psi moves the puncture one tile
            assert w is not None and (w.translation + diagram.elements[diagram.forward_h[mx.root, mn.root].coeff]).is_zero()
    ok("criterion 7: extremal path lists, psi bijection, V(max) = psi(max)")


@pytest.fixture(scope="module")
def sample_paths(fib, tm):
    return {
        "fibonacci": (fib, enumerate_paths(fib, 4, 3)),
        "thue-morse": (tm, enumerate_paths(tm, 4, 3)),
    }


@pytest.fixture(scope="module")
def witnesses(sample_paths):
    found = {}
    for name, (diagram, paths) in sample_paths.items():
        pairs = []
        for i, x in enumerate(paths):
            for y in paths[i + 1 :]:
                w = rb_equiv(x, y)
                if w is not None:
                    pairs.append((x, y, w))
        found[name] = pairs
    return found


def test_criterion_08_generator_theorem(sample_paths):
    total = 0
    for name, (diagram, paths) in sample_paths.items():
        assert len(paths) == len({p.key() for p in paths})  # deduplicated
        for i, x in enumerate(paths):
            for y in paths[i:]:
                auto = rb_equiv(x, y) is not None
                gen = rb_via_generators(x, y)
                assert auto == gen, (name, render_path(x), render_path(y))
                total += 1
    ok(f"criterion 8: rb_equiv agrees with the generator presentation on {total} pairs")


def test_criterion_09_cocycle(sample_paths, witnesses):
    n_checked = 0
    for name, pairs in witnesses.items():
        diagram, _ = sample_paths[name]
        lam = diagram.lam
        for x, y, w in pairs:
            # generation independence of the translation
            period = len(w.chain)
            for n in (w.n0, w.n0 + period, w.n0 + 2 * period):
                h = diagram.horizontals[w.chain[(n - w.n0) % period]]
                a_n = -(
                    u_of_prefix(x.prefix(n))
                    - u_of_prefix(y.prefix(n))
                    + diagram.elements[h.coeff] * lam ** (n - 1)
                )
                assert a_n.equals(w.translation)
            # glued-patch oracle from interval geometry at depths 5..8
            for depth in (5, 6, 7, 8):
                assert w.translation.equals(glued_translation(x, y, w, depth))
            n_checked += 1
        # full letter-by-letter layout for the extremal pairs themselves
        for mx, mn in pair_extremes(diagram).pairs:
            w = rb_equiv(mx, mn)
            assert w is not None
            for depth in (5, 6, 7, 8):
                assert w.translation.equals(glued_translation(mx, mn, w, depth, full_decode=True))
        # cocycle additivity over composable triples
        by_x = {}
        for x, y, w in pairs:
            by_x.setdefault(x.key(), []).append((x, y, w))
        n_triples = 0
        for x, y, w_xy in pairs:
            if n_triples >= 120:
                break
            for y2, z, w_yz in by_x.get(y.key(), [])[:3]:
                w_xz = rb_equiv(x, z)
                assert w_xz is not None
                assert (w_xy.translation + w_yz.translation - w_xz.translation).is_zero()
                n_triples += 1
        assert n_triples > 0
    ok(f"criterion 9: translation cocycle exact on {n_checked} witnesses (+ glue oracle, triples)")


FIB_SEEDS = [
    "root=b; (bd db)",
    "root=a; (ac ca)",
    "root=a; (ab bd da)",
    "root=d; da (ac ca)",
    "root=c; ca ab (bd db)",
]
TM_SEEDS = [
    "root=a; (af fa)",
    "root=b; (be eb)",
    "root=a; (ad df fa)",
    "root=e; (ec ce)",
    "root=c; cb (be ec cb)",
]


def test_criterion_10_vershik_first_return(fib, tm):
    for diagram, seeds in ((fib, FIB_SEEDS), (tm, TM_SEEDS)):
        pairing = pair_extremes(diagram)
        lengths, core = diagram.csub.base.lengths, diagram.csub.core_of
        for literal in seeds:
            x = parse_path(diagram, literal)
            crossings = 0
            for step in range(1000):
                was_max = x.is_maximal()
                y = vershik_successor(x)
                delta = (lengths[core(x.root)] + lengths[core(y.root)]).scale(HALF)
                assert delta.sign() == 1  # strictly right-moving
                if was_max:
                    crossings += 1
                    assert y == pairing.psi(x)  # crossing routes through psi
                    w = rb_equiv(x, y)  # and moves the puncture one tile
                    assert w is not None and (w.translation + delta).is_zero()
                else:
                    horizon = max(len(x.pre), len(y.pre)) + len(x.cycle) * len(y.cycle) + 2
                    diffs = [
                        n
                        for n in range(2, horizon + 1)
                        if x.edge_index_at(n) != y.edge_index_at(n)
                    ]
                    m = diffs[-1]
                    move = u_of_prefix(x.prefix(m)) - u_of_prefix(y.prefix(m))
                    assert move.equals(delta)  # step = traversed tile lengths
                    if step < 3:
                        px, py = decode(x.prefix(m)), decode(y.prefix(m))
                        assert py.puncture_index == px.puncture_index + 1
                x = y
        # at least the maximal seeds must cross a boundary
    ok("criterion 10: 1000 Vershik steps x 5 seeds x 2 fixtures, exact first-return steps")


def test_criterion_11_gf_dichotomy(sample_paths):
    n_f = n_g = 0
    for name, (diagram, paths) in sample_paths.items():
        mins, maxs = extremal_paths(diagram)
        for x in paths:
            verdict = classify_GF(x)
            near_extreme = any(af_equiv(x, p) for p in mins + maxs)
            assert (verdict.kind == "F") == near_extreme, render_path(x)
            if verdict.kind == "F":
                n_f += 1
            else:
                n_g += 1
        g_paths = [x for x in paths if classify_GF(x).kind == "G"]
        for x in g_paths[:40]:
            for bound in (1, 10, 100):
                depth = escape_depth(x, bound)
                gl, gr = gap_profile(x.prefix(depth)).gaps[-1]
                b = diagram.field.rational(bound)
                assert gl.compare(b) > 0 and gr.compare(b) > 0
    ok(f"criterion 11: F iff tail-equivalent to an extreme ({n_f} F, {n_g} G); G paths escape bounds 1/10/100")


def test_criterion_12_structural_invariants(all_diagrams):
    for name, diagram in all_diagrams.items():
        # opposite-edge cancellation
        for h in diagram.horizontals:
            assert (diagram.elements[h.coeff] + diagram.elements[diagram.horizontals[h.opposite].coeff]).is_zero()
        # regularity
        for v in range(len(diagram.vertices)):
            assert diagram.in_edges[v] and diagram.out_edges[v]
        # two-infinite-paths hypothesis
        assert hypothesis_check(diagram) is None
        # eigen-equation residuals
        csub = diagram.csub
        lam = diagram.lam
        for i, rule in csub.collared_rules.items():
            total = diagram.field.zero
            for y in rule:
                total = total + csub.base.lengths[csub.core_of(y)]
            assert (total - lam * csub.base.lengths[csub.core_of(i)]).is_zero()
        # decode nesting at the exact offsets
        x = enumerate_paths(diagram, 1, 2)[0]
        bigger = decode(x.prefix(5))
        positions = {(t.name, t.left.render(), t.right.render()) for t in bigger.tiles}
        for n in range(1, 5):
            smaller = decode(x.prefix(n))
            for t in smaller.tiles:
                assert (t.name, t.left.render(), t.right.render()) in positions
        # JSON round-trip fixed point
        blob = export_json(diagram)
        assert export_json(diagram_from_export(blob)) == blob
    ok("criterion 12: structural invariants on fibonacci, thue-morse, doubling, random 3-letter")
