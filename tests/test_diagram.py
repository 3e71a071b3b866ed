from __future__ import annotations

import json
from fractions import Fraction

from bratteli.diagram import (
    DiagramTemplate,
    build_diagram,
    diagram_chains,
    diagram_from_json,
    export_dot,
    export_json,
    hypothesis_check,
)
from bratteli.fixtures import doubling

from oracles import paths_through


def coeffs_by_label(diagram):
    return {diagram.edge_label(e): e.coeff for e in diagram.verticals}


def test_fibonacci_vertical_labels(fib):
    got = coeffs_by_label(fib)
    phi = fib.lam
    inv2phi = (phi - 1).scale(Fraction(1, 2))
    assert set(got) == {"ab", "ac", "ca", "bd", "da", "db", "dc"}
    for name in ("ab", "ac", "ca"):
        assert got[name].equals(inv2phi)
    assert got["bd"].is_zero()
    for name in ("da", "db", "dc"):
        assert got[name].equals(fib.field.rational(Fraction(-1, 2)))


def test_thue_morse_vertical_labels(tm):
    got = coeffs_by_label(tm)
    plus = {"ba", "be", "dc", "df", "eb", "fd"}
    minus = {"ad", "af", "cb", "ce", "ec", "fa"}
    assert set(got) == plus | minus
    for name in plus:
        assert got[name].equals(tm.field.rational(Fraction(1, 2)))
    for name in minus:
        assert got[name].equals(tm.field.rational(Fraction(-1, 2)))


def test_doubling_vertical_labels_layout_oracle(dyadic):
    # oracle: two unit tiles in a length-2 supertile centered at 0 have
    # centers -1/2 and +1/2; the label is the negated center
    got = {e.pos: e.coeff for e in dyadic.verticals}
    assert got[0].equals(Fraction(1, 2))
    assert got[1].equals(Fraction(-1, 2))


def test_fibonacci_horizontal_set(fib):
    patches = {
        fib.vertices[h.src] + fib.vertices[h.rng]
        for h in fib.horizontals
        if not h.trivial and h.coeff.sign() > 0
    }
    assert patches == {"ba", "ad", "db", "cd", "dc"}
    phi = fib.lam
    for h in fib.horizontals:
        if h.trivial:
            continue
        pair = fib.vertices[h.src] + fib.vertices[h.rng]
        expected = 1 if pair in ("ba", "ab") else None
        if expected:
            assert h.coeff.equals(1) or h.coeff.equals(-1)
        else:
            half_phi = phi.scale(Fraction(1, 2))
            assert h.coeff.equals(half_phi) or h.coeff.equals(-half_phi)
    assert sum(1 for h in fib.horizontals if not h.trivial) == 10
    assert sum(1 for h in fib.horizontals if h.trivial) == 4


def test_thue_morse_horizontal_set(tm):
    patches = {
        tm.vertices[h.src] + tm.vertices[h.rng]
        for h in tm.horizontals
        if not h.trivial and h.coeff.sign() > 0
    }
    assert patches == {"ab", "bc", "cd", "de", "ef", "fe", "fa", "da", "bf", "ec"}
    for h in tm.horizontals:
        if not h.trivial:
            assert h.coeff.equals(1) or h.coeff.equals(-1)


def test_opposites_cancel(all_diagrams):
    for diagram in all_diagrams.values():
        for h in diagram.horizontals:
            op = diagram.horizontals[h.opposite]
            assert op.src == h.rng and op.rng == h.src
            assert op.opposite == h.index
            assert (h.coeff + op.coeff).is_zero()
            if h.trivial:
                assert op is h


def test_layout_consistency(all_diagrams):
    # sum of subtile lengths equals lambda times the supertile length
    for diagram in all_diagrams.values():
        csub = diagram.csub
        for w, rule in csub.collared_rules.items():
            total = diagram.field.zero
            for u in rule:
                total = total + csub.length_of(u)
            assert (total - diagram.lam * csub.length_of(w)).is_zero()


def brute_force_squares(diagram):
    """Independent quadruple scan with sign-based residual check."""
    found = set()
    lam = diagram.lam
    for ht in diagram.horizontals:
        for el in diagram.verticals:
            for er in diagram.verticals:
                if el.src != ht.src or er.src != ht.rng:
                    continue
                for hb in diagram.horizontals:
                    if hb.src != el.rng or hb.rng != er.rng:
                        continue
                    res = el.coeff + lam * hb.coeff - ht.coeff - er.coeff
                    if res.sign() == 0:
                        found.add((ht.index, el.index, er.index, hb.index))
    return found


def test_squares_match_brute_force(fib, tm, dyadic, rand3):
    for diagram in (fib, tm, dyadic, rand3):
        got = {s.key() for s in diagram.squares}
        assert got == brute_force_squares(diagram)


def test_fibonacci_square_census(fib):
    kinds = {}
    for s in fib.squares:
        kinds[s.kind] = kinds.get(s.kind, 0) + 1
    # 7 tail squares (one per vertical), 10 boundary + 6 interior transient,
    # 4 directed recurrent
    assert kinds == {"af": 7, "transient": 12, "cyclic": 4}
    assert len(fib.diagrams) == 2  # canonical orientation only


def test_fibonacci_diagram_usums(fib):
    phi = fib.lam
    sums = [fib.square_usum(s) for s in fib.diagrams]
    expected = [fib.field.rational(-1), -(phi + 1).scale(Fraction(1, 2))]
    matched = set()
    for s in sums:
        for i, e in enumerate(expected):
            if s.equals(e):
                matched.add(i)
    assert matched == {0, 1}


def test_thue_morse_diagram_census(tm):
    assert len(tm.diagrams) == 4
    for s in tm.diagrams:
        assert tm.square_usum(s).equals(tm.field.rational(Fraction(-3, 2)))


def test_scaling_law(fib, tm):
    for diagram in (fib, tm):
        lam = diagram.lam
        for n in range(2, 7):
            p = lam ** (n - 2)
            for s in diagram.diagrams:
                lhs = (diagram.verticals[s.e_left].coeff + lam * diagram.horizontals[s.h_bot].coeff) * p
                rhs = (diagram.horizontals[s.h_top].coeff + diagram.verticals[s.e_right].coeff) * p
                assert (lhs - rhs).is_zero()


def test_diagram_chains(fib, tm, dyadic):
    _, cycles = diagram_chains(fib)
    assert len(cycles) == 1 and len(cycles[0]) == 2
    _, cycles = diagram_chains(tm)
    assert len(cycles) == 2 and all(len(c) == 2 for c in cycles)
    _, cycles = diagram_chains(dyadic)
    assert len(cycles) == 1 and len(cycles[0]) == 1


def test_chains_empty_without_composable_pair(fib):
    class Stub:
        diagrams = [
            DiagramTemplate(h_top=0, e_left=0, e_right=0, h_bot=1, kind="cyclic"),
            DiagramTemplate(h_top=2, e_left=0, e_right=0, h_bot=3, kind="cyclic"),
        ]

    arcs, cycles = diagram_chains(Stub())
    assert cycles == []
    assert all(not targets for targets in arcs.values())


def test_hypothesis_check(all_diagrams):
    for diagram in all_diagrams.values():
        assert hypothesis_check(diagram) is None


def test_hypothesis_path_count_oracle(fib, tm):
    # every vertex lies on at least two distinct depth-8 rooted paths
    for diagram in (fib, tm):
        for v in range(len(diagram.vertices)):
            for gen in (1, 2, 3):
                assert paths_through(diagram, v, gen, 8) >= 2


def test_regularity_and_stationarity(all_diagrams):
    for diagram in all_diagrams.values():
        for v in range(len(diagram.vertices)):
            assert diagram.in_edges[v] and diagram.out_edges[v]
        # positions within each rule image are exactly 0..k-1
        for v in range(len(diagram.vertices)):
            poss = [e.pos for e in diagram.in_edges[v]]
            assert poss == list(range(len(poss)))


def count_dot(text):
    solid = dashed = root = 0
    for line in text.splitlines():
        if "->" not in line:
            continue
        if "style=dashed" in line:
            dashed += 1
        elif line.strip().startswith("root ->"):
            root += 1
        else:
            solid += 1
    return root, solid, dashed


def test_export_dot_counts(fib):
    # depth 2: 4 root edges, one rank of 7 verticals, 10 dashed per rank
    root, solid, dashed = count_dot(export_dot(fib, 2))
    assert root == 4
    assert solid == 7
    assert dashed == 20
    root, solid, dashed = count_dot(export_dot(fib, 1))
    assert (root, solid, dashed) == (4, 0, 10)
    text = export_dot(fib, 2)
    assert text.count("rank=same") == 2


def test_export_dot_label_scaling(fib):
    text = export_dot(fib, 3)
    # generation-3 vertical labels carry one factor of L
    assert "(-1/2 + 1/2*L)*L" in text


def test_json_roundtrip_fixed_point(all_diagrams):
    for diagram in all_diagrams.values():
        blob = export_json(diagram)
        rebuilt = diagram_from_json(blob)
        assert export_json(rebuilt) == blob


def test_json_counts(fib):
    payload = json.loads(export_json(fib))
    assert len(payload["verticals"]) == 7
    assert sum(1 for h in payload["horizontals"] if not h["trivial"]) == 10
    # squares once per orientation: 7 tail + 6 transient + 2 recurrent
    assert sum(1 for s in payload["diagrams"] if s["kind"] == "cyclic") == 2
    assert len(payload["diagrams"]) == 15
    assert payload["vertices"] == ["a", "b", "c", "d"]


def test_build_from_substitution_directly():
    d = build_diagram(doubling())
    assert len(d.verticals) == 2
