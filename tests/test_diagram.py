from __future__ import annotations

import ast
import gc
import json
import weakref
from fractions import Fraction
from hashlib import sha256
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bratteli import analysis, cli
from bratteli import diagram as diagram_module
from bratteli import paths, substitution, verify
from bratteli import ratpoly as rp
from bratteli.diagram import (
    BratteliDiagram,
    DiagramTemplate,
    _cycles,
    build_diagram,
    diagram_chains,
    export_dot,
    export_json,
    hypothesis_check,
)
from bratteli.exactnum import AlgebraicNumber, ModulusField, render_vector
from bratteli.fixtures import DOUBLING_SPEC, FIBONACCI_SPEC, THUE_MORSE_SPEC, doubling, load_fixture
from bratteli.paths import PathPrefix
from bratteli.substitution import parse_spec

from conftest import RAND3_SPEC, REDUCIBLE_MODULUS_SPECS, frozen_bench_specs, nonempty_paths
from oracles import paths_through, recurrent_squares_by_definition


def coeffs_by_label(diagram):
    return {diagram.edge_label(e): diagram.elements[e.coeff] for e in diagram.verticals}


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
    got = {e.pos: dyadic.elements[e.coeff] for e in dyadic.verticals}
    assert got[0].equals(Fraction(1, 2))
    assert got[1].equals(Fraction(-1, 2))


def test_fibonacci_horizontal_set(fib):
    patches = {
        fib.vertices[h.src] + fib.vertices[h.rng]
        for h in fib.horizontals
        if not h.trivial and fib.elements[h.coeff].sign() > 0
    }
    assert patches == {"ba", "ad", "db", "cd", "dc"}
    phi = fib.lam
    for h in fib.horizontals:
        if h.trivial:
            continue
        pair = fib.vertices[h.src] + fib.vertices[h.rng]
        expected = 1 if pair in ("ba", "ab") else None
        if expected:
            assert fib.elements[h.coeff].equals(1) or fib.elements[h.coeff].equals(-1)
        else:
            half_phi = phi.scale(Fraction(1, 2))
            assert fib.elements[h.coeff].equals(half_phi) or fib.elements[h.coeff].equals(-half_phi)
    assert sum(1 for h in fib.horizontals if not h.trivial) == 10
    assert sum(1 for h in fib.horizontals if h.trivial) == 4


def test_thue_morse_horizontal_set(tm):
    patches = {
        tm.vertices[h.src] + tm.vertices[h.rng]
        for h in tm.horizontals
        if not h.trivial and tm.elements[h.coeff].sign() > 0
    }
    assert patches == {"ab", "bc", "cd", "de", "ef", "fe", "fa", "da", "bf", "ec"}
    for h in tm.horizontals:
        if not h.trivial:
            assert tm.elements[h.coeff].equals(1) or tm.elements[h.coeff].equals(-1)


def test_opposites_cancel(all_diagrams):
    for diagram in all_diagrams.values():
        for h in diagram.horizontals:
            op = diagram.horizontals[h.opposite]
            assert op.src == h.rng and op.rng == h.src
            assert op.opposite == h.index
            assert (diagram.elements[h.coeff] + diagram.elements[op.coeff]).is_zero()
            if h.trivial:
                assert op is h


def test_layout_consistency(all_diagrams):
    # sum of subtile lengths equals lambda times the supertile length
    for diagram in all_diagrams.values():
        csub = diagram.csub
        for w, rule in csub.collared_rules.items():
            total = diagram.field.zero
            for u in rule:
                total = total + csub.base.lengths[csub.core_of(u)]
            assert (total - diagram.lam * csub.base.lengths[csub.core_of(w)]).is_zero()


def brute_force_squares(diagram):
    """Independent quadruple scan with sign-based residual check."""
    found = set()
    lam, c = diagram.lam, diagram.elements
    for ht in diagram.horizontals:
        for el in diagram.verticals:
            for er in diagram.verticals:
                if el.src != ht.src or er.src != ht.rng:
                    continue
                for hb in diagram.horizontals:
                    if hb.src != el.rng or hb.rng != er.rng:
                        continue
                    res = c[el.coeff] + lam * c[hb.coeff] - c[ht.coeff] - c[er.coeff]
                    if res.sign() == 0:
                        found.add((ht.index, el.index, er.index, hb.index))
    return found


def test_squares_match_brute_force(fib, tm, dyadic, rand3, random_diagrams, reducible_diagrams):
    for diagram in (fib, tm, dyadic, rand3, *random_diagrams, *reducible_diagrams):
        got = {s.key() for s in diagram.squares}
        assert got == brute_force_squares(diagram)


# SHA-256 of export_json, recorded before the census summed each side of the
# square equation once per incident pair; pins template and square order.
EXPORT_JSON_SHA256 = {
    "fibonacci": "0cb1e8b59ec63342c375771c400891fde351d06fa0bbdddc3877d5d9f8224b32",
    "thue-morse": "934c6fe36d3721cd30ede9bcc4f1fa2bbf4a12d9da8e3547f40098202d09d00e",
    "doubling": "b13575e993906ebb6c257df049619719b8a6ae1bc53c737123e78db7ba6fc856",
    "rand3": "5bcddb20daca33abbb042311e9a1539fb9077315a7a515cd182e66e634e7ea35",
}


def test_export_json_byte_identical(all_diagrams):
    for name, diagram in all_diagrams.items():
        assert sha256(export_json(diagram).encode()).hexdigest() == EXPORT_JSON_SHA256[name], name


def test_fibonacci_square_census(fib):
    kinds = {}
    for s in fib.squares:
        kinds[s.kind] = kinds.get(s.kind, 0) + 1
    # 7 tail squares (one per vertical), 10 boundary + 6 interior transient,
    # 4 directed recurrent
    assert kinds == {"af": 7, "transient": 12, "cyclic": 4}
    assert len(fib.diagrams) == 2  # canonical orientation only


def test_recurrent_squares_match_definition(all_diagrams, random_diagrams):
    for diagram in (*all_diagrams.values(), *random_diagrams):
        hs = diagram.horizontals
        for s in diagram.squares:
            assert (s.kind == "af") == (hs[s.h_top].trivial and hs[s.h_bot].trivial)
        cyclic = {s.key() for s in diagram.squares if s.kind == "cyclic"}
        assert cyclic == recurrent_squares_by_definition(diagram)


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
        lam, c = diagram.lam, diagram.elements
        for n in range(2, 7):
            p = lam ** (n - 2)
            for s in diagram.diagrams:
                lhs = (c[diagram.verticals[s.e_left].coeff] + lam * c[diagram.horizontals[s.h_bot].coeff]) * p
                rhs = (c[diagram.horizontals[s.h_top].coeff] + c[diagram.verticals[s.e_right].coeff]) * p
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


def stub_diagram(n, edges):
    """Just the vertex count and the (src, rng) verticals hypothesis_check reads."""
    verticals = [SimpleNamespace(src=a, rng=b) for a, b in edges]
    return SimpleNamespace(
        vertices=list(range(n)),
        out_edges={v: [e for e in verticals if e.src == v] for v in range(n)},
        in_edges={v: [e for e in verticals if e.rng == v] for v in range(n)},
    )


def test_hypothesis_check_vertex_without_out_edge():
    # 0 branches to 0 and 1, but 1 has nowhere to go
    assert hypothesis_check(stub_diagram(2, [(0, 0), (0, 1)])) == 1


def test_hypothesis_check_vertex_without_in_edge():
    # 0 branches and 1 leads back to 0, but nothing enters 2
    assert hypothesis_check(stub_diagram(3, [(0, 0), (0, 1), (1, 0), (2, 0)])) == 2


def test_hypothesis_check_forward_closure_never_branches():
    # 0 branches; the forward closure {1, 2} of 1 has single out-edges only
    assert hypothesis_check(stub_diagram(3, [(0, 0), (0, 1), (1, 2), (2, 1)])) == 1
    # 1 lies on no cycle but branches itself; only the closure {2} of 2 fails
    assert hypothesis_check(stub_diagram(3, [(0, 0), (0, 1), (1, 2), (1, 2), (2, 2)])) == 2


def test_hypothesis_check_returns_lowest_violator():
    # nothing enters 1 and 2 has no out-edge: 1 is returned
    assert hypothesis_check(stub_diagram(3, [(0, 0), (0, 2), (1, 0)])) == 1
    # 1 has no out-edge and nothing enters 2: 1 is returned
    assert hypothesis_check(stub_diagram(3, [(0, 0), (0, 1), (2, 0)])) == 1


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


def test_export_dot_refuses_depth_zero(fib):
    with pytest.raises(ValueError, match="depth must be >= 1"):
        export_dot(fib, 0)


def test_export_dot_label_scaling(fib):
    text = export_dot(fib, 3)
    # generation-3 vertical labels carry one factor of L
    assert "(-1/2 + 1/2*L)*L" in text


def test_json_roundtrip_fixed_point(all_diagrams):
    for diagram in all_diagrams.values():
        blob = export_json(diagram)
        assert export_json(oracles.diagram_from_export(blob)) == blob


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


# -- arithmetic shared per base letter ---------------------------------------------

def test_fields_keep_rational_root_and_reduced_modulus(all_diagrams, random_diagrams, reducible_diagrams):
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        f = d.field
        assert (f.rational_root, f._reduced) == oracles.reduced_by_rational_roots(f.modulus, f.lo, f.hi), f


def per_collared_letter_reference(csub, usums: dict) -> BratteliDiagram:
    """The diagram as the per-collared-letter builders of `oracles` make it,
    with the exhaustive census classifying its squares by reachability and
    by sign; the census puts its L of each (e_left, h_bot) in usums."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("build_vertical", "build_horizontal"):
            mp.setattr(diagram_module, name, getattr(oracles, name))
        mp.setattr(diagram_module, "enumerate_squares", lambda d: oracles.enumerate_squares(d, usums))
        ref = BratteliDiagram(csub)
        ref.squares  # the census is formed on first read: read it while the oracle census is patched in
        return ref


def test_shared_arithmetic_matches_per_collared_letter_reference(all_diagrams, random_diagrams, reducible_diagrams):
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        usums = {}
        ref = per_collared_letter_reference(d.csub, usums)
        assert [(e.src, e.rng, e.pos, d.elements[e.coeff].coeffs) for e in d.verticals] == [
            (e.src, e.rng, e.pos, ref.elements[e.coeff].coeffs) for e in ref.verticals
        ]
        assert [(h.src, h.rng, d.elements[h.coeff].coeffs, h.trivial, h.opposite) for h in d.horizontals] == [
            (h.src, h.rng, ref.elements[h.coeff].coeffs, h.trivial, h.opposite) for h in ref.horizontals
        ]
        assert [s.key() for s in d.squares] == [s.key() for s in ref.squares]
        assert [(s.kind, s.canonical) for s in d.squares] == [(s.kind, s.canonical) for s in ref.squares]
        assert [d.square_usum(s).coeffs for s in d.squares] == [usums[s.e_left, s.h_bot].coeffs for s in ref.squares]
        # every vertical once as a one-edge prefix, then deeper periodic paths
        paths = [PathPrefix(d, e.src, [e.index]) for e in d.verticals]
        paths += nonempty_paths(d, 1)[:20]
        for x in paths:
            depth = x.length if isinstance(x, PathPrefix) else 6
            got = [(gl.coeffs, gr.coeffs) for gl, gr in islice(analysis._gaps(x), depth)]
            assert got == [(gl.coeffs, gr.coeffs) for gl, gr in islice(oracles._gaps(x), depth)]


def test_canonical_orientation_matches_sign_rule(all_diagrams, random_diagrams, reducible_diagrams):
    """The family rule stores the orientation the signs of L pick."""
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        assert [s.canonical for s in d.squares] == [oracles.is_canonical_by_sign(d, s.key()) for s in d.squares]


def test_coefficients_shared_per_base_letter(all_diagrams, random_diagrams):
    for d in (*all_diagrams.values(), *random_diagrams):
        core = d.csub.core_of
        vertical = {}
        for e in d.verticals:
            assert vertical.setdefault((core(e.rng), e.pos), e.coeff) is e.coeff
        assert len(set(map(id, (e.coeff for e in d.verticals)))) == len(vertical)
        horizontal = {}
        for h in d.horizontals:
            if h.trivial:
                assert h.coeff is d.trivial_h[0].coeff and not any(h.coeff)  # one zero vector
            else:
                key = (frozenset((core(h.src), core(h.rng))), h.index < h.opposite)
                assert horizontal.setdefault(key, h.coeff) is h.coeff


def test_export_json_matches_frozen_bench_digests():
    """The pinned digests, the residual check and the replaced build routes
    on every frozen bench spec, each built once."""
    specs = frozen_bench_specs()
    assert len(specs) == 196
    for spec in specs:
        sub = parse_spec(spec["text"], check_aperiodicity=spec.get("check_aperiodicity", True))
        d = build_diagram(sub)
        assert sha256(export_json(d).encode()).hexdigest() == spec["json_sha256"], spec["text"]
        verify._residuals(d)  # every square by multiplication, independently of the census
        assert_build_routes_match(d)


def assert_build_routes_match(d: BratteliDiagram):
    """The export byte for byte, the collared letters, the Perron ratios
    integer for integer, the layouts representative for representative (and
    split), the adjacency templates and every coefficient's text, against
    the routes they replaced in `oracles`."""
    assert export_json(d) == oracles.export_json_by_dumps(d)
    sub = d.csub.base
    assert d.csub.collared_alphabet == oracles.collar_alphabet_by_3words(sub)
    columns = sub.adjugate_column
    assert sub.field.ratios(columns) == oracles.ratios_by_element_inverse(sub.field, columns)

    def reps(layout, ends=lambda c: c, centres=lambda c: c):
        parts = (map(ends, layout.left), map(ends, layout.right), map(centres, layout.vertical))
        return layout.split, *([c.coeffs for c in cs] for cs in parts)

    den = sub.length_vectors[0]
    over = sub.field.over
    assert {x: reps(lay, lambda v: over(v, den), lambda v: over(v, 2 * den)) for x, lay in sub.layouts.items()} == {
        x: reps(lay) for x, lay in oracles.layouts_by_offsets(sub).items()
    }
    assert [(h.src, h.rng, h.coeff, h.trivial, h.opposite) for h in d.horizontals] == [
        (h.src, h.rng, h.coeff, h.trivial, h.opposite) for h in oracles.build_horizontal(d.csub)
    ]
    coeffs = {id(c): c for c in chain(d.elements.values(), sub.lengths.values())}
    for c in coeffs.values():
        assert c.render() == oracles.render_by_fractions(c.coeffs, "L")
    assert render_vector(d.field.modulus, 1, "x") == oracles.render_by_fractions(d.field.modulus, "x")


# Modulus x^4 - x^2 - 2x - 1 = (x^2 - x - 1)(x^2 + x + 1): with no rational
# root to divide out, lambda times a length and the sum of its rule image's
# lengths are different representatives of one value, so a vertical formed
# from the sum (as (right - left)/2) would be another representative.
SPLIT_MODULUS_SPEC = "letters: 0 1 2 3\nrule 0: 1 2 3\nrule 1: 2\nrule 2: 3\nrule 3: 1 0"


def test_build_routes_match_replaced_references(all_diagrams, random_diagrams, reducible_diagrams):
    split = build_diagram(parse_spec(SPLIT_MODULUS_SPEC))
    lengths = split.csub.base.lengths
    total, scaled = lengths[1] + lengths[2] + lengths[3], split.lam * lengths[0]  # rule 0: 1 2 3
    assert total.equals(scaled) and total.coeffs != scaled.coeffs
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams, split):
        assert_build_routes_match(d)


def test_build_horizontal_makes_no_element_arithmetic(monkeypatch, all_diagrams, reducible_diagrams):
    """Each half-sum (l_t + l_u)/2 is the sum of the integer length vectors,
    over 2D, and its opposite the negated vector: no ModulusField.over, no
    negation, element sum or scale."""
    for d in (*all_diagrams.values(), *reducible_diagrams):
        den, vecs = d.csub.base.length_vectors
        assert [d.field.over(v, den).coeffs for v in vecs] == [c.coeffs for c in d.csub.base.lengths.values()]
    calls = []
    for cls, name in ((AlgebraicNumber, "__add__"), (AlgebraicNumber, "scale"), (AlgebraicNumber, "__neg__"), (ModulusField, "over")):
        op = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args, _op=op, _name=name: calls.append(_name) or _op(self, *args))
    for d in (*all_diagrams.values(), *reducible_diagrams):
        calls.clear()
        rebuilt = diagram_module.build_horizontal(d.csub)
        assert [h.coeff for h in rebuilt] == [h.coeff for h in d.horizontals]
        assert calls == []
    calls.clear()
    oracles.build_horizontal(all_diagrams["fibonacci"].csub)  # the counter does count
    assert {"__add__", "scale", "__neg__"} <= set(calls)


def test_a_build_forms_each_datum_once(monkeypatch):
    """Building fibonacci, thue-morse, doubling and rand3 closes the legal
    4-words once and no legal 3-words and computes no gcd; export_json
    encodes each distinct string once; and pair_extremes builds each
    extremal path once."""
    words, gcds, encoded, made = [], [], [], []
    legal, gcd, dumps, init = substitution.legal_words, rp.gcd, json.dumps, paths.EventuallyPeriodicPath.__init__
    monkeypatch.setattr(substitution, "legal_words", lambda sub, n: words.append(n) or legal(sub, n))
    monkeypatch.setattr(rp, "gcd", lambda a, b: gcds.append(1) or gcd(a, b))
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: encoded.append(obj) or dumps(obj, **kw))
    monkeypatch.setattr(paths.EventuallyPeriodicPath, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    for source in (load_fixture("fibonacci"), load_fixture("thue-morse"), doubling(), parse_spec(RAND3_SPEC)):
        words.clear()
        d = build_diagram(source)
        assert words == [4] and gcds == []  # the screen, if any, ran in the parse
        encoded.clear()
        blob = export_json(d)
        assert len(encoded) == len(set(encoded)) and all(type(w) is str for w in encoded)
        assert blob == oracles.export_json_by_dumps(d)
        mins, maxs = paths.extremal_paths(d)
        made.clear()
        pairing = paths.pair_extremes(d)
        assert len(made) == len(mins) + len(maxs) == 2 * len(pairing.pairs)
    assert encoded and made  # the spies do count


def test_a_build_forms_only_the_fields_zero_and_one(monkeypatch, random_specs):
    """parse_spec, build_diagram, pair_extremes and export_json on the four
    fixtures, the 20 random and the 6 reducible specs form two elements per
    spec, the field's zero and one, and call neither ModulusField.over nor
    AlgebraicNumber.render; export_json renders each distinct coefficient
    vector once."""
    specs = [(FIBONACCI_SPEC, True), (THUE_MORSE_SPEC, True), (DOUBLING_SPEC, False), (RAND3_SPEC, True)]
    specs += [(text, True) for text in (*random_specs, *REDUCIBLE_MODULUS_SPECS)]
    assert len(specs) == 30
    made, calls, rendered = [], [], []
    init, over, render = AlgebraicNumber.__init__, ModulusField.over, AlgebraicNumber.render
    render_vector = diagram_module.render_vector
    monkeypatch.setattr(AlgebraicNumber, "__init__", lambda self, field, c: made.append(c) or init(self, field, c))
    monkeypatch.setattr(ModulusField, "over", lambda self, *a: calls.append("over") or over(self, *a))
    monkeypatch.setattr(AlgebraicNumber, "render", lambda self: calls.append("render") or render(self))
    monkeypatch.setattr(diagram_module, "render_vector", lambda v, den: rendered.append(v) or render_vector(v, den))
    for text, screen in specs:
        made.clear()
        rendered.clear()
        d = build_diagram(parse_spec(text, check_aperiodicity=screen))
        paths.pair_extremes(d)
        export_json(d)
        assert made == [(), (Fraction(1),)] and calls == []
        assert sorted(rendered) == sorted({t.coeff for t in (*d.verticals, *d.horizontals)})
    d.field.over([1], 1).render()
    assert len(made) == 3 and calls == ["over", "render"]  # the spies do count


def test_rb_via_generators_forms_the_extremal_paths_once_per_diagram(monkeypatch, all_diagrams):
    """rb_via_generators keeps psi on the diagram as tail keys: on a fresh
    diagram, however often it is asked, the extremal paths are built once,
    and the kept set holds tuples of ints only.  pair_extremes forms a fresh
    pairing, equal by value, and the Vershik map of a maximal path is psi."""
    made = []
    init = paths.EventuallyPeriodicPath.__init__
    monkeypatch.setattr(paths.EventuallyPeriodicPath, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    for d in all_diagrams.values():
        assert paths.pair_extremes(d) == paths.pair_extremes(d)
        fresh = BratteliDiagram(d.csub)
        pairs = paths.pair_extremes(fresh).pairs
        made.clear()
        for _ in range(3):
            for mx, mn in pairs:
                assert paths.rb_via_generators(mx, mn) and paths.rb_via_generators(mn, mx)
                assert paths.rb_via_generators(mx, mx) and paths.rb_via_generators(mn, mn)
        assert len(made) == 2 * len(pairs)
        assert fresh._rb_generators and _ints_only(fresh._rb_generators)
        for mx, mn in pairs:
            assert paths.vershik_successor(mx) == mn


def _ints_only(value) -> bool:
    if isinstance(value, (set, tuple)):
        return all(_ints_only(v) for v in value)
    return type(value) is int


def test_a_dropped_diagram_is_freed_by_reference_counting():
    """Nothing reachable from a diagram holds a path, so the diagram dies on
    `del` with the cyclic collector off, after every route that keeps a memo
    on it or hands out paths."""
    d = build_diagram(load_fixture("fibonacci"))
    assert d.elements and d.lam.sign() == 1  # the element view and lambda, each formed on first read
    mx, mn = paths.pair_extremes(d).pairs[0]
    y = paths.vershik_successor(mx)
    assert y == mn and paths.rb_via_generators(mx, y) and paths.rb_equiv(mx, y) is not None
    export_json(d)
    x = paths.parse_path(d, "root=a; (ab bd da)")
    paths.decode(x.prefix(5))
    analysis.gap_profile(x.prefix(5))
    assert analysis.classify_GF(x).kind == "G"
    ref = weakref.ref(d)
    gc.disable()
    try:
        del d, mx, mn, y, x
        assert ref() is None
    finally:
        gc.enable()


CENSUS = ("squares", "square_table", "canonical_squares", "diagrams")


def test_census_is_formed_once_on_first_read(monkeypatch):
    """Each view is formed on its own first read, from the canonical list
    alone; one enumerate_squares call per diagram forms that list."""
    calls = []
    enumerate_squares = diagram_module.enumerate_squares
    monkeypatch.setattr(diagram_module, "enumerate_squares", lambda d: calls.append(d) or enumerate_squares(d))
    for first in CENSUS:
        d = build_diagram(load_fixture("thue-morse"))
        assert calls == [] and not set(CENSUS) & set(vars(d))  # the constructor forms no census
        view = getattr(d, first)
        assert calls == [d] and set(CENSUS) & set(vars(d)) == {first, "canonical_squares"}
        assert getattr(d, first) is view
        for name in CENSUS:
            assert getattr(d, name) is getattr(d, name)
        assert calls == [d]
        assert_census_matches_oracle(d)
        calls.clear()


def assert_census_matches_oracle(d: BratteliDiagram):
    """All four views against the census formed together: keys, kind,
    canonical flag and order, and the table; and the count `diagram` prints."""
    want = oracles.census_formed_together(d)
    for name in ("squares", "canonical_squares", "diagrams"):
        got = [(s.key(), s.kind, s.canonical) for s in getattr(d, name)]
        assert got == [(s.key(), s.kind, s.canonical) for s in want[name]], name
    assert d.square_table == want["square_table"]
    assert cli._square_count(d) == len(want["squares"])


def test_census_views_match_the_census_formed_together(all_diagrams, random_diagrams, reducible_diagrams):
    """On the 196 frozen bench specs, each built afresh, and the 30 diagrams.
    Two pool specs have a boundary square with e_left = e_right and h_bot
    nontrivial, which is not its own mirror: both orientations are listed."""
    lookalikes = 0
    for spec in frozen_bench_specs():
        d = build_diagram(parse_spec(spec["text"], check_aperiodicity=spec.get("check_aperiodicity", True)))
        assert_census_matches_oracle(d)
        for s in d.canonical_squares:
            if s.e_left == s.e_right and not d.horizontals[s.h_bot].trivial:
                lookalikes += 1
                assert d._mirror_key(s) != s.key() and s.kind == "transient"
    assert lookalikes == 2
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        assert_census_matches_oracle(d)


def test_a_build_forms_no_view_its_reader_does_not_read(monkeypatch):
    """Build, pair_extremes and export_json on each fixture form one record
    per canonical square and leave the other views, the lookups only rb and
    paths read, and the lengths as elements unformed."""
    made = []
    init = DiagramTemplate.__init__
    monkeypatch.setattr(DiagramTemplate, "__init__", lambda self, *a, **kw: made.append(1) or init(self, *a, **kw))
    for source in (load_fixture("fibonacci"), load_fixture("thue-morse"), doubling(), parse_spec(RAND3_SPEC)):
        made.clear()
        d = build_diagram(source)
        paths.pair_extremes(d)
        export_json(d)
        assert len(made) == len(d.canonical_squares) > 0
        assert not {"squares", "square_table", "h_by_ends", "out_edges"} & set(vars(d))
        assert "lengths" not in vars(source)


def test_a_diagram_whose_census_was_never_read_is_freed_by_reference_counting():
    d = build_diagram(load_fixture("fibonacci"))
    x = paths.parse_path(d, "root=a; (ab bd da)")
    paths.decode(x.prefix(5))
    export_dot(d, 2)
    assert not set(CENSUS) & set(vars(d))
    ref = weakref.ref(d)
    gc.disable()
    try:
        del d, x
        assert ref() is None
    finally:
        gc.enable()


def test_diagram_module_imports_nothing_from_paths():
    """diagram.py is below paths.py: the pairing lives in paths alone."""
    sources = set()  # "paths" from `from .paths import f`, ".paths" from `from . import paths`
    for node in ast.walk(ast.parse(Path(diagram_module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            sources.add(node.module or "")
            sources.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            sources.update(a.name for a in node.names)
    assert "substitution" in sources  # the walk does see the relative imports
    assert not [s for s in sources if "paths" in s.split(".")]


# Letter and collar names with a quote, a backslash and a non-ASCII letter.
ESCAPED_NAMES_SPEC = 'letters: a" b\\é\nrule a": a" b\\é\nrule b\\é: a"\ncollar-names: "p q\\ ré s"\\ü'


def test_export_json_escapes_names_as_dumps_does():
    d = build_diagram(parse_spec(ESCAPED_NAMES_SPEC))
    assert d.vertices == ['"p', 'q\\', 'ré', 's"\\ü']
    blob = export_json(d)
    assert blob == oracles.export_json_by_dumps(d)
    assert '"a\\""' in blob and '"b\\\\\\u00e9"' in blob and '"s\\"\\\\\\u00fc"' in blob
    rebuilt = oracles.diagram_from_export(blob)
    assert rebuilt.vertices == d.vertices and export_json(rebuilt) == blob


def test_down_cycles_match_reachability_and_dfs_references(all_diagrams, random_diagrams):
    """Kinds, canonical flags, diagrams, chains and psi, all read off the
    cycles of down, agree with the line-graph reachability, the sign rule,
    the simple-cycle search and the pairing by diagram cycles, on the
    fixtures, the random family and every frozen bench spec."""
    built = (
        build_diagram(parse_spec(spec["text"], check_aperiodicity=spec.get("check_aperiodicity", True)))
        for spec in frozen_bench_specs()
    )
    count = 0
    for d in chain(all_diagrams.values(), random_diagrams, built):
        count += 1
        assert set(d.down) == {h.index for h in d.horizontals if h.index < h.opposite}
        assert [s.kind for s in d.squares] == oracles.square_kinds_by_reachability(d)
        assert [s.canonical for s in d.squares] == [oracles.is_canonical_by_sign(d, s.key()) for s in d.squares]
        assert d.diagrams == oracles.diagrams_by_reachability(d)
        assert diagram_chains(d) == oracles.diagram_chains_by_dfs(d.diagrams)
        want = oracles.pairing_by_diagram_cycles(d).pairs
        assert [(mx.key(), mn.key()) for mx, mn in paths.pair_extremes(d).pairs] == [(mx.key(), mn.key()) for mx, mn in want]
    assert count == len(all_diagrams) + len(random_diagrams) + 196


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(0, 11), st.integers(0, 13), max_size=12),
    st.lists(st.integers(0, 13), unique=True, max_size=14),
)
@example({0: 1, 1: 2, 2: 0, 3: 1}, [3, 2, 0, 1])  # the cycle from its first start, 2
@example({0: 0, 1: 0, 2: 3, 3: 2, 4: 5}, [4, 1, 3, 0, 2])  # a loop, a 2-cycle, a walk off the map
@example({0: 1, 1: 2, 2: 1}, [0])  # a cycle no start lies on
def test_cycles_in_one_pass_match_a_walk_from_every_start(step, starts):
    """The one-pass coloured search lists the cycles of a partial map in the
    order and rotation of the walk-from-every-start reference."""
    assert _cycles(starts, step.get) == oracles.cycles_by_walks(starts, step.get)
