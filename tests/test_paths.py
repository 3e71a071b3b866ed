from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from bratteli import cli, paths
from bratteli.diagram import BratteliDiagram, build_diagram
from bratteli.exactnum import AlgebraicNumber
from bratteli.analysis import classify_GF, gap_profile
from bratteli.errors import IncompatibleHorizontal, ParseError, PatchTooLarge, UnpairedExtreme
from bratteli.fixtures import load_fixture
from bratteli.substitution import abelianization, parse_spec
from bratteli.paths import (
    MAX_DECODE_TILES,
    TILE_COUNT_CEILING,
    EventuallyPeriodicPath,
    PathPrefix,
    af_equiv,
    decode,
    decode_collared,
    enumerate_paths,
    extremal_paths,
    pair_extremes,
    parse_path,
    patch_size,
    rb_base_member,
    rb_base_translation,
    rb_equiv,
    rb_via_generators,
    render_path,
    u_of_prefix,
    vershik_successor,
)

from conftest import nonempty_paths
from oracles import (
    af_equiv_window,
    decode_by_elements,
    decode_collared_by_elements,
    extremes_by_predecessor_map,
    gaps_by_layout_elements,
    glued_translation,
    is_minimal,
    mirror,
    mirror_map,
    pairing_by_diagram_cycles,
    rb_chain_by_all_phases,
    vershik_positions_by_elements,
)


def h_index(diagram, srcname, rngname, sign):
    for h in diagram.horizontals:
        if (
            not h.trivial
            and diagram.vertices[h.src] == srcname
            and diagram.vertices[h.rng] == rngname
            and h.coeff.sign() == sign
        ):
            return h.index
    raise AssertionError(f"no horizontal {srcname}->{rngname} with sign {sign}")


# -- prefix labels and decoding -------------------------------------------------


def test_u_of_prefix_examples(fib):
    phi = fib.lam
    inv2phi = (phi - 1).scale(Fraction(1, 2))
    assert u_of_prefix(parse_path(fib, "root=a;")).is_zero()
    assert u_of_prefix(parse_path(fib, "root=a; ac")).equals(inv2phi)
    # 1/(2 phi) + (1/(2 phi)) phi = 1/(2 phi) + 1/2 = phi/2
    assert u_of_prefix(parse_path(fib, "root=a; ac ca")).equals(phi.scale(Fraction(1, 2)))


def test_decode_fibonacci_word(fib):
    patch = decode(parse_path(fib, "root=a; ac ca ab"))
    assert patch.word() == "adbad"
    assert patch.puncture_index == 0
    assert "".join(t.base for t in patch.tiles) == "01001"
    assert patch.word_marked() == "ȧdbad"
    assert patch.offset.equals(fib.lam)  # u = 1/(2phi)(1 + phi + phi^2) = phi


def test_decode_thue_morse_word(tm):
    patch = decode(parse_path(tm, "root=a; ad dc cb"))
    assert patch.word() == "ecdefabc"
    assert patch.puncture_index == 5


def test_prefix_depth_below_one_raises(fib):
    x = parse_path(fib, "root=a; (ab bd da)")
    for depth in (0, -3):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            x.prefix(depth)
    gamma = x.prefix(1)
    assert gamma.edges == () and gamma.top_vertex() == x.root


def test_decode_root_only(fib):
    for v in fib.vertices:
        patch = decode(parse_path(fib, f"root={v};"))
        assert patch.word() == v
        assert patch.puncture_index == 0
        assert patch.offset.is_zero()


def test_decode_geometry(fib, tm, rand3):
    for diagram, literal in (
        (fib, "root=a; ac ca ab"),
        (tm, "root=a; ad dc cb"),
        (rand3, None),
    ):
        if literal is None:
            x = enumerate_paths(diagram, 1, 2)[0]
            gamma = x.prefix(4)
        else:
            gamma = parse_path(diagram, literal)
        patch = decode(gamma)
        # intervals abut exactly and the puncture tile is centered at 0
        for t, u in zip(patch.tiles, patch.tiles[1:]):
            assert (t.right - u.left).is_zero()
        punct = patch.tiles[patch.puncture_index]
        assert (punct.left + punct.right).is_zero()
        # supertile interval sits at u(gamma)
        span = patch.right - patch.left
        top_length = diagram.csub.base.lengths[diagram.csub.core_of(gamma.top_vertex())]
        expected = diagram.lam ** (gamma.length - 1) * top_length
        assert (span - expected).is_zero()
        assert ((patch.left + patch.right).scale(Fraction(1, 2)) - patch.offset).is_zero()


def test_decode_nesting(fib, tm):
    for diagram, literal in ((fib, "root=a; ac ca ab"), (tm, "root=a; ad dc cb")):
        full = parse_path(diagram, literal)
        bigger = decode(full)
        for n in range(1, full.length):
            smaller = decode(PathPrefix(diagram, full.root, full.edges[: n - 1]))
            # every tile of the smaller patch reappears at the same position
            pos = {(t.name, t.left.render(), t.right.render()) for t in bigger.tiles}
            for t in smaller.tiles:
                assert (t.name, t.left.render(), t.right.render()) in pos


def patch_reps(patch):
    ends = [(t.name, t.base, t.collared, t.left.coeffs, t.right.coeffs) for t in patch.tiles]
    return ends, patch.puncture_index, patch.offset.coeffs, patch.left.coeffs, patch.right.coeffs


def test_patch_geometry_matches_the_element_routes(all_diagrams, random_diagrams, reducible_diagrams):
    """Decode, collared decode, the gap walk and the Vershik deltas and
    positions in integer vectors give the coefficient tuples (not just the
    values) of the element routes in `oracles`, at several depths: on the
    fixtures, the random family and the reducible moduli, where one value has
    many representatives.  Inside a patch, one object is each tile's right
    end and the next tile's left end."""
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        xs = nonempty_paths(d, 1)
        for x in xs[:: max(1, len(xs) // 3)]:
            for depth in (1, 2, 4):
                gamma = x.prefix(depth)
                got, want = decode(gamma), decode_by_elements(gamma)
                assert patch_reps(got) == patch_reps(want), render_path(gamma)
                assert all(t.right is u.left for t, u in zip(got.tiles, got.tiles[1:]))
                assert patch_reps(decode_collared(gamma)) == patch_reps(decode_collared_by_elements(gamma))
            gaps = [(gl.coeffs, gr.coeffs) for gl, gr in gap_profile(x.prefix(7)).gaps]
            walk = gaps_by_layout_elements(x)
            assert gaps == [(gl.coeffs, gr.coeffs) for gl, gr in (next(walk) for _ in range(7))]
            steps = [(nxt, delta.coeffs, pos.coeffs) for _, nxt, delta, pos in cli._vershik_walk(d, x, 6)]
            assert steps == [(nxt, delta.coeffs, pos.coeffs) for nxt, delta, pos in vershik_positions_by_elements(x, 6)]


def test_patch_geometry_makes_no_element_products_or_sums(monkeypatch, capsys, all_diagrams, reducible_diagrams):
    """decode, decode_collared, gap_profile and the vershik command make no
    element product, power or sum outside u_of_prefix, which the offset
    still reads."""
    calls, inside = [], []
    for name in ("__add__", "__mul__", "__pow__"):
        op = getattr(AlgebraicNumber, name)

        def spy(self, other, _op=op, _name=name):
            if not inside:
                calls.append(_name)
            return _op(self, other)

        monkeypatch.setattr(AlgebraicNumber, name, spy)
    u_of_prefix = paths.u_of_prefix

    def translation(gamma):
        inside.append(gamma)
        try:
            return u_of_prefix(gamma)
        finally:
            inside.pop()

    monkeypatch.setattr(paths, "u_of_prefix", translation)
    for d in (*all_diagrams.values(), *reducible_diagrams):
        for x in nonempty_paths(d, 1)[:4]:
            decode(x.prefix(4))
            decode_collared(x.prefix(3))
            gap_profile(x.prefix(8))
    for fixture, literal in (("fibonacci", "root=b; (bd db)"), ("thue-morse", "root=b; (be eb)")):
        assert cli.main(["vershik", "--fixture", fixture, "--x", literal, "--steps", "12"]) == 0
    capsys.readouterr()
    assert calls == []
    gamma = enumerate_paths(all_diagrams["fibonacci"], 1, 2)[0].prefix(4)
    decode_by_elements(gamma)  # the spies do count
    assert {"__add__", "__mul__", "__pow__"} <= set(calls)


def test_decode_collared_fibonacci_root(fib):
    patch = decode_collared(parse_path(fib, "root=a;"))
    assert "".join(t.base for t in patch.tiles) == "001"
    assert patch.puncture_index == 1
    assert patch.tiles[1].name == "a" and patch.tiles[1].collared


def test_decode_collared_nesting(fib, tm):
    for diagram, literal in ((fib, "root=a; ac ca ab"), (tm, "root=a; ad dc cb")):
        full = parse_path(diagram, literal)
        bigger = decode_collared(full)
        big_pos = {(t.base, t.left.render(), t.right.render()) for t in bigger.tiles}
        for n in range(1, full.length):
            smaller = decode_collared(PathPrefix(diagram, full.root, full.edges[: n - 1]))
            for t in smaller.tiles:
                assert (t.base, t.left.render(), t.right.render()) in big_pos


def test_decode_collared_single_letter(dyadic):
    gamma = parse_path(dyadic, "root=a; aa#0 aa#1")
    plain = decode(gamma)
    collared = decode_collared(gamma)
    # one supertile of padding on each side
    assert len(collared.tiles) == 3 * len(plain.tiles)
    assert collared.puncture_index == len(plain.tiles) + plain.puncture_index


def test_patch_size_matches_decode(fib, tm):
    for diagram in (fib, tm):
        mins, maxs = extremal_paths(diagram)
        for x in (mins[0], maxs[0]):
            for n in range(1, 13):
                gamma = x.prefix(n)
                assert patch_size(gamma) == len(decode(gamma).tiles)
                assert patch_size(gamma, collared=True) == len(decode_collared(gamma).tiles)


def test_patch_size_matches_collared_counts(all_diagrams, random_diagrams):
    # a collared letter expands to as many tiles as its core letter: the
    # count read off the base abelianization equals the collared one's
    for d in (*all_diagrams.values(), *random_diagrams):
        csub = d.csub
        collared = abelianization(csub.collared_rules, len(d.vertices))
        for x in extremal_paths(d)[0]:
            for n in (1, 2, 5, 9, 60):
                cl = csub.collared_alphabet[x.vertex_at(n)]
                core = expanded_length_by_powers(collared, cl.index, n - 1)
                sides = sum(expanded_length_by_powers(csub.base.abelianization, y, n - 1) for y in (cl.left, cl.right))
                assert patch_size(x, depth=n) == min(core, TILE_COUNT_CEILING + 1)
                assert patch_size(x, collared=True, depth=n) == min(core + sides, TILE_COUNT_CEILING + 1)


def expanded_length_by_powers(matrix, letter: int, steps: int) -> int:
    counts = [int(y == letter) for y in range(len(matrix))]
    for _ in range(steps):
        counts = [sum(c * row[y] for c, row in zip(counts, matrix)) for y in range(len(matrix))]
    return sum(counts)


def test_decode_refuses_large_patch(fib):
    gamma = parse_path(fib, "root=a; (ab bd da)").prefix(40)
    for fn, collared in ((decode, False), (decode_collared, True)):
        tiles = patch_size(gamma, collared)
        assert tiles > MAX_DECODE_TILES
        with pytest.raises(PatchTooLarge, match=f"depth 40 .* {tiles} tiles, .* limit of {MAX_DECODE_TILES}$"):
            fn(gamma)


# -- tail equivalence --------------------------------------------------------------


def test_af_equiv_basics(fib):
    x = parse_path(fib, "root=a; (ac ca)")
    y = parse_path(fib, "root=b; (bd db)")
    assert af_equiv(x, x)
    assert not af_equiv(x, y)
    # replace the first edge by the other edge with the same range: same tail
    z = parse_path(fib, "root=d; dc (ca ac)")
    assert af_equiv(x, z) and af_equiv(z, x)


def test_af_equiv_matches_window_oracle(fib, tm):
    for diagram in (fib, tm):
        paths = enumerate_paths(diagram, 2, 2)
        for x in paths:
            for y in paths:
                assert af_equiv(x, y) == af_equiv_window(x, y)


def test_af_phase_matters(fib):
    x = parse_path(fib, "root=a; (ac ca)")
    y = parse_path(fib, "root=c; (ca ac)")
    assert not af_equiv(x, y)


# -- extremal paths, pairing, Vershik ------------------------------------------------


def test_extremal_paths_fibonacci(fib):
    mins, maxs = extremal_paths(fib)
    assert sorted(render_path(p) for p in mins) == ["root=a; (ac ca)", "root=c; (ca ac)"]
    assert sorted(render_path(p) for p in maxs) == ["root=b; (bd db)", "root=d; (db bd)"]
    for p in mins:
        assert is_minimal(p) and not p.is_maximal()
    for p in maxs:
        assert p.is_maximal()


def test_extremal_paths_thue_morse(tm):
    mins, maxs = extremal_paths(tm)
    assert len(mins) == 4 and len(maxs) == 4
    assert {render_path(p) for p in mins} == {
        "root=b; (be eb)",
        "root=e; (eb be)",
        "root=d; (df fd)",
        "root=f; (fd df)",
    }
    assert {render_path(p) for p in maxs} == {
        "root=a; (af fa)",
        "root=f; (fa af)",
        "root=c; (ce ec)",
        "root=e; (ec ce)",
    }


def test_extremal_paths_doubling(dyadic):
    mins, maxs = extremal_paths(dyadic)
    assert len(mins) == 1 and len(maxs) == 1
    pairing = pair_extremes(dyadic)
    assert len(pairing.pairs) == 1
    assert pairing.pairs[0] == (maxs[0], mins[0])


def test_extremal_paths_match_predecessor_oracle(all_diagrams, random_diagrams):
    for diagram in (*all_diagrams.values(), *random_diagrams):
        mins, maxs = extremal_paths(diagram)
        assert [p.key() for p in mins] == [p.key() for p in extremes_by_predecessor_map(diagram, True)]
        assert [p.key() for p in maxs] == [p.key() for p in extremes_by_predecessor_map(diagram, False)]


def test_pairing_bijection(all_diagrams, random_diagrams):
    for diagram in (*all_diagrams.values(), *random_diagrams):
        mins, maxs = extremal_paths(diagram)
        pairing = pair_extremes(diagram)
        assert sorted(render_path(mx) for mx, _ in pairing.pairs) == sorted(
            render_path(p) for p in maxs
        )
        assert sorted(render_path(mn) for _, mn in pairing.pairs) == sorted(
            render_path(p) for p in mins
        )


def test_pairing_matches_diagram_cycle_oracle(all_diagrams, random_diagrams):
    for diagram in (*all_diagrams.values(), *random_diagrams):
        got = [(mx.key(), mn.key()) for mx, mn in pair_extremes(diagram).pairs]
        want = [(mx.key(), mn.key()) for mx, mn in pairing_by_diagram_cycles(diagram).pairs]
        assert got == want


def test_psi_of_non_maximal_path_is_unpaired(fib):
    with pytest.raises(UnpairedExtreme, match="not a known maximal path"):
        pair_extremes(fib).psi(parse_path(fib, "root=a; (ac ca)"))


def test_pairing_without_a_recurrent_square_does_not_cover():
    diagram = build_diagram(load_fixture("fibonacci"))
    lost = next(
        s
        for s in diagram.squares
        if s.kind == "cyclic"
        and s.e_left == diagram.max_edge_into(diagram.horizontals[s.h_bot].src).index
        and s.e_right == diagram.min_edge_into(diagram.horizontals[s.h_bot].rng).index
    )
    diagram.down_cycles = [cycle for cycle in diagram.down_cycles if lost.h_bot not in cycle]
    with pytest.raises(UnpairedExtreme, match="does not cover"):
        pair_extremes(diagram)


def test_vershik_of_max_is_paired_min(fib, tm):
    for diagram in (fib, tm):
        for mx, mn in pair_extremes(diagram).pairs:
            assert vershik_successor(mx) == mn


def test_psi_moves_the_puncture_one_tile(all_diagrams, random_diagrams, reducible_diagrams):
    """Each extremal pair is extended equivalent, and its translation carries
    the maximal root's tile onto its right neighbour, the minimal root's:
    a(mx, psi(mx)) = -c(forward horizontal mx.root -> mn.root)."""
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        for mx, mn in pair_extremes(d).pairs:
            w = rb_equiv(mx, mn)
            assert w is not None
            assert (w.translation + d.forward_h[mx.root, mn.root].coeff).is_zero()


def test_vershik_successor_example(fib):
    x = parse_path(fib, "root=a; (ac ca)")
    y = vershik_successor(x)
    assert render_path(y) == "root=d; dc (ca ac)"
    # same depth-6 supertile, puncture moves one tile right
    px, py = decode(x.prefix(6)), decode(y.prefix(6))
    assert px.word() == py.word()
    assert py.puncture_index == px.puncture_index + 1
    step = u_of_prefix(x.prefix(6)) - u_of_prefix(y.prefix(6))
    tiles = (px.tiles[px.puncture_index], px.tiles[px.puncture_index + 1])
    assert step.equals((tiles[0].right - tiles[0].left + tiles[1].right - tiles[1].left).scale(Fraction(1, 2)))


def orbit_step_checks(diagram, seed_literal, steps, decode_first=3):
    x = parse_path(diagram, seed_literal)
    psi_crossings = 0
    lengths, core = diagram.csub.base.lengths, diagram.csub.core_of
    for i in range(steps):
        was_max = x.is_maximal()
        y = vershik_successor(x)
        delta = (lengths[core(x.root)] + lengths[core(y.root)]).scale(Fraction(1, 2))
        assert delta.sign() == 1  # strictly right-moving
        if was_max:
            psi_crossings += 1
            w = rb_equiv(x, y)
            assert w is not None
            assert (w.translation + delta).is_zero()  # T_min = T_max - step
        else:
            # the successor only edits generations up to the carry, so the
            # last disagreement marks the shared supertile
            horizon = (
                max(len(x.pre), len(y.pre))
                + len(x.cycle) * len(y.cycle)
                + 2
            )
            diffs = [
                n
                for n in range(2, horizon + 1)
                if x.edge_index_at(n) != y.edge_index_at(n)
            ]
            assert diffs
            m = diffs[-1]
            assert x.vertex_at(m) == y.vertex_at(m)
            move = u_of_prefix(x.prefix(m)) - u_of_prefix(y.prefix(m))
            assert move.equals(delta)
            if i < decode_first:
                px, py = decode(x.prefix(m)), decode(y.prefix(m))
                assert py.puncture_index == px.puncture_index + 1
        x = y
    return psi_crossings


def test_vershik_orbit_fibonacci(fib):
    crossings = orbit_step_checks(fib, "root=b; (bd db)", 60)
    assert crossings >= 1


def test_vershik_orbit_thue_morse(tm):
    orbit_step_checks(tm, "root=a; (ad df fa)", 40)


def test_vershik_orbit_doubling(dyadic):
    crossings = orbit_step_checks(dyadic, "root=a; (aa#1)", 32)
    # the odometer wraps through psi every 2^k-boundary crossing once
    assert crossings >= 1


def test_vershik_walk_crosses_psi_at_most_once(all_diagrams, random_diagrams, reducible_diagrams):
    """No Vershik walk reaches a maximal path after psi, so it forms the
    pairing at most once.  Each vertex has one maximal in-edge, so two
    maximal paths that agree at one generation agree below it, and a tail
    class holds at most one maximal path; a non-maximal step keeps the
    tail, and psi(mx) is minimal; and a minimal and a maximal path with a
    common tail would use only vertices whose collared rules have one
    letter, so along that periodic tail sigma would map a letter to a single
    letter forever, which primitivity with lambda > 1 forbids.  Checked
    here for 60 steps from every psi(mx)."""
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        for _, x in pair_extremes(d).pairs:
            for _ in range(61):
                assert not x.is_maximal(), render_path(x)
                x = vershik_successor(x)


# -- the extended relation -------------------------------------------------------------


def test_rb_af_pair_uses_trivial_chain(fib):
    x = parse_path(fib, "root=a; ab (bd db)")
    y = parse_path(fib, "root=d; db (bd db)")
    assert af_equiv(x, y)
    w = rb_equiv(x, y)
    assert w is not None
    assert all(fib.horizontals[h].trivial for h in w.chain)
    n = w.n0 + 3
    expected = u_of_prefix(y.prefix(n)) - u_of_prefix(x.prefix(n))
    assert w.translation.equals(expected)


def test_rb_min_max_pair(fib):
    x = parse_path(fib, "root=a; (ac ca)")  # minimal
    y = parse_path(fib, "root=b; (bd db)")  # maximal
    w = rb_equiv(x, y)
    assert w is not None
    assert w.translation.equals(1)
    # chain alternates the c-d and a-b adjacencies
    names = {
        (fib.vertices[fib.horizontals[h].src], fib.vertices[fib.horizontals[h].rng])
        for h in w.chain
    }
    assert names == {("c", "d"), ("a", "b")}
    # symmetric witness negates the translation
    wr = rb_equiv(y, x)
    assert wr is not None and (wr.translation + w.translation).is_zero()


def test_rb_glue_oracle(fib, tm):
    for diagram, xl, yl in (
        (fib, "root=a; (ac ca)", "root=b; (bd db)"),
        (tm, "root=b; (be eb)", "root=a; (af fa)"),
    ):
        x, y = parse_path(diagram, xl), parse_path(diagram, yl)
        w = rb_equiv(x, y)
        assert w is not None
        for depth in (5, 6, 7, 8):
            assert w.translation.equals(glued_translation(x, y, w, depth))
        assert w.translation.equals(glued_translation(x, y, w, 5, full_decode=True))


def test_rb_none_cases(fib):
    x = parse_path(fib, "root=a; (ac ca)")
    y = parse_path(fib, "root=c; (ca ac)")
    assert rb_equiv(x, y) is None
    assert not rb_via_generators(x, y)
    z = parse_path(fib, "root=d; (db bd)")  # the other max
    assert rb_equiv(x, z) is None
    assert not rb_via_generators(x, z)


def test_rb_via_generators_examples(fib):
    x = parse_path(fib, "root=a; (ac ca)")
    y = parse_path(fib, "root=b; (bd db)")
    assert rb_via_generators(x, y)
    assert rb_via_generators(x, x)
    # tails equivalent to paired extremes on both sides
    x2 = parse_path(fib, "root=d; dc (ca ac)")
    y2 = parse_path(fib, "root=c; ca ab (bd db)")
    assert af_equiv(x2, x) and af_equiv(y2, y)
    assert rb_via_generators(x2, y2)
    assert rb_equiv(x2, y2) is not None


def test_rb_cocycle_on_triple(fib):
    x = parse_path(fib, "root=a; (ac ca)")
    y = parse_path(fib, "root=d; dc (ca ac)")  # af-equivalent to x
    z = parse_path(fib, "root=b; (bd db)")
    axy = rb_equiv(x, y).translation
    ayz = rb_equiv(y, z).translation
    axz = rb_equiv(x, z).translation
    assert (axy + ayz - axz).is_zero()


def test_rb_base_translation(fib):
    gamma = parse_path(fib, "root=b; bd")
    gamma2 = parse_path(fib, "root=a; ac")
    h_plus = h_index(fib, "d", "c", +1)  # the d-left-of-c adjacency
    a = rb_base_translation(gamma, gamma2, h_plus)
    assert a.equals(1)
    h_minus = h_index(fib, "d", "c", -1)
    a2 = rb_base_translation(gamma, gamma2, h_minus)
    # flipping h negates its contribution exactly
    hval = fib.horizontals[h_plus].coeff * fib.lam
    assert (a - a2).equals(hval.scale(2))
    # trivial case
    triv = fib.trivial_h[gamma.top_vertex()].index
    assert rb_base_translation(gamma, gamma, triv).is_zero()
    with pytest.raises(IncompatibleHorizontal):
        rb_base_translation(gamma, gamma2, triv)


def test_rb_base_member(fib):
    x_max = parse_path(fib, "root=b; (bd db)")
    y_min = parse_path(fib, "root=a; (ac ca)")
    gamma = x_max.prefix(2)
    gamma2 = y_min.prefix(2)
    h_plus = h_index(fib, "d", "c", +1)
    assert rb_base_member(x_max, y_min, gamma, gamma2, h_plus)
    h_minus = h_index(fib, "d", "c", -1)
    assert not rb_base_member(x_max, y_min, gamma, gamma2, h_minus)
    assert not rb_base_member(y_min, x_max, gamma, gamma2, h_plus)


def test_rb_reflexive_symmetric_sample(fib):
    paths = enumerate_paths(fib, 1, 2)
    for x in paths:
        w = rb_equiv(x, x)
        assert w is not None and w.translation.is_zero()
    for x in paths[:6]:
        for y in paths[:6]:
            wxy = rb_equiv(x, y)
            wyx = rb_equiv(y, x)
            assert (wxy is None) == (wyx is None)
            if wxy is not None:
                assert (wxy.translation + wyx.translation).is_zero()


def _sampled_pairs(diagram, k=200, seed=18):
    """A seeded sample of k ordered pairs of nonempty_paths(diagram, 2)."""
    ps = nonempty_paths(diagram, 2)
    pairs = list(product(ps, ps))
    return random.Random(seed).sample(pairs, min(k, len(pairs)))


def _aligned_tails(x, y):
    """The edges of x and of y at generations p0 .. p0 + |cycle| - 1: the pair's
    aligned tails, which rb_equiv's memo is keyed by."""
    p0 = max(len(x.pre), len(y.pre)) + 2
    return tuple(tuple(p.edge_index_at(p0 + k) for k in range(len(p.cycle))) for p in (x, y))


def _on(diagram, p):
    """The path p laid on another diagram of the same collared substitution."""
    return EventuallyPeriodicPath(diagram, p.root, p.pre, p.cycle)


def test_rb_equiv_matches_the_all_phase_oracle(monkeypatch, fib, tm, rand3, random_diagrams):
    # only (n0, chain) is compared; criteria 8 and 9 check the translation
    monkeypatch.setattr(paths, "rb_base_translation", lambda gamma, gamma2, h: gamma.diagram.field.zero)
    equivalent = 0
    for fixture in (fib, tm, rand3, *random_diagrams):
        d = BratteliDiagram(fixture.csub)  # shared by the pairs, so its memo stays warm
        pairs = _sampled_pairs(d)
        for x, y in pairs:
            expected = rb_chain_by_all_phases(x, y)
            cold = BratteliDiagram(d.csub)  # built for this pair: its memo is empty
            for w in (rb_equiv(x, y), rb_equiv(_on(cold, x), _on(cold, y))):
                assert (w and (w.n0, w.chain)) == expected, (render_path(x), render_path(y))
            if expected is not None:
                equivalent += 1
                assert expected[0] == max(len(x.pre), len(y.pre)) + 2
        assert set(d._rb_chains) == {_aligned_tails(x, y) for x, y in pairs}  # one entry per aligned tail pair
    assert equivalent >= 200


def test_rb_equiv_and_u_are_mirror_symmetric(fib, tm, rand3, random_diagrams, reducible_diagrams):
    """Reversing every rule reflects the tiling: on the mirrored diagram, in
    the same field, rb_equiv gives every pair of mapped paths the same verdict
    and n0 and the negated translation, and u of every mapped prefix is
    negated.  Pairs of the first 40 paths of enumerate_paths(d, 2, 2) on the
    fixtures and of 12 nonempty paths on each random and reducible spec."""
    checked = equivalent = 0
    for d in (fib, tm, rand3, *random_diagrams, *reducible_diagrams):
        m = build_diagram(mirror(d.csub.base))
        assert m.field == d.field
        path, prefix = mirror_map(d, m)
        ps = enumerate_paths(d, 2, 2)[:40] if d in (fib, tm, rand3) else nonempty_paths(d, 2)[:12]
        for i, x in enumerate(ps):
            for n in (2, 4):
                assert (u_of_prefix(x.prefix(n)) + u_of_prefix(prefix(x.prefix(n)))).coeffs == ()
            for y in ps[i:]:
                w, wm = rb_equiv(x, y), rb_equiv(path(x), path(y))
                assert (w is None) == (wm is None), (render_path(x), render_path(y))
                checked += 1
                if w is not None:
                    equivalent += 1
                    assert w.n0 == wm.n0 and (w.translation + wm.translation).coeffs == ()
    assert checked > 2000 and equivalent > 500


def test_decode_gaps_psi_and_gf_are_mirror_symmetric(fib, tm, dyadic, rand3, random_diagrams, reducible_diagrams):
    """On the sample of the test above, plus doubling, the mirror reflects
    every patch: the base word reverses, the puncture index i becomes
    N - 1 - i, tile i spans minus the reversed span of tile N - 1 - i, the
    offset is negated, and (g_L, g_R) swap at every generation, for the
    prefixes at depths 2, 3 and 4.  psi pairs the mirrors of d's pairs, each
    reversed, and classify_GF keeps the kind and swaps the side."""
    prefixes = 0
    sides = {"left": "right", "right": "left", None: None}
    for d in (fib, tm, dyadic, rand3, *random_diagrams, *reducible_diagrams):
        m = build_diagram(mirror(d.csub.base))
        path, prefix = mirror_map(d, m)
        ps = enumerate_paths(d, 2, 2)[:40] if d in (fib, tm, dyadic, rand3) else nonempty_paths(d, 2)[:12]
        for gamma in dict.fromkeys(x.prefix(n) for x in ps for n in (2, 3, 4)):
            p, q = decode(gamma), decode(prefix(gamma))
            n = len(p.tiles)
            assert [t.base for t in q.tiles] == [t.base for t in reversed(p.tiles)], render_path(gamma)
            assert q.puncture_index == n - 1 - p.puncture_index
            for t, u in zip(p.tiles, reversed(q.tiles)):
                assert (t.left + u.right).is_zero() and (t.right + u.left).is_zero()
            assert (p.offset + q.offset).is_zero()
            for (gl, gr), (ml, mr) in zip(gap_profile(gamma).gaps, gap_profile(prefix(gamma)).gaps, strict=True):
                assert gl.equals(mr) and gr.equals(ml)
            prefixes += 1
        assert set(pair_extremes(m).pairs) == {(path(mn), path(mx)) for mx, mn in pair_extremes(d).pairs}
        for x in ps:
            v, w = classify_GF(x), classify_GF(path(x))
            assert (w.kind, w.side) == (v.kind, sides[v.side]), render_path(x)
            assert w.witness == (v.witness and v.witness[::-1])
    assert prefixes > 900


def test_rb_equiv_seeds_only_at_phase_0(monkeypatch, fib, tm, rand3):
    seeds = []  # (links the tails' vertices at phase 0, h) of each seed, read off the walker's result

    def spy(d, cx, cy):
        chain, deaths = walk(d, cx, cy)
        phase_0 = (d.verticals[cx[0]].rng, d.verticals[cy[0]].rng)
        for h in [h for h, _, _ in deaths] + ([chain[0]] if chain else []):  # a chain starts at its seed
            seeds.append(((d.horizontals[h].src, d.horizontals[h].rng) == phase_0, h))
        return chain, deaths

    walk = paths._rb_walk
    monkeypatch.setattr(paths, "_rb_walk", spy)
    later_phase_seeds = 0
    key_seeds = []  # the phase-0 seeds of each distinct aligned tail pair
    for fixture in (fib, tm, rand3):
        d = BratteliDiagram(fixture.csub)  # a memo that no other test has filled
        keys = set()
        for x, y in _sampled_pairs(d):
            rb_equiv(x, y)
            p0, period = max(len(x.pre), len(y.pre)) + 2, lcm(len(x.cycle), len(y.cycle))
            later_phase_seeds += sum(
                len(d.h_by_ends.get((x.vertex_at(p0 + phase), y.vertex_at(p0 + phase)), [])) for phase in range(1, period)
            )
            if _aligned_tails(x, y) not in keys:
                keys.add(_aligned_tails(x, y))
                key_seeds += [(True, h.index) for h in d.h_by_ends.get((x.vertex_at(p0), y.vertex_at(p0)), [])]
    assert seeds and {at_phase_0 for at_phase_0, _ in seeds} == {True}
    assert later_phase_seeds > 0  # a reseeding of phases 1 .. P-1 would walk from these
    assert sorted(seeds) == sorted(key_seeds)  # each aligned tail pair is walked once


def test_rb_walk_yields_the_chain_and_one_death_per_other_seed(fib, tm, dyadic, rand3, random_diagrams, reducible_diagrams):
    """On the sampled pairs of the four fixtures, the random family and the
    reducible specs, the walker on each pair's aligned tails gives rb_equiv's
    chain, exactly one death for every seed but the chain's, and death
    triples absent from square_table: the dead seeds of equivalent pairs
    too."""
    deaths_of_equivalent = 0
    for d in (fib, tm, dyadic, rand3, *random_diagrams, *reducible_diagrams):
        for x, y in _sampled_pairs(d):
            p0 = max(len(x.pre), len(y.pre)) + 2
            chain, deaths = paths._rb_walk(d, paths._aligned_cycle(x, p0), paths._aligned_cycle(y, p0))
            w = rb_equiv(x, y)
            assert chain == (w and w.chain), (render_path(x), render_path(y))
            seeds = [h.index for h in d.h_by_ends.get((x.vertex_at(p0), y.vertex_at(p0)), [])]
            assert [seed for seed, _, _ in deaths] == [h for h in seeds if not chain or h != chain[0]]
            assert all(k >= 1 and triple not in d.square_table for _, k, triple in deaths)
            deaths_of_equivalent += len(deaths) if chain else 0
    assert deaths_of_equivalent > 0


def test_square_table_is_injective(all_diagrams, random_diagrams, reducible_diagrams):
    # rb_equiv's walks close at their seeds because h_top is fixed by the other three edges
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        assert len({(el, er, hb) for (_, el, er), hb in d.square_table.items()}) == len(d.square_table)


def test_rb_refutation_names_where_each_walk_dies(random_diagrams):
    """For each pair rb_equiv refuses, on the random family: with no seed,
    h_by_ends has no horizontal linking x(p0) to y(p0); otherwise the seeds
    are those horizontals, each walk steps through square_table from its seed
    to g at generation n - 1, which links x(n - 1) to y(n - 1), and the
    square_table has no (g, e_x, e_y) for the paths' edges at n."""
    reasons = set()
    for d in random_diagrams:
        for x, y in _sampled_pairs(d, k=60):
            if rb_equiv(x, y) is not None:
                continue
            p0, deaths = paths._rb_refutation(x, y)
            assert p0 == max(len(x.pre), len(y.pre)) + 2
            seeds = d.h_by_ends.get((x.vertex_at(p0), y.vertex_at(p0)), [])
            assert [seed for seed, _, _ in deaths] == [h.index for h in seeds]
            reasons.add("dies" if deaths else "no seed")
            for seed, n, (g, ex, ey) in deaths:
                h = seed
                for m in range(p0 + 1, n):
                    h = d.square_table[h, x.edge_index_at(m), y.edge_index_at(m)]
                assert h == g and n > p0
                assert (d.horizontals[g].src, d.horizontals[g].rng) == (x.vertex_at(n - 1), y.vertex_at(n - 1))
                assert (ex, ey) == (x.edge_index_at(n), y.edge_index_at(n))
                assert (g, ex, ey) not in d.square_table
    assert reasons == {"dies", "no seed"}


# -- literals and normal forms ---------------------------------------------------------


def test_parse_render_roundtrip(fib, dyadic):
    for literal in ("root=a; ac ca ab", "root=a; (ac ca)", "root=d; dc (ca ac)"):
        p = parse_path(fib, literal)
        assert render_path(p) == literal
    p = parse_path(dyadic, "root=a; aa#0 (aa#1)")
    assert render_path(p) == "root=a; aa#0 (aa#1)"


def test_parse_path_errors(fib, dyadic):
    with pytest.raises(ParseError):
        parse_path(fib, "root=z; ac")
    with pytest.raises(ParseError):
        parse_path(fib, "ac ca")
    with pytest.raises(ParseError, match="must start with 'root=<vertex>;'"):
        parse_path(fib, "rootfoo=a; ac ca ab")  # the key before '=' is "root" itself
    with pytest.raises(ParseError):
        parse_path(fib, "root=a; ca")  # wrong source
    with pytest.raises(ParseError):
        parse_path(fib, "root=a; (ac")
    with pytest.raises(ParseError):
        parse_path(fib, "root=a; xx")
    with pytest.raises(ParseError):
        parse_path(dyadic, "root=a; aa")  # ambiguous without #pos


@pytest.mark.parametrize(
    "make",
    [
        lambda d: PathPrefix(d, -1, []),
        lambda d: PathPrefix(d, len(d.vertices), []),
        lambda d: PathPrefix(d, 0, [99]),
        lambda d: PathPrefix(d, 0, [-1]),
        lambda d: EventuallyPeriodicPath(d, 9, [], [0]),
        lambda d: EventuallyPeriodicPath(d, 0, [], [99]),
        lambda d: EventuallyPeriodicPath(d, 0, [-1], [0]),
    ],
    ids=["negative-root", "root-past-end", "edge-past-end", "negative-edge", "periodic-root", "cycle-edge", "preamble-edge"],
)
def test_path_constructors_refuse_out_of_range_indices(fib, make):
    """A root or edge index outside its range is a ParseError, not an
    IndexError, nor a negative index that Python would count from the end."""
    with pytest.raises(ParseError, match="is not a vertex|is not a vertical edge"):
        make(fib)


# Collar names under which two different edges join to the same text:
# x->yz and xy->z both read "xyz".
AMBIGUOUS_NAMES_SPEC = "letters: 0 1\nrule 0: 0 1\nrule 1: 0\ncollar-names: x xy yz z\n"


def test_rendered_literals_parse_back(all_diagrams, random_diagrams):
    ambiguous = build_diagram(parse_spec(AMBIGUOUS_NAMES_SPEC))
    for d in (*all_diagrams.values(), *random_diagrams, ambiguous):
        for p in nonempty_paths(d, 3, 3):
            assert parse_path(d, render_path(p)) == p, render_path(p)
    labels = [ambiguous.edge_label(e) for e in ambiguous.verticals]
    assert "x>yz" in labels and "xy>z" in labels and "xyz" not in labels
    for literal in ("root=x; x>yz (yzxy xyyz)", "root=yz; yzxy xy>z (zx xz)"):
        assert render_path(parse_path(ambiguous, literal)) == literal


@pytest.mark.parametrize("literal", ["root=a; ()", "root=a; ab ()", "root=a; ab | ( )"])
def test_parse_path_empty_cycle(fib, literal):
    with pytest.raises(ParseError, match=r"empty cycle '\(\)'"):
        parse_path(fib, literal)


def test_normalization_absorbs_preamble(fib):
    x = parse_path(fib, "root=a; ac (ca ac)")
    assert render_path(x) == "root=a; (ac ca)"
    y = parse_path(fib, "root=a; (ac ca ac ca)")
    assert render_path(y) == "root=a; (ac ca)"
    assert x == parse_path(fib, "root=a; (ac ca)")


def all_prefixes(diagram, depth):
    out = []

    def extend(root, v, edges):
        if len(edges) == depth - 1:
            out.append(PathPrefix(diagram, root, edges))
            return
        for e in diagram.out_edges[v]:
            extend(root, e.rng, edges + [e.index])

    for v in range(len(diagram.vertices)):
        extend(v, v, [])
    return out


def test_collared_decode_injective_on_prefixes(fib, tm):
    # distinct prefixes must give distinct collared patches (border forcing);
    # the undecorated patch may collide when two letters share a rule image
    for diagram in (fib, tm):
        seen = {}
        for g in all_prefixes(diagram, 4):
            pc = decode_collared(g)
            key = ("".join(t.base for t in pc.tiles), pc.puncture_index)
            assert key not in seen, (g, seen[key])
            seen[key] = g
    plain = {}
    collisions = 0
    for g in all_prefixes(fib, 4):
        p = decode(g)
        key = (p.word(), p.puncture_index)
        collisions += key in plain
        plain[key] = g
    assert collisions > 0  # the collar is what separates them


def test_enumerate_paths_dedup(fib):
    paths = enumerate_paths(fib, 2, 2)
    keys = {p.key() for p in paths}
    assert len(keys) == len(paths)
    # spot membership
    assert any(render_path(p) == "root=a; (ac ca)" for p in paths)
    assert any(render_path(p) == "root=a; ab (bd db)" for p in paths)


def test_enumerate_paths_refuses_negative_preamble_limit(fib):
    # used to recurse until RecursionError
    with pytest.raises(ValueError, match="pre_limit >= 0"):
        enumerate_paths(fib, -1, 1)


def test_enumerate_paths_refuses_cycle_limit_below_one(dyadic):
    # used to return the two 1-cycles (aa#0) and (aa#1)
    with pytest.raises(ValueError, match="cycle_limit >= 1"):
        enumerate_paths(dyadic, 0, 0)
    assert len(enumerate_paths(dyadic, 0, 1)) == 2
