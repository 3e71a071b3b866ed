from __future__ import annotations

from fractions import Fraction

import pytest

from bratteli.analysis import classify_GF, escape_depth, gap_profile
from bratteli.errors import NotPrimitive
from bratteli.paths import decode, enumerate_paths, extremal_paths, parse_path
from bratteli.substitution import abelianization, primitivity_index

from conftest import nonempty_paths
from oracles import connects_everywhere, escape_depth_by_profiles, is_minimal


def af_region(x, depth: int):
    """Puncture positions of the depth-n patch around the origin: the
    finite-depth approximation of the tail-equivalence region."""
    return [(t.left + t.right).scale(Fraction(1, 2)) for t in decode(x.prefix(depth)).tiles]


def minimality_horizon(d) -> int:
    """Generations needed for any vertex to reach every vertex."""
    return primitivity_index(abelianization(d.csub.collared_rules, len(d.vertices)))


def test_gap_profile_examples(fib):
    phi = fib.lam
    prof = gap_profile(parse_path(fib, "root=a; ac"))
    gl, gr = prof.gaps[1]
    assert gl.is_zero()
    assert gr.equals(phi - 1)  # the d tile, length 1/phi
    prof0 = gap_profile(parse_path(fib, "root=a;"))
    assert prof0.gaps[0][0].is_zero() and prof0.gaps[0][1].is_zero()
    prof2 = gap_profile(parse_path(fib, "root=d; db"))
    assert prof2.gaps[1][1].is_zero()  # d is rightmost in its rule image
    assert prof2.gaps[1][0].sign() == 1


def test_gap_profile_matches_decode(fib, tm):
    for diagram, literal in ((fib, "root=a; ac ca ab"), (tm, "root=a; ad dc cb")):
        gamma = parse_path(diagram, literal)
        prof = gap_profile(gamma)
        for n in range(1, gamma.length + 1):
            from bratteli.paths import PathPrefix

            patch = decode(PathPrefix(diagram, gamma.root, gamma.edges[: n - 1]))
            punct = patch.tiles[patch.puncture_index]
            gl, gr = prof.gaps[n - 1]
            assert (gl - (punct.left - patch.left)).is_zero()
            assert (gr - (patch.right - punct.right)).is_zero()


def test_gaps_nondecreasing(fib, tm):
    for diagram in (fib, tm):
        for x in enumerate_paths(diagram, 1, 2)[:10]:
            gaps = gap_profile(x.prefix(8)).gaps
            for (gl0, gr0), (gl1, gr1) in zip(gaps, gaps[1:]):
                assert gl1.compare(gl0) >= 0
                assert gr1.compare(gr0) >= 0


def test_classify_examples(fib, dyadic):
    mins, maxs = extremal_paths(fib)
    v = classify_GF(mins[0])
    assert v.kind == "F" and v.side == "left"
    v = classify_GF(maxs[0])
    assert v.kind == "F" and v.side == "right"
    mixed = parse_path(fib, "root=a; (ab bd da)")
    assert classify_GF(mixed).kind == "G"
    assert classify_GF(parse_path(dyadic, "root=a; (aa#0)")).kind == "F"


def test_classify_iff_af_extremal(fib, tm):
    from bratteli.paths import af_equiv

    for diagram in (fib, tm):
        mins, maxs = extremal_paths(diagram)
        for x in enumerate_paths(diagram, 2, 2):
            is_f = classify_GF(x).kind == "F"
            near_extreme = any(af_equiv(x, p) for p in mins + maxs)
            assert is_f == near_extreme


def test_escape_bounds(fib, tm):
    for diagram, literal in ((fib, "root=a; (ab bd da)"), (tm, "root=a; (ad df fa)")):
        x = parse_path(diagram, literal)
        assert classify_GF(x).kind == "G"
        depths = [escape_depth(x, b) for b in (1, 10, 100)]
        assert depths == sorted(depths)
        gl, gr = gap_profile(x.prefix(depths[-1])).gaps[-1]
        assert gl.compare(diagram.field.rational(100)) > 0
        assert gr.compare(diagram.field.rational(100)) > 0


def test_escape_depth_refuses_f_paths(fib):
    with pytest.raises(ValueError, match="only G-classified paths"):
        escape_depth(parse_path(fib, "root=a; (ac ca)"), 1)


def test_classify_matches_positions(all_diagrams, random_diagrams):
    # F iff the cycle's edges all sit at position 0, or all at the last
    # position of their range's in-edges; a G witness is the first offset off each
    for d in (*all_diagrams.values(), *random_diagrams):
        for x in nonempty_paths(d, 1, 3):
            left = [d.verticals[e].pos == 0 for e in x.cycle]
            right = [d.verticals[e].pos == len(d.in_edges[d.verticals[e].rng]) - 1 for e in x.cycle]
            v = classify_GF(x)
            if all(left) or all(right):
                assert (v.kind, v.side) == ("F", "left" if all(left) else "right")
            else:
                assert (v.kind, v.witness) == ("G", (left.index(False), right.index(False)))
            assert is_minimal(x) == all(d.verticals[e].pos == 0 for e in x.pre + x.cycle)


def test_escape_depth_matches_profiles(all_diagrams, random_diagrams):
    diagrams = list(all_diagrams.values()) + random_diagrams
    checked = 0
    for diagram in diagrams:
        g_paths = [x for x in nonempty_paths(diagram, 1) if classify_GF(x).kind == "G"][:3]
        for x in g_paths:
            for bound in (1, 10, 100):
                assert escape_depth(x, bound) == escape_depth_by_profiles(x, bound)
            checked += 1
    assert checked >= 40


def test_af_region_depth_one(fib):
    region = af_region(parse_path(fib, "root=a; (ac ca)"), 1)
    assert len(region) == 1 and region[0].is_zero()


def test_af_region_min_path_bounded_left(fib):
    x = parse_path(fib, "root=a; (ac ca)")
    for depth in range(1, 9):
        region = af_region(x, depth)
        for p in region:
            assert p.compare(fib.field.rational(Fraction(-1, 2))) >= 0


def test_af_region_g_path_escapes(fib):
    x = parse_path(fib, "root=a; (ab bd da)")
    lo_prev = hi_prev = None
    for depth in range(1, 11, 3):
        region = af_region(x, depth)
        lo = region[0]
        hi = region[0]
        for p in region[1:]:
            if p.compare(lo) < 0:
                lo = p
            if p.compare(hi) > 0:
                hi = p
        if lo_prev is not None:
            assert lo.compare(lo_prev) <= 0
            assert hi.compare(hi_prev) >= 0
        lo_prev, hi_prev = lo, hi
    assert lo_prev.sign() == -1 and hi_prev.sign() == 1


def test_af_region_monotone(fib, tm):
    for diagram in (fib, tm):
        x = enumerate_paths(diagram, 1, 2)[0]
        prev = set()
        for depth in (1, 2, 3, 4, 5):
            got = {p.render() for p in af_region(x, depth)}
            assert prev <= got
            prev = got


def test_minimality_horizon(fib, tm, dyadic):
    for diagram in (fib, tm, dyadic):
        k = minimality_horizon(diagram)
        assert connects_everywhere(diagram, k)
        if k > 1:
            assert not connects_everywhere(diagram, k - 1)
    assert minimality_horizon(dyadic) == 1


def test_minimality_horizon_not_primitive():
    with pytest.raises(NotPrimitive):
        primitivity_index([[1, 0], [0, 1]])


def test_f_paths_keep_one_gap_bounded(fib, tm):
    # the bounded-side gap of an extremal-tailed path is eventually constant
    for diagram in (fib, tm):
        mins, maxs = extremal_paths(diagram)
        for x in mins:
            g8 = gap_profile(x.prefix(8)).gaps[-1][0]
            g12 = gap_profile(x.prefix(12)).gaps[-1][0]
            assert (g8 - g12).is_zero()
            assert float(g12.to_decimal(6)) < 1.0
        for x in maxs:
            g8 = gap_profile(x.prefix(8)).gaps[-1][1]
            g12 = gap_profile(x.prefix(12)).gaps[-1][1]
            assert (g8 - g12).is_zero()


def test_af_region_extends_within_horizon(fib):
    x = parse_path(fib, "root=a; (ab bd da)")
    assert classify_GF(x).kind == "G"
    k = minimality_horizon(fib)
    for n in (3, 6):
        def span(depth):
            region = af_region(x, depth)
            lo = hi = region[0]
            for p in region[1:]:
                if p.compare(lo) < 0:
                    lo = p
                if p.compare(hi) > 0:
                    hi = p
            return lo, hi

        lo_n, hi_n = span(n)
        lo_nk, hi_nk = span(n + k)
        assert lo_nk.compare(lo_n) < 0
        assert hi_nk.compare(hi_n) > 0
