"""Command-line surface.

Exit statuses: 0 success, 1 a verify-paper check failed, 2 input/validation
error, 3 I/O error.  All output is deterministic; exact values print first,
6-place decimals second.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import classify_GF, gap_profile
from .diagram import build_diagram, export_dot, export_json
from .errors import BratteliError
from .fixtures import FIXTURES, load_fixture
from .paths import (
    EventuallyPeriodicPath,
    af_equiv,
    decode,
    extremal_paths,
    pair_extremes,
    parse_path,
    _rb_refutation,
    rb_equiv,
    refuse_large_patch,
    render_path,
    vershik_successor,
)
from .substitution import parse_spec
from .verify import run_battery

DOT = "̇"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "depth", None) is not None and args.depth < 1:
            raise BratteliError(f"--depth must be at least 1, got {args.depth}")
        if getattr(args, "steps", 0) < 0:
            raise BratteliError(f"--steps must be at least 0, got {args.steps}")
        return args.func(args)
    except BratteliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="bratteli",
        description="Collared Bratteli diagrams of 1-d primitive substitution tilings",
    )
    sub = parser.add_subparsers(required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("collar", cmd_collar, help="print the collared alphabet and substitution")
    _add_source(p)

    p = add("diagram", cmd_diagram, help="export the diagram as DOT or JSON")
    _add_source(p)
    p.add_argument("--depth", type=int, default=2, help="generations to unroll (DOT)")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--out", help="output file (default stdout)")

    p = add("decode", cmd_decode, help="decode a path to its generation-1 patch")
    _add_source(p)
    p.add_argument("--x", required=True, metavar="PATH", help="path literal")
    p.add_argument("--collared", action="store_true", help="expand the full collar")
    p.add_argument("--depth", type=int, help="prefix depth for eventually periodic paths")

    p = add("extremes", cmd_extremes, help="minimal/maximal paths and the pairing")
    _add_source(p)

    p = add("vershik", cmd_vershik, help="iterate the successor map")
    _add_source(p)
    p.add_argument("--x", required=True, metavar="PATH")
    p.add_argument("--steps", type=int, default=1)

    p = add("rb", cmd_rb, help="decide extended equivalence of two paths")
    _add_source(p)
    p.add_argument("--x", required=True, metavar="PATH")
    p.add_argument("--y", required=True, metavar="PATH")

    p = add("analyze", cmd_analyze, help="boundary-distance profile and G/F verdict")
    _add_source(p)
    p.add_argument("--x", required=True, metavar="PATH")
    p.add_argument("--depth", type=int, help="prefix depth for eventually periodic paths (default 8)")

    p = add("verify-paper", cmd_verify_paper, help="run the fixture verification battery")
    p.add_argument("fixture", help="fibonacci | thue-morse")

    return parser


def _add_source(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixture", choices=sorted(FIXTURES))
    g.add_argument("--spec", help="substitution spec file")


def _load(args):
    if getattr(args, "fixture", None):
        return load_fixture(args.fixture)
    with open(args.spec, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise BratteliError(f"{args.spec} is not UTF-8 (byte {exc.start}: {exc.reason})") from None
    return parse_spec(text)


def _dec(value) -> str:
    return value.to_decimal(6)


def _printers():  # render() and _dec once per object: a value printed twice is certified once
    return functools.cache(lambda v: v.render()), functools.cache(_dec)


def cmd_collar(args) -> int:
    sub = _load(args)
    diagram = build_diagram(sub)
    csub = diagram.csub
    print(f"letters: {' '.join(a.name for a in sub.alphabet)}")
    print(f"inflation: {diagram.lam.render()} = {_dec(diagram.lam)}")
    for a in sub.alphabet:
        ln = sub.lengths[a.id]
        print(f"length {a.name}: {ln.render()} = {_dec(ln)}")
    print(f"collared letters ({len(csub.collared_alphabet)}):")
    for cl in csub.collared_alphabet:
        names = [sub.alphabet[x].name for x in cl.triple()]
        print(f"  {cl.name} = {names[0]} {names[1]}{DOT} {names[2]}")
    print("collared substitution:")
    for cl in csub.collared_alphabet:
        print(f"  sigma({cl.name}) = {csub.rule_name(cl.index)}")
    return 0


def cmd_diagram(args) -> int:
    diagram = build_diagram(_load(args))
    if args.format == "dot":
        text = export_dot(diagram, args.depth)
    elif args.format == "json":
        text = export_json(diagram)
    else:
        n_h = sum(1 for h in diagram.horizontals if not h.trivial)
        text = (
            f"vertices: {' '.join(diagram.vertices)}\n"
            f"vertical templates: {len(diagram.verticals)}\n"
            f"nontrivial horizontal templates: {n_h}\n"
            f"commutative squares: {_square_count(diagram)}\n"
            f"recurrent commutative diagrams: {len(diagram.diagrams)}\n"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _square_count(diagram) -> int:
    """len(diagram.squares) off the canonical view: one fewer per square that is its own mirror."""
    squares = diagram.canonical_squares
    return 2 * len(squares) - sum(diagram._mirror_key(s) == s.key() for s in squares)


def _depth_of(args, path, default: int | None = None) -> int:
    """The depth of the prefix a command reads: --depth, else default, else
    one full cycle, for an eventually periodic path; a finite prefix's own
    length, which a --depth may only repeat."""
    if isinstance(path, EventuallyPeriodicPath):
        return args.depth or default or len(path.pre) + len(path.cycle) + 1
    if args.depth not in (None, path.length):
        raise BratteliError(f"--depth {args.depth} differs from the length {path.length} of the finite prefix")
    return path.length


def _prefix_of(path, depth: int):
    return path.prefix(depth) if isinstance(path, EventuallyPeriodicPath) else path


# Digits allowed above lambda^(depth-1) in what analyze and rb print.  A gap,
# or a translation, at generation n is at most lambda^(n-1) times a tile
# length, and as every root of the modulus has modulus <= lambda, the
# coefficients of its representative grow no faster; the margin covers the
# constant factors.
ANALYZE_DIGIT_MARGIN = 32

# Most digits the per-generation bounds of one analyze may sum to.  The
# output grows like depth^2 * log10(lambda), so a depth below the digit
# limit can still print megabytes; the sum is refused first.
ANALYZE_MAX_TOTAL_DIGITS = 10**6


def _refuse_unprintable(diagram, command: str, depth: int, values: int) -> None:
    """Refuse, before any work, a depth whose values could print past
    Python's int-to-str digit limit (its default 4300 where the limit is
    off), or whose digit bounds, summed over the `values` printed, pass
    ANALYZE_MAX_TOTAL_DIGITS.  Each value's bound is at most the
    deepest's, so values times that one bounds the sum."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    digits = diagram.field.lam_power_digits(depth - 1) + ANALYZE_DIGIT_MARGIN
    if digits > limit:
        raise BratteliError(
            f"{command} at depth {depth} would print numbers of up to {digits} digits, above the limit of {limit}"
        )
    if values * digits > ANALYZE_MAX_TOTAL_DIGITS:
        raise BratteliError(
            f"{command} at depth {depth} would print up to {values * digits} digits in all,"
            f" above the limit of {ANALYZE_MAX_TOTAL_DIGITS}"
        )


def cmd_decode(args) -> int:
    diagram = build_diagram(_load(args))
    path = parse_path(diagram, args.x)
    depth = _depth_of(args, path)
    refuse_large_patch(path, args.collared, depth)
    gamma = _prefix_of(path, depth)
    patch = decode(gamma, args.collared)
    render, dec = _printers()  # a tile's right is the next one's left
    print(f"path: {render_path(gamma)}")
    print(f"word: {patch.word_marked()}")
    print(f"puncture index: {patch.puncture_index}")
    print(f"offset u(gamma): {render(patch.offset)} = {dec(patch.offset)}")
    print("tiles:")
    for i, t in enumerate(patch.tiles):
        mark = " (puncture)" if i == patch.puncture_index else ""
        print(f"  {t.name}: [{render(t.left)}, {render(t.right)}] = [{dec(t.left)}, {dec(t.right)}]{mark}")
    prof = gap_profile(gamma)
    print("gaps (generation, g_L, g_R):")
    for n, (gl, gr) in enumerate(prof.gaps, start=1):
        print(f"  {n}: {render(gl)} = {dec(gl)} | {render(gr)} = {dec(gr)}")
    return 0


def cmd_extremes(args) -> int:
    diagram = build_diagram(_load(args))
    mins, maxs = extremal_paths(diagram)
    print("minimal paths:")
    for p in mins:
        print(f"  {render_path(p)}")
    print("maximal paths:")
    for p in maxs:
        print(f"  {render_path(p)}")
    print("pairing psi (max -> min):")
    for mx, mn in pair_extremes(diagram).pairs:
        print(f"  {render_path(mx)}  ->  {render_path(mn)}")
    return 0


def _vershik_walk(diagram, path: EventuallyPeriodicPath, steps: int):
    """(x, its successor, delta, position) per Vershik step from path: delta = (l_t + l_u)/2
    is the forward horizontal's coefficient from x's root to the successor's, read through
    the diagram's element view, and the position sums it as an integer vector over 2D."""
    csub, f = diagram.csub, diagram.field
    den, vecs = csub.base.length_vectors
    pos = [0] * len(vecs[0])
    for _ in range(steps):
        nxt = vershik_successor(path)
        t, u = csub.core_of(path.root), csub.core_of(nxt.root)
        pos = [p + a + b for p, a, b in zip(pos, vecs[t], vecs[u])]
        yield path, nxt, diagram.elements[diagram.forward_h[path.root, nxt.root].coeff], f.over(pos, 2 * den)
        path = nxt


def cmd_vershik(args) -> int:
    diagram = build_diagram(_load(args))
    path = parse_path(diagram, args.x)
    if not isinstance(path, EventuallyPeriodicPath):
        raise BratteliError("vershik needs an eventually periodic path (add a cycle)")
    render, dec = _printers()  # a delta repeats for each pair of core letters
    print(f"start: {render_path(path)}")
    for step, (x, nxt, delta, pos) in enumerate(_vershik_walk(diagram, path, args.steps), start=1):
        crossing = " [psi]" if x.is_maximal() else ""
        print(
            f"step {step}: {render_path(nxt)}  puncture {diagram.vertices[nxt.root]}"
            f"  +{render(delta)} = +{dec(delta)}  at {dec(pos)}{crossing}"
        )
    return 0


def _translation_depth(x: EventuallyPeriodicPath, y: EventuallyPeriodicPath) -> int:
    """The generation whose power of lambda bounds the translation rb prints:
    p0 = max(|pre_x|, |pre_y|) + 2, where it is formed.  For a tail-equivalent
    pair the surviving seed is the trivial loop, so the translation sums only
    the generations up to the last one before p0 at which the two edges
    differ (1 if none)."""
    p0 = max(len(x.pre), len(y.pre)) + 2
    if not af_equiv(x, y):
        return p0
    return next((n for n in range(p0 - 1, 1, -1) if x.edge_index_at(n) != y.edge_index_at(n)), 1)


def cmd_rb(args) -> int:
    diagram = build_diagram(_load(args))
    x = parse_path(diagram, args.x)
    y = parse_path(diagram, args.y)
    if not isinstance(x, EventuallyPeriodicPath) or not isinstance(y, EventuallyPeriodicPath):
        raise BratteliError("rb needs eventually periodic paths (add cycles)")
    _refuse_unprintable(diagram, "rb", _translation_depth(x, y), 1)
    witness = rb_equiv(x, y)
    if witness is None:
        _print_refutation(diagram, x, y)
        return 0
    print("equivalent")
    print(f"n0: {witness.n0}")
    chain = " ".join(_horizontal_name(diagram, h) for h in witness.chain)
    print(f"chain (period {len(witness.chain)}): {chain}")
    print(f"translation a(x,y): {witness.translation.render()} = {_dec(witness.translation)}")
    return 0


def _horizontal_name(diagram, h: int) -> str:
    return "->".join(diagram.vertices[v] for v in (diagram.horizontals[h].src, diagram.horizontals[h].rng))


def _print_refutation(diagram, x, y) -> None:
    """rb_equiv's verdict None, then why, in vertex and edge labels."""
    p0, deaths = _rb_refutation(x, y)
    links = "x(p0) = {} to y(p0) = {} at p0 = {}".format(*(diagram.vertices[p.vertex_at(p0)] for p in (x, y)), p0)
    print("not equivalent: None")
    reason = f"the walk from each horizontal linking {links} dies" if deaths else f"no horizontal links {links}"
    print(f"reason: {reason}")
    h, e = functools.partial(_horizontal_name, diagram), lambda i: diagram.edge_label(diagram.verticals[i])
    for seed, n, (g, ex, ey) in deaths:
        print(f"  seed {h(seed)}: dies at generation {n}, no square (h, e_x, e_y) = ({h(g)}, {e(ex)}, {e(ey)})")


def cmd_analyze(args) -> int:
    diagram = build_diagram(_load(args))
    path = parse_path(diagram, args.x)
    depth = _depth_of(args, path, default=8)
    _refuse_unprintable(diagram, "analyze", depth, depth)
    prof = gap_profile(_prefix_of(path, depth))
    render, dec = _printers()  # a gap whose increment is zero is the previous generation's
    print(f"path: {render_path(path)}")
    print("generation | g_L | g_R")
    for n, (gl, gr) in enumerate(prof.gaps, start=1):
        print(f"  {n} | {render(gl)} = {dec(gl)} | {render(gr)} = {dec(gr)}")
    if isinstance(path, EventuallyPeriodicPath):
        print(f"verdict: {classify_GF(path)}")
    else:
        print("verdict: (finite prefix; no tail verdict)")
    return 0


def cmd_verify_paper(args) -> int:
    results = run_battery(args.fixture)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        print(f"{status}  {r.name}{detail}")
        if not r.ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
