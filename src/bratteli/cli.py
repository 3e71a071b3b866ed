"""Command-line surface.

Exit statuses: 0 success, 2 input/validation error, 3 I/O error.  All
output is deterministic; exact values print first, 6-place decimals second.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import classify_GF, gap_profile
from .diagram import build_diagram, export_dot, export_json
from .errors import BratteliError
from .fixtures import FIXTURES, load_fixture
from .paths import (
    EventuallyPeriodicPath,
    decode,
    decode_collared,
    extremal_paths,
    parse_path,
    rb_equiv,
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
        return args.func(args)
    except BratteliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--depth", type=int, default=8)

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
        return parse_spec(fh.read())


def _dec(value) -> str:
    return value.to_decimal(6)


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
        n_cyclic = len(diagram.cyclic_diagrams())
        n_h = sum(1 for h in diagram.horizontals if not h.trivial)
        text = (
            f"vertices: {' '.join(diagram.vertices)}\n"
            f"vertical templates: {len(diagram.verticals)}\n"
            f"nontrivial horizontal templates: {n_h}\n"
            f"commutative squares: {len(diagram.squares)}\n"
            f"recurrent commutative diagrams: {n_cyclic}\n"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _prefix_of(args, path, default_depth=None):
    if isinstance(path, EventuallyPeriodicPath):
        depth = args.depth or default_depth or (len(path.pre) + len(path.cycle) + 1)
        return path.prefix(depth)
    return path


def cmd_decode(args) -> int:
    diagram = build_diagram(_load(args))
    path = parse_path(diagram, args.x)
    gamma = _prefix_of(args, path)
    patch = decode_collared(gamma) if args.collared else decode(gamma)
    print(f"path: {render_path(gamma)}")
    print(f"word: {patch.word_marked()}")
    print(f"puncture index: {patch.puncture_index}")
    print(f"offset u(gamma): {patch.offset.render()} = {_dec(patch.offset)}")
    print("tiles:")
    for i, t in enumerate(patch.tiles):
        mark = " (puncture)" if i == patch.puncture_index else ""
        print(
            f"  {t.name}: [{t.left.render()}, {t.right.render()}]"
            f" = [{_dec(t.left)}, {_dec(t.right)}]{mark}"
        )
    prof = gap_profile(gamma)
    print("gaps (generation, g_L, g_R):")
    for n, (gl, gr) in enumerate(prof.gaps, start=1):
        print(f"  {n}: {gl.render()} = {_dec(gl)} | {gr.render()} = {_dec(gr)}")
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
    for mx, mn in diagram.pair_extremes().pairs:
        print(f"  {render_path(mx)}  ->  {render_path(mn)}")
    return 0


def cmd_vershik(args) -> int:
    diagram = build_diagram(_load(args))
    path = parse_path(diagram, args.x)
    if not isinstance(path, EventuallyPeriodicPath):
        raise BratteliError("vershik needs an eventually periodic path (add a cycle)")
    pos = diagram.field.zero
    print(f"start: {render_path(path)}")
    for step in range(1, args.steps + 1):
        nxt = vershik_successor(path)
        tile0 = diagram.csub.length_of(path.root)
        tile1 = diagram.csub.length_of(nxt.root)
        delta = (tile0 + tile1).scale("1/2")
        pos = pos + delta
        crossing = " [psi]" if path.is_maximal() else ""
        print(
            f"step {step}: {render_path(nxt)}  puncture {diagram.vertices[nxt.root]}"
            f"  +{delta.render()} = +{_dec(delta)}  at {_dec(pos)}{crossing}"
        )
        path = nxt
    return 0


def cmd_rb(args) -> int:
    diagram = build_diagram(_load(args))
    x = parse_path(diagram, args.x)
    y = parse_path(diagram, args.y)
    if not isinstance(x, EventuallyPeriodicPath) or not isinstance(y, EventuallyPeriodicPath):
        raise BratteliError("rb needs eventually periodic paths (add cycles)")
    witness = rb_equiv(x, y)
    if witness is None:
        print("not equivalent: None")
        return 0
    print("equivalent")
    print(f"n0: {witness.n0}")
    chain = " ".join(
        f"{diagram.vertices[diagram.horizontals[h].src]}->{diagram.vertices[diagram.horizontals[h].rng]}"
        for h in witness.chain
    )
    print(f"chain (period {len(witness.chain)}): {chain}")
    print(f"translation a(x,y): {witness.translation.render()} = {_dec(witness.translation)}")
    return 0


def cmd_analyze(args) -> int:
    diagram = build_diagram(_load(args))
    path = parse_path(diagram, args.x)
    gamma = _prefix_of(args, path, default_depth=args.depth)
    prof = gap_profile(gamma)
    print(f"path: {render_path(path)}")
    print("generation | g_L | g_R")
    for n, (gl, gr) in enumerate(prof.gaps, start=1):
        print(f"  {n} | {gl.render()} = {_dec(gl)} | {gr.render()} = {_dec(gr)}")
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
