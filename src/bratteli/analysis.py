"""Boundary-distance analysis along paths.

For a path prefix, g_L(n) / g_R(n) measure how far the generation-1
puncture tile sits from the left / right end of the generation-n supertile.
Both are nondecreasing; the step-n increment is lambda^(n-2) times the
base-scale offset of the chosen position inside its rule image, so it
vanishes exactly when the edge takes the leftmost (resp. rightmost)
position.  On an eventually periodic path this makes the dichotomy exact:
the puncture stays at bounded distance from a boundary iff the cycle is all
leftmost or all rightmost edges; otherwise both gaps run to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BratteliDiagram
from .exactnum import AlgebraicNumber
from .paths import EventuallyPeriodicPath, PathPrefix, decode
from .substitution import primitivity_index


@dataclass
class GapProfile:
    """Per-generation gaps (g_L(n), g_R(n)) for n = 1 .. depth."""

    gaps: list[tuple[AlgebraicNumber, AlgebraicNumber]]

    def boundary_distance(self, n: int) -> AlgebraicNumber:
        gl, gr = self.gaps[n - 1]
        return gl if gl.compare(gr) <= 0 else gr


def gap_profile(gamma: PathPrefix) -> GapProfile:
    """Exact gaps for every prefix length, accumulated from the layout
    offsets of the chosen edges (no full decode needed)."""
    d = gamma.diagram
    csub = d.csub
    f = d.field
    gaps = [(f.zero, f.zero)]
    gl, gr = f.zero, f.zero
    power = f.one  # lambda^(n-2) at generation n
    for n in range(2, gamma.length + 1):
        e = gamma.template_at(n)
        rule = csub.collared_rules[e.rng]
        left_off = f.zero
        for u in rule[: e.pos]:
            left_off = left_off + csub.length_of(u)
        right_off = f.zero
        for u in rule[e.pos + 1 :]:
            right_off = right_off + csub.length_of(u)
        gl = gl + left_off * power
        gr = gr + right_off * power
        power = power * d.lam
        gaps.append((gl, gr))
    return GapProfile(gaps=gaps)


@dataclass
class GFVerdict:
    kind: str  # "G" | "F"
    side: str | None  # for F: "left" | "right"
    witness: tuple[int, int] | None  # for G: cycle offsets of a left-moving and a right-moving edge

    def __str__(self):
        if self.kind == "F":
            return f"F (bounded distance to the {self.side} boundary)"
        return f"G (witness cycle offsets {self.witness})"


def classify_GF(x: EventuallyPeriodicPath) -> GFVerdict:
    """Exact dichotomy for eventually periodic paths: F iff the cycle
    consists entirely of leftmost or entirely of rightmost edges."""
    d = x.diagram
    all_left = all(d.verticals[e].pos == 0 for e in x.cycle)
    all_right = all(
        d.verticals[e].pos == len(d.in_edges[d.verticals[e].rng]) - 1 for e in x.cycle
    )
    if all_left:
        return GFVerdict(kind="F", side="left", witness=None)
    if all_right:
        return GFVerdict(kind="F", side="right", witness=None)
    not_left = next(
        i for i, e in enumerate(x.cycle) if d.verticals[e].pos != 0
    )
    not_right = next(
        i
        for i, e in enumerate(x.cycle)
        if d.verticals[e].pos != len(d.in_edges[d.verticals[e].rng]) - 1
    )
    return GFVerdict(kind="G", side=None, witness=(not_left, not_right))


def escape_depth(x: EventuallyPeriodicPath, bound) -> int:
    """Smallest depth at which dist(t_1, boundary of t_n) exceeds `bound`
    on both sides; only terminates for G-classified paths."""
    if classify_GF(x).kind != "G":
        raise ValueError("only G-classified paths escape every bound")
    b = x.diagram.field.rational(bound)
    depth = len(x.pre) + 1
    while True:
        depth += len(x.cycle)
        gl, gr = gap_profile(x.prefix(depth)).gaps[-1]
        if gl.compare(b) > 0 and gr.compare(b) > 0:
            return depth


def af_region(x: EventuallyPeriodicPath, depth: int) -> list[AlgebraicNumber]:
    """Exact puncture positions of all tiles of the depth-n patch around the
    origin: the finite-depth approximation of the tail-equivalence region."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return decode(x.prefix(depth)).puncture_positions()


def minimality_horizon(diagram: BratteliDiagram) -> int:
    """Generations needed for any vertex to connect to every vertex: the
    primitivity index of the collared abelianization (stationarity makes the
    starting generation irrelevant)."""
    return primitivity_index(diagram.csub.collared_abelianization)
