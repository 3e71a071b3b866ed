"""Boundary-distance analysis along paths.

For a path prefix, g_L(n) / g_R(n) measure how far the generation-1
puncture tile sits from the left / right end of the generation-n supertile.
Both are nondecreasing; the step-n increment is lambda^(n-2) times the
base-scale offset of the chosen position inside its rule image, so it
vanishes exactly when the edge takes the leftmost (resp. rightmost)
position.  On an eventually periodic path this makes the dichotomy exact:
the puncture stays at bounded distance from a boundary iff the cycle is all
leftmost or all rightmost edges; otherwise both gaps run to infinity.  The
gaps are summed as integer vectors over the D of `Substitution.length_vectors`.
`escape_depth`, public beyond the CLI, is that dichotomy's depth for a G path.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterator

from ._record import Record
from .exactnum import AlgebraicNumber
from .paths import EventuallyPeriodicPath, PathPrefix


class GapProfile(Record):
    """Per-generation gaps (g_L(n), g_R(n)) for n = 1 .. depth."""

    __slots__ = ("gaps",)

    def __init__(self, gaps: list[tuple[AlgebraicNumber, AlgebraicNumber]]):
        self.gaps = gaps


def gap_profile(gamma: PathPrefix) -> GapProfile:
    """Exact gaps for every prefix length, accumulated from the layout
    offsets of the chosen edges (no full decode needed)."""
    return GapProfile(gaps=list(islice(_gaps(gamma), gamma.length)))


def _gaps(path) -> Iterator[tuple[AlgebraicNumber, AlgebraicNumber]]:
    """(g_L(n), g_R(n)) for n = 1, 2, ... along a prefix or an eventually
    periodic path, one generation at a time, summed as integer vectors over
    D; a side whose increment is zero yields the same element again."""
    d = path.diagram
    csub = d.csub
    f = d.field
    den, vecs = csub.base.length_vectors
    gaps, sums = [f.zero, f.zero], [[0] * len(vecs[0]), [0] * len(vecs[0])]  # g_L, g_R; over D
    power = [1]  # lambda^(n-2) at generation n, an integer vector as the reduced modulus is monic
    for n in count(2):
        yield gaps[0], gaps[1]
        e = path.template_at(n)
        layout = csub.base.layouts[csub.core_of(e.rng)]
        for side, offset in enumerate((layout.left[e.pos], layout.right[e.pos])):
            if any(offset):
                sums[side] = [a + b for a, b in zip(sums[side], f.product(offset, power))]
                gaps[side] = f.over(sums[side], den)
        power = f.product(power, [0, 1])


class GFVerdict(Record):
    """kind "F" with side "left" | "right", or "G" with the cycle offsets of a left- and a right-moving edge."""

    __slots__ = ("kind", "side", "witness")

    def __init__(self, kind: str, side: str | None, witness: tuple[int, int] | None):
        self.kind, self.side, self.witness = kind, side, witness

    def __str__(self):
        if self.kind == "F":
            return f"F (bounded distance to the {self.side} boundary)"
        return f"G (witness cycle offsets {self.witness})"


def classify_GF(x: EventuallyPeriodicPath) -> GFVerdict:
    """Exact dichotomy for eventually periodic paths: F iff the cycle
    consists entirely of leftmost or entirely of rightmost edges."""
    d = x.diagram
    left = [e == d.min_edge_into(d.verticals[e].rng).index for e in x.cycle]
    right = [e == d.max_edge_into(d.verticals[e].rng).index for e in x.cycle]
    if all(left):
        return GFVerdict(kind="F", side="left", witness=None)
    if all(right):
        return GFVerdict(kind="F", side="right", witness=None)
    return GFVerdict(kind="G", side=None, witness=(left.index(False), right.index(False)))


def escape_depth(x: EventuallyPeriodicPath, bound) -> int:
    """Smallest depth len(pre) + 1 + k * len(cycle), k >= 1, at which
    dist(t_1, boundary of t_n) exceeds `bound` on both sides, found in one
    pass over the generations; only terminates for G-classified paths."""
    if classify_GF(x).kind != "G":
        raise ValueError("only G-classified paths escape every bound")
    b = x.diagram.field.rational(bound)
    first, step = len(x.pre) + 1, len(x.cycle)
    for depth, (gl, gr) in enumerate(_gaps(x), start=1):
        if depth > first and (depth - first) % step == 0 and gl.compare(b) > 0 and gr.compare(b) > 0:
            return depth
