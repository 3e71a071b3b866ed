"""The stationary collared Bratteli diagram of a 1-d substitution.

Vertices at every generation are the collared letters.  A vertical template
records one occurrence of a letter inside a rule image, with the exact
puncture-to-puncture translation stored as a base coefficient c so that the
realized label at generation n is c * lambda^(n-2) (root edges at
generation 1 carry 0).  Horizontal templates record legal adjacencies of
collared letters, scaled as c * lambda^(n-1); each nontrivial one comes
with its opposite (negated coefficient), and every vertex carries a trivial
loop.

A commutative square is a quadruple (h_top, e_left, e_right, h_bot) that is
incident and whose labels satisfy, after dividing out lambda^(n-2),

    c(e_left) + lambda * c(h_bot) = c(h_top) + c(e_right).

A collar adds combinatorics, not geometry, so a vertical coefficient
depends only on (core of its range, position) and a horizontal one on its
two cores; templates with one key share one coefficient object.  Every
coefficient is a signed half-sum of tile lengths, so it is kept as an
integer vector over the diagram's one denominator `den` = 2D, D that of
the length vectors: the build and the exports form no element.  Ring
arithmetic reads elements through `elements`, one read-only mapping from
each distinct coefficient vector to its element, formed on first read.

Each coefficient is the displacement from its source's tile centre to its
range's, so both sides of the equation measure from A = e_left.src, placed
in T = h_bot.src, to the centre of U = h_bot.rng: they agree exactly when
B = e_right.src, as a subtile of U, lies c(h_top) from A.  That is 0 or
+-(l_A + l_B)/2, while with positive lengths two distinct subtiles are at
least (l_A + l_B)/2 apart, with equality only for neighbours.  So, with a
forward horizontal (index below its opposite's) carrying +, the squares are
exactly three families, read off the rules with no arithmetic:

- tail: h_bot trivial at v, e_left = e_right into v, h_top trivial;
- interior: h_bot trivial at v, e_left and e_right at positions i, i+1 of
  v's rule, h_top forward between their sources, and the mirror;
- boundary: h_bot forward T -> U, e_left the last edge into T, e_right the
  first into U, h_top forward between their sources, and the mirror;

a mirror swaps e_left and e_right and reverses both horizontals.  Sorted
keys are the scan order of `squares` and of the JSON export.

Of a square and its mirror one is stored (canonical): the one with
L = c(e_left) + lambda c(h_bot) < 0 <= the mirror's L, else the smaller key
(h_top forward).  Positive lengths fix these signs per family.  A tail
square is its own mirror.  With h_bot forward, a boundary square has
L = (l_(e_left) + lambda l_U)/2 > 0 and its mirror -(l_(e_right) + lambda
l_T)/2 < 0.  An interior square has L = c(e_left), and vertical coefficients
strictly decrease along a rule, so h_top forward (e_left at i, e_right at
i + 1) is stored unless c turns negative there: i + 1 = `split` of v's letter.

The full zero-residual square set drives the extended-equivalence decision
procedure.  Squares whose two horizontals are trivial realize tail
equivalence; the remaining ones split into transient squares (every chain
through them falls into the trivial ones) and the finitely many recurrent
squares that can be composed indefinitely.  The recurrent squares, stored
once per orientation, are the diagram's commutative-diagram templates: for
the Fibonacci and Thue-Morse systems there are exactly 2 and 4 of them.

Square t composes after square s when t.h_top = s.h_bot.  Each forward
horizontal T -> U is the h_bot of exactly one boundary square, whose h_top
is the forward horizontal from T's last subtile to U's first; call it
down(T -> U).  The diagram builds down from the templates alone, before the
census.  Mirrors reverse both horizontals, interior squares end at a
trivial loop, and no nontrivial square starts at one.  So a nontrivial
square can compose indefinitely exactly when it is a boundary square whose
forward h_bot lies on a cycle of down: the census reads each square's kind
off down's cycles, and those cycles, walked backward, are the chains of
canonical recurrent diagrams.

`enumerate_squares` emits the stored orientation of each square, in scan
order.  Each view of the census is formed on its own first read from that
one list, `canonical_squares`: `diagrams`, `square_table` (each key and its
mirror's, as ints) and `squares` (both orientations, which only `verify`
reads).  A square is its own mirror iff its mirror's key is its key, not
iff e_left = e_right: a boundary square at a collared letter adjacent to
itself whose rule has length 1 has e_left = e_right.  The census does no
arithmetic; `verify` checks the square equation of every square it lists.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Mapping
from itertools import chain
from operator import attrgetter
from types import MappingProxyType

from ._record import Frozen
from .errors import DotTooLarge, ParseError
from .exactnum import AlgebraicNumber, render_vector
from .substitution import CollaredSubstitution, Substitution


class VerticalTemplate(Frozen):
    """Subtile src (generation n-1) at position pos in the rule image of the
    supertile rng (generation n); realized label u(e^n) = c * lambda^(n-2),
    c = coeff/den, coeff an integer vector over the diagram's den."""

    __slots__ = ("index", "src", "rng", "pos", "coeff")

    def __init__(self, index: int, src: int, rng: int, pos: int, coeff: tuple[int, ...]):
        self._fill(index, src, rng, pos, coeff)


class HorizontalTemplate(Frozen):
    """Realized label u(h^n) = c * lambda^(n-1), c = coeff/den, coeff an integer
    vector over the diagram's den; opposite indexes the reversed edge (itself if trivial)."""

    __slots__ = ("index", "src", "rng", "coeff", "trivial", "opposite")

    def __init__(self, index: int, src: int, rng: int, coeff: tuple[int, ...], trivial: bool, opposite: int):
        self._fill(index, src, rng, coeff, trivial, opposite)


class DiagramTemplate(Frozen):
    """kind: "af" | "transient" | "cyclic"; canonical is False on the mirror orientation of a stored square."""

    __slots__ = ("h_top", "e_left", "e_right", "h_bot", "kind", "canonical")

    def __init__(self, h_top: int, e_left: int, e_right: int, h_bot: int, kind: str, canonical: bool = True):
        self._fill(h_top, e_left, e_right, h_bot, kind, canonical)

    def key(self) -> tuple[int, int, int, int]:
        return (self.h_top, self.e_left, self.e_right, self.h_bot)


class BratteliDiagram:
    def __init__(self, csub: CollaredSubstitution):
        self.csub = csub
        self.vertices = [cl.name for cl in csub.collared_alphabet]
        self.field = csub.base.field
        self.den = 2 * csub.base.length_vectors[0]  # every template coefficient is an integer vector over it
        self.verticals = build_vertical(csub)
        self.horizontals = build_horizontal(csub)
        self._index_templates()
        # the memos of paths hold ints, never paths, so a dropped diagram is freed by reference counting
        self._rb_chains: dict = {}  # aligned tail pair -> rb_equiv's chain or None, filled on demand
        self._rb_generators = None  # rb_via_generators' tail-key pairs (max, psi(max)), formed on first use

    # -- elements, formed on first read -----------------------------------------

    @functools.cached_property
    def lam(self) -> AlgebraicNumber:
        return self.field.lam()

    @functools.cached_property
    def elements(self) -> Mapping[tuple[int, ...], AlgebraicNumber]:
        """Read-only: each distinct template coefficient vector -> its element,
        over(vector, den), one element per distinct vector."""
        vectors = {t.coeff for t in chain(self.verticals, self.horizontals)}
        return MappingProxyType({v: self.field.over(v, self.den) for v in vectors})

    def __getstate__(self):  # a copy or pickle forms its own element view: a read-only mapping does not pickle
        return {k: v for k, v in vars(self).items() if k != "elements"}

    # -- the census, each view formed on its own first read ---------------------

    @functools.cached_property
    def canonical_squares(self) -> list[DiagramTemplate]:
        """The stored orientation of each square and its mirror, in scan order."""
        return enumerate_squares(self)

    @functools.cached_property
    def diagrams(self) -> list[DiagramTemplate]:
        """The canonical recurrent squares: the commutative-diagram templates."""
        return [s for s in self.canonical_squares if s.kind == "cyclic"]

    @functools.cached_property
    def square_table(self) -> dict[tuple[int, int, int], int]:
        """(h_top, e_left, e_right) -> h_bot of each square, from the keys of
        each canonical square and its mirror."""
        keys = [k for s in self.canonical_squares for k in {s.key(), self._mirror_key(s)}]  # one if its own mirror
        table = {(ht, el, er): hb for ht, el, er, hb in keys}
        assert len(table) == len(keys)  # one h_bot per (h_top, e_left, e_right)
        return table

    @functools.cached_property
    def squares(self) -> list[DiagramTemplate]:
        """Every commutative square, both orientations, in scan order."""
        mirror = self._mirror_key
        mirrors = [DiagramTemplate(*m, s.kind, False) for s in self.canonical_squares if (m := mirror(s)) != s.key()]
        return sorted(self.canonical_squares + mirrors, key=DiagramTemplate.key)

    def _mirror_key(self, s: DiagramTemplate) -> tuple[int, int, int, int]:
        """The key of s's mirror: both horizontals reversed, e_left and e_right swapped."""
        return self.horizontals[s.h_top].opposite, s.e_right, s.e_left, self.horizontals[s.h_bot].opposite

    # -- lookups ---------------------------------------------------------------

    @functools.cached_property
    def out_edges(self) -> dict[int, list[VerticalTemplate]]:
        out = {v: [] for v in range(len(self.vertices))}
        for e in self.verticals:
            out[e.src].append(e)
        return out

    @functools.cached_property
    def h_by_ends(self) -> dict[tuple[int, int], list[HorizontalTemplate]]:
        out = {}
        for h in self.horizontals:
            out.setdefault((h.src, h.rng), []).append(h)
        return out

    def _index_templates(self):
        self.in_edges: dict[int, list[VerticalTemplate]] = {v: [] for v in range(len(self.vertices))}
        for e in self.verticals:
            self.in_edges[e.rng].append(e)
        for edges in self.in_edges.values():  # build_vertical emits them by (rng, pos)
            assert [e.pos for e in edges] == list(range(len(edges)))
        self.trivial_h: dict[int, HorizontalTemplate] = {}
        self.forward_h: dict[tuple[int, int], HorizontalTemplate] = {}  # src just left of rng
        for h in self.horizontals:
            if h.trivial:
                self.trivial_h[h.src] = h
            elif h.index < h.opposite:
                self.forward_h[h.src, h.rng] = h
        self.down: dict[int, int] = {}  # forward h_bot -> h_top of its boundary square
        for (t, u), h in self.forward_h.items():
            top = self.forward_h.get((self.max_edge_into(t).src, self.min_edge_into(u).src))
            if top is not None:
                self.down[h.index] = top.index
        self.down_cycles = _cycles(sorted(self.down), self.down.get)  # each as h, down(h), ... from its lowest h

    def vertical_by_ends(self, src: int, rng: int, pos: int | None = None) -> VerticalTemplate:
        cands = [e for e in self.out_edges[src] if e.rng == rng]
        if pos is not None:
            cands = [e for e in cands if e.pos == pos]
        if not cands:
            raise ParseError(
                f"no edge {self.vertices[src]}->{self.vertices[rng]}"
                + (f" at position {pos}" if pos is not None else "")
            )
        if len(cands) > 1:
            raise ParseError(
                f"ambiguous edge {self.vertices[src]}{self.vertices[rng]}: "
                f"positions {[e.pos for e in cands]}, add #<pos>"
            )
        return cands[0]

    def splits(self, token: str) -> list[tuple[str, str]]:
        """Every way to cut `token` into two vertex names."""
        names = self.vertices
        return [(token[:i], token[i:]) for i in range(1, len(token)) if token[:i] in names and token[i:] in names]

    def edge_label(self, e: VerticalTemplate) -> str:
        """src + rng, or src>rng when that join cuts into two names more than one way."""
        return self._edge_labels[e.index]

    @functools.cached_property
    def _edge_labels(self) -> list[str]:  # formed on first use: a build pays nothing for it
        many = Counter((e.src, e.rng) for e in self.verticals)
        labels = []
        for e in self.verticals:
            src, rng = self.vertices[e.src], self.vertices[e.rng]
            name = src + rng if len(self.splits(src + rng)) == 1 else f"{src}>{rng}"
            labels.append(name + f"#{e.pos}" if many[e.src, e.rng] > 1 else name)
        return labels

    def min_edge_into(self, v: int) -> VerticalTemplate:
        return self.in_edges[v][0]

    def max_edge_into(self, v: int) -> VerticalTemplate:
        return self.in_edges[v][-1]

    def square_usum(self, s: DiagramTemplate) -> AlgebraicNumber:
        """Base coefficient of u(e_left) + u(h_bot) at the lambda^(n-2) scale
        (the left side L of the square equation), formed on demand."""
        c = self.elements
        return c[self.verticals[s.e_left].coeff] + self.lam * c[self.horizontals[s.h_bot].coeff]


def build_diagram(source: Substitution) -> BratteliDiagram:
    return BratteliDiagram(CollaredSubstitution(source))


def build_vertical(csub: CollaredSubstitution) -> list[VerticalTemplate]:
    """One template per occurrence of a letter in a rule image.

    Base-scale layout: the generation-n supertile of w spans
    lambda * len(w) with its subtiles at generation-(n-1) sizes; the
    coefficient is supertile center minus subtile center (u(e) = -a), the
    integer vector over 2D that `Substitution.layouts` keeps, one shared
    object per (core(w), position).
    """
    layouts = csub.base.layouts
    out = []
    for w, rule in sorted(csub.collared_rules.items()):
        coeffs = layouts[csub.core_of(w)].vertical
        for pos, u in enumerate(rule):
            out.append(VerticalTemplate(index=len(out), src=u, rng=w, pos=pos, coeff=coeffs[pos]))
    return out


def build_horizontal(csub: CollaredSubstitution) -> list[HorizontalTemplate]:
    """Directed adjacency templates plus one trivial loop per vertex.

    (t, t') is adjacent (t immediately left of t') when right(t) = core(t'),
    left(t') = core(t), and the projected 4-word is legal: exactly the pairs
    (w[:3], w[1:]) of the legal 4-words w, walked in (t, t') index order.
    The template for the ordered pair carries +((len t + len t')/2), the sum
    of the two integer length vectors, over 2D, and its opposite the negated
    vector.  Both are built once per pair of core letters and shared, and
    every trivial loop carries one zero vector: no element is formed.
    """
    base = csub.base
    _, vecs = base.length_vectors
    index = csub.by_triple
    half_sums: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    out: list[HorizontalTemplate] = []
    for t, u, x, y in sorted((index[w[:3]], index[w[1:]], w[1], w[2]) for w in base.legal_quads):
        pm = half_sums.get((x, y))
        if pm is None:
            plus = tuple(a + b for a, b in zip(vecs[x], vecs[y]))
            pm = half_sums[x, y] = half_sums[y, x] = plus, tuple(-c for c in plus)
        i = len(out)
        out.append(HorizontalTemplate(i, t, u, pm[0], False, i + 1))
        out.append(HorizontalTemplate(i + 1, u, t, pm[1], False, i))
    zero = (0,) * len(vecs[0])
    for t in range(len(index)):
        out.append(HorizontalTemplate(len(out), t, t, zero, True, len(out)))
    return out


def enumerate_squares(diagram: BratteliDiagram) -> list[DiagramTemplate]:
    """The stored orientation of every commutative square, in scan order,
    read off adjacent subtiles (the three families of the module docstring)
    with no arithmetic; the family a square falls in sets its kind and which
    orientation is stored."""
    hs, trivial = diagram.horizontals, diagram.trivial_h
    layouts, core_of = diagram.csub.base.layouts, diagram.csub.core_of
    recurrent = {h for cycle in diagram.down_cycles for h in cycle}
    out = []
    for v, into in diagram.in_edges.items():
        out.extend(DiagramTemplate(trivial[e.src].index, e.index, e.index, trivial[v].index, "af") for e in into)
        split = layouts[core_of(v)].split
        for el, er in zip(into, into[1:]):
            if (ht := diagram.forward_h.get((el.src, er.src))) is not None:  # el.src just left of er.src
                top, el, er = (ht.index, el, er) if er.pos != split else (ht.opposite, er, el)  # the mirror at the split
                out.append(DiagramTemplate(top, el.index, er.index, trivial[v].index, "transient"))
    for hb, ht in diagram.down.items():  # the mirror of the boundary square at each forward h_bot
        kind = "cyclic" if hb in recurrent else "transient"
        el, er = diagram.max_edge_into(hs[hb].src), diagram.min_edge_into(hs[hb].rng)
        out.append(DiagramTemplate(hs[ht].opposite, er.index, el.index, hs[hb].opposite, kind))
    out.sort(key=attrgetter("h_top", "e_left", "e_right", "h_bot"))
    return out


def _reachable(start, successors) -> set:
    """Nodes reachable from start along successors(node), start included."""
    seen = {start}
    stack = [start]
    while stack:
        for w in successors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _cycles(starts, step) -> list[list]:
    """The cycles of the partial map step that pass through starts, each
    once, as the walk from its first member in starts.  One pass: a walk stops
    at the first state any walk reached, which closes a new cycle iff it is
    on the walk's own trail."""
    cycles, seen, cycle_of = [], {}, {}  # seen: state -> trail of the walk that reached it
    for s in starts:
        trail, state = [], s
        while state is not None and state not in seen:
            seen[state] = trail
            trail.append(state)
            state = step(state)
        if state is not None and seen[state] is trail:
            cycle = trail[trail.index(state) :]
            cycle_of.update(dict.fromkeys(cycle, cycle))
        cycle = cycle_of.get(s)  # found by now if s is on a cycle
        if cycle:  # emptied once listed
            cycles.append(cycle[cycle.index(s) :] + cycle[: cycle.index(s)])
            cycle.clear()
    return cycles


def diagram_chains(diagram: BratteliDiagram):
    """Composability digraph over the canonical commutative diagrams and its
    cycles, each from its lowest index.

    Diagram j composes after i when j.h_top = i.h_bot, that is when
    down(j.h_bot) = i.h_bot, so each diagram has at most one successor and
    the cycles run down's cycles backward."""
    nodes = diagram.diagrams
    by_top = {s.h_top: j for j, s in enumerate(nodes)}
    after = [by_top.get(s.h_bot) for s in nodes]
    arcs = {i: [] if j is None else [j] for i, j in enumerate(after)}
    cycles = [[nodes[i] for i in cycle] for cycle in _cycles(range(len(nodes)), after.__getitem__)]
    return arcs, cycles


def hypothesis_check(diagram: BratteliDiagram) -> int | None:
    """Every vertex must lie on two distinct infinite paths.

    Sufficient exact check: each vertex is reachable from the root (every
    vertex has an incoming edge at every generation) and the forward
    template graph from each vertex reaches a vertex with >= 2 outgoing
    verticals (a vertex with no outgoing vertical reaches only itself).
    Returns the lowest violating vertex index, or None.
    """
    out_edges = diagram.out_edges
    for v in range(len(diagram.vertices)):
        forward = _reachable(v, lambda w: (e.rng for e in out_edges[w]))
        if not diagram.in_edges[v] or all(len(out_edges[w]) < 2 for w in forward):
            return v
    return None


# -- exports ---------------------------------------------------------------------


# Most lines export_dot writes.  Every generation adds a rank line plus its
# vertical and nontrivial horizontal edges, all held in memory, so the count
# is computed from the template counts and a larger export is refused first.
MAX_DOT_LINES = 10**5


def dot_line_count(diagram: BratteliDiagram, depth: int) -> int:
    """Number of lines of export_dot(diagram, depth), computed without exporting."""
    nontrivial = sum(1 for h in diagram.horizontals if not h.trivial)
    return 4 + len(diagram.vertices) + depth * (1 + nontrivial) + (depth - 1) * len(diagram.verticals)


def export_dot(diagram: BratteliDiagram, depth: int) -> str:
    """DOT digraph with `depth` generations unrolled.

    Vertical edges are solid and carry the exact label as an L-polynomial
    scaled by the generation law; horizontal edges are dashed, drawn within
    each rank (trivial loops omitted).  Raises DotTooLarge above
    MAX_DOT_LINES lines.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    count = dot_line_count(diagram, depth)
    if count > MAX_DOT_LINES:
        raise DotTooLarge(depth, count, MAX_DOT_LINES)
    lines = ["digraph bratteli {", "  rankdir=TB;", '  root [shape=point label=""];']
    names = diagram.vertices
    render = functools.cache(lambda c: render_vector(c, diagram.den))  # once per distinct coefficient

    def node(v, gen):
        return f'"{names[v]}_{gen}"'

    for gen in range(1, depth + 1):
        lines.append(f"  {{ rank=same; " + " ".join(node(v, gen) for v in range(len(names))) + " }")
    for v in range(len(names)):
        lines.append(f'  root -> {node(v, 1)} [label="0"];')
    for gen in range(2, depth + 1):
        for e in diagram.verticals:
            label = _scaled_label(render(e.coeff), gen - 2)
            lines.append(f"  {node(e.src, gen - 1)} -> {node(e.rng, gen)} [label=\"{label}\"];")
    for gen in range(1, depth + 1):
        for h in diagram.horizontals:
            if h.trivial:
                continue
            label = _scaled_label(render(h.coeff), gen - 1)
            lines.append(
                f"  {node(h.src, gen)} -> {node(h.rng, gen)} "
                f'[style=dashed constraint=false label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _scaled_label(body: str, exponent: int) -> str:
    if exponent == 0:
        return body
    if " " in body:
        body = f"({body})"
    return f"{body}*L^{exponent}" if exponent != 1 else f"{body}*L"


def export_json(diagram: BratteliDiagram) -> str:
    """Byte for byte json.dumps(payload, indent=2) + "\n": keys in the order
    written below, indent 2, "[]" for an empty array, strings escaped to
    ASCII as json.dumps escapes them, and a trailing newline.  With `indent`
    json.dumps runs its pure-Python encoder, so the fixed schema is written
    directly: each distinct string is encoded once, each distinct coefficient
    vector rendered once, each record is one f-string."""
    import json  # here, not at the top: most commands never load it
    base = diagram.csub.base
    q = functools.cache(json.dumps)
    coeff = functools.cache(lambda c: q(render_vector(c, diagram.den)))  # once per distinct coefficient
    v = [q(name) for name in diagram.vertices]

    def strings(values, pad):
        return _json_join([f"{pad}  {q(w)}" for w in values], pad)

    letters = [a.name for a in base.alphabet]
    rules = {a.name: [letters[y] for y in base.rules[a.id]] for a in base.alphabet}
    rule_items = [f"      {q(k)}: " + strings(w, "      ") for k, w in rules.items()]
    scan_order = {cl.triple(): cl.name for cl in diagram.csub.collared_alphabet}  # collar-names go in scan order
    spec = [
        '    "letters": ' + strings(letters, "    "),
        '    "rules": ' + _json_join(rule_items, "    ", "{}"),
        '    "collar-names": ' + strings([scan_order[t] for t in sorted(scan_order)], "    "),
    ]
    verticals = [
        f'    {{\n      "src": {v[e.src]},\n      "rng": {v[e.rng]},\n      "pos": {e.pos},\n'
        f'      "coeff": {coeff(e.coeff)}\n    }}' for e in diagram.verticals
    ]
    horizontals = [
        f'    {{\n      "src": {v[h.src]},\n      "rng": {v[h.rng]},\n      "coeff": {coeff(h.coeff)},\n'
        f'      "trivial": {"true" if h.trivial else "false"}\n    }}' for h in diagram.horizontals
    ]
    squares = [
        f'    {{\n      "h_top": {s.h_top},\n      "e_left": {s.e_left},\n      "e_right": {s.e_right},\n'
        f'      "h_bot": {s.h_bot},\n      "kind": {q(s.kind)}\n    }}' for s in diagram.canonical_squares
    ]
    top = [
        '  "spec": ' + _json_join(spec, "  ", "{}"),
        '  "modulus": ' + strings([str(c) for c in base.field.modulus], "  "),
        '  "vertices": ' + _json_join([f"    {w}" for w in v], "  "),
        '  "verticals": ' + _json_join(verticals, "  "),
        '  "horizontals": ' + _json_join(horizontals, "  "),
        '  "diagrams": ' + _json_join(squares, "  "),
    ]
    return _json_join(top, "", "{}") + "\n"


def _json_join(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Items indented by pad + 2 spaces, joined as json.dumps(indent=2) joins
    an array (or object) whose closing bracket sits at pad."""
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}" if items else brackets
