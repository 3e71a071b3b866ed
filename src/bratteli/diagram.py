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

The full zero-residual square set drives the extended-equivalence decision
procedure.  Squares whose two horizontals are trivial realize tail
equivalence; the remaining ones split into transient squares (every chain
through them falls into the trivial ones) and the finitely many recurrent
squares that can be composed indefinitely.  The recurrent squares, stored
once per orientation, are the diagram's commutative-diagram templates: for
the Fibonacci and Thue-Morse systems there are exactly 2 and 4 of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .exactnum import AlgebraicNumber
from .substitution import CollaredSubstitution, Substitution, collared_substitution, legal_words, parse_spec


@dataclass(frozen=True)
class VerticalTemplate:
    index: int
    src: int  # vertex at generation n-1 (the subtile)
    rng: int  # vertex at generation n (the supertile)
    pos: int  # position of the subtile in the rule image of rng
    coeff: AlgebraicNumber  # realized label u(e^n) = coeff * lambda^(n-2)


@dataclass(frozen=True)
class HorizontalTemplate:
    index: int
    src: int
    rng: int
    coeff: AlgebraicNumber  # realized label u(h^n) = coeff * lambda^(n-1)
    trivial: bool
    opposite: int  # index of the reversed edge (self for trivial loops)


@dataclass(frozen=True)
class DiagramTemplate:
    h_top: int
    e_left: int
    e_right: int
    h_bot: int
    kind: str  # "af" | "transient" | "cyclic"
    canonical: bool = True  # False on the mirror orientation of a stored square

    def key(self) -> tuple[int, int, int, int]:
        return (self.h_top, self.e_left, self.e_right, self.h_bot)


class BratteliDiagram:
    def __init__(self, csub: CollaredSubstitution):
        self.csub = csub
        self.vertices = [cl.name for cl in csub.collared_alphabet]
        self.field = csub.base.field
        self.lam = self.field.lam()
        self.verticals = build_vertical(csub)
        self.horizontals = build_horizontal(csub)
        self._index_templates()
        self.squares = enumerate_squares(self)
        self._classify_squares()
        self._pairing = None

    # -- lookups ---------------------------------------------------------------

    def _index_templates(self):
        self.out_edges: dict[int, list[VerticalTemplate]] = {v: [] for v in range(len(self.vertices))}
        self.in_edges: dict[int, list[VerticalTemplate]] = {v: [] for v in range(len(self.vertices))}
        for e in self.verticals:
            self.out_edges[e.src].append(e)
            self.in_edges[e.rng].append(e)
        for v, edges in self.in_edges.items():
            edges.sort(key=lambda e: e.pos)
            assert [e.pos for e in edges] == list(range(len(edges)))
        self.h_by_ends: dict[tuple[int, int], list[HorizontalTemplate]] = {}
        self.trivial_h: dict[int, HorizontalTemplate] = {}
        for h in self.horizontals:
            self.h_by_ends.setdefault((h.src, h.rng), []).append(h)
            if h.trivial:
                self.trivial_h[h.src] = h
        self._edge_multiplicity: dict[tuple[int, int], int] = {}
        for e in self.verticals:
            k = (e.src, e.rng)
            self._edge_multiplicity[k] = self._edge_multiplicity.get(k, 0) + 1

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

    def edge_label(self, e: VerticalTemplate) -> str:
        name = f"{self.vertices[e.src]}{self.vertices[e.rng]}"
        if self._edge_multiplicity[(e.src, e.rng)] > 1:
            name += f"#{e.pos}"
        return name

    def min_edge_into(self, v: int) -> VerticalTemplate:
        return self.in_edges[v][0]

    def max_edge_into(self, v: int) -> VerticalTemplate:
        return self.in_edges[v][-1]

    # -- square classification ---------------------------------------------------

    def _classify_squares(self):
        self.square_table: dict[tuple[int, int, int], int] = {}
        for s in self.squares:
            key = (s.h_top, s.e_left, s.e_right)
            assert key not in self.square_table
            self.square_table[key] = s.h_bot
        nontrivial = [s for s in self.squares if s.kind != "af"]
        # composability graph over directed nontrivial squares
        arcs = {
            s.key(): [t.key() for t in nontrivial if t.h_top == s.h_bot] for s in nontrivial
        }
        cyclic_keys = _recurrent_nodes(arcs)
        relabeled = []
        for s in self.squares:
            kind = s.kind
            if kind != "af":
                kind = "cyclic" if s.key() in cyclic_keys else "transient"
            relabeled.append(DiagramTemplate(s.h_top, s.e_left, s.e_right, s.h_bot, kind))
        usum_sign = {
            s.key(): self.square_usum(s).sign() for s in relabeled if self.mirror_key(s) != s.key()
        }
        self.squares = [
            DiagramTemplate(s.h_top, s.e_left, s.e_right, s.h_bot, s.kind, self._is_canonical(s, usum_sign))
            for s in relabeled
        ]
        self.canonical_squares = [s for s in self.squares if s.canonical]
        self.diagrams = [s for s in self.canonical_squares if s.kind == "cyclic"]

    def mirror_key(self, s: DiagramTemplate) -> tuple[int, int, int, int]:
        ht = self.horizontals[s.h_top].opposite
        hb = self.horizontals[s.h_bot].opposite
        return (ht, s.e_right, s.e_left, hb)

    def square_usum(self, s: DiagramTemplate) -> AlgebraicNumber:
        """Base coefficient of u(e_left) + u(h_bot) at the lambda^(n-2) scale."""
        return self.verticals[s.e_left].coeff + self.lam * self.horizontals[s.h_bot].coeff

    def _is_canonical(self, s: DiagramTemplate, usum_sign: dict) -> bool:
        """usum_sign: key -> square_usum sign of every square that is not its
        own mirror (a usum depends only on the key)."""
        mk = self.mirror_key(s)
        if mk == s.key():
            return True
        sgn = usum_sign[s.key()]
        msgn = usum_sign[mk]
        if sgn < 0 and msgn >= 0:
            return True
        if msgn < 0 and sgn >= 0:
            return False
        return s.key() < mk

    def cyclic_diagrams(self) -> list[DiagramTemplate]:
        return list(self.diagrams)

    def pair_extremes(self):
        from .paths import pair_extremes

        if self._pairing is None:
            self._pairing = pair_extremes(self)
        return self._pairing


def build_diagram(source: CollaredSubstitution | Substitution) -> BratteliDiagram:
    if isinstance(source, Substitution):
        source = collared_substitution(source)
    return BratteliDiagram(source)


def build_vertical(csub: CollaredSubstitution) -> list[VerticalTemplate]:
    """One template per occurrence of a letter in a rule image.

    Base-scale layout: the generation-n supertile of w spans
    lambda * len(w) with its subtiles at generation-(n-1) sizes; the
    coefficient is supertile center minus subtile center (u(e) = -a).
    """
    f = csub.base.field
    lam = f.lam()
    half = Fraction(1, 2)
    out = []
    for w, rule in sorted(csub.collared_rules.items()):
        total = lam * csub.length_of(w)
        layout_sum = f.zero
        for u in rule:
            layout_sum = layout_sum + csub.length_of(u)
        assert (layout_sum - total).is_zero(), "eigen-equation violated in layout"
        cum = total.scale(-half)
        for pos, u in enumerate(rule):
            center = cum + csub.length_of(u).scale(half)
            out.append(
                VerticalTemplate(index=len(out), src=u, rng=w, pos=pos, coeff=-center)
            )
            cum = cum + csub.length_of(u)
    return out


def build_horizontal(csub: CollaredSubstitution) -> list[HorizontalTemplate]:
    """Directed adjacency templates plus one trivial loop per vertex.

    (t, t') is adjacent (t immediately left of t') when right(t) = core(t'),
    left(t') = core(t), and the projected 4-word is legal; the template for
    the ordered pair carries +((len t + len t')/2), its opposite the
    negation.
    """
    base = csub.base
    f = base.field
    legal4 = legal_words(base, 4)
    letters = csub.collared_alphabet
    out: list[HorizontalTemplate] = []

    def emit(src, rng, coeff, trivial, opposite):
        out.append(
            HorizontalTemplate(
                index=len(out), src=src, rng=rng, coeff=coeff, trivial=trivial, opposite=opposite
            )
        )

    for t in letters:
        for u in letters:
            if t.right != u.core or u.left != t.core:
                continue
            if (t.left, t.core, u.core, u.right) not in legal4:
                continue
            d = (base.lengths[t.core] + base.lengths[u.core]) * f.rational("1/2")
            i = len(out)
            emit(t.index, u.index, d, False, i + 1)
            emit(u.index, t.index, -d, False, i)
    for t in letters:
        emit(t.index, t.index, f.zero, True, len(out))
    return out


def enumerate_squares(diagram: BratteliDiagram) -> list[DiagramTemplate]:
    """Exhaustive scan for incident quadruples with exactly zero residual.

    The residual is tested in its multiplied form,
    lambda * c(h_bot) - (c(h_top) + c(e_right) - c(e_left)), which is zero
    at lambda exactly when the residual divided by lambda is (lambda > 1),
    so no inverse is taken; lambda * c(h_bot) is formed once per horizontal.
    """
    lam_bot = [diagram.lam * h.coeff for h in diagram.horizontals]
    out = []
    for ht in diagram.horizontals:
        for el in diagram.out_edges[ht.src]:
            top_left = ht.coeff - el.coeff
            for er in diagram.out_edges[ht.rng]:
                target = top_left + er.coeff
                matches = [
                    hb
                    for hb in diagram.h_by_ends.get((el.rng, er.rng), [])
                    if (lam_bot[hb.index] - target).is_zero()
                ]
                assert len(matches) <= 1
                for hb in matches:
                    kind = "af" if (ht.trivial and hb.trivial) else "nontrivial"
                    out.append(
                        DiagramTemplate(
                            h_top=ht.index,
                            e_left=el.index,
                            e_right=er.index,
                            h_bot=hb.index,
                            kind=kind,
                        )
                    )
    return out


def _recurrent_nodes(arcs: dict) -> set:
    """Nodes of a digraph lying on at least one cycle (Tarjan SCCs)."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = [0]
    recurrent: set = set()

    def strongconnect(v):
        work = [(v, iter(arcs[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(arcs[w])))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    recurrent.update(comp)
                elif comp and comp[0] in arcs[comp[0]]:
                    recurrent.add(comp[0])

    for v in arcs:
        if v not in index:
            strongconnect(v)
    return recurrent


def diagram_chains(diagram: BratteliDiagram):
    """Composability digraph over the canonical commutative diagrams and all
    of its simple cycles (deduplicated up to rotation)."""
    nodes = diagram.diagrams
    arcs = {
        i: [j for j, t in enumerate(nodes) if t.h_top == s.h_bot]
        for i, s in enumerate(nodes)
    }
    cycles = []
    seen = set()

    def dfs(start, node, path, visited):
        for nxt in arcs[node]:
            if nxt == start:
                rot = _min_rotation(tuple(path))
                if rot not in seen:
                    seen.add(rot)
                    cycles.append([nodes[i] for i in rot])
            elif nxt > start and nxt not in visited:
                dfs(start, nxt, path + [nxt], visited | {nxt})

    for s in range(len(nodes)):
        dfs(s, s, [s], {s})
    return arcs, cycles


def _min_rotation(t: tuple) -> tuple:
    return min(t[i:] + t[:i] for i in range(len(t)))


def hypothesis_check(diagram: BratteliDiagram) -> int | None:
    """Every vertex must lie on two distinct infinite paths.

    Sufficient exact check: each vertex is reachable from the root (every
    vertex has an incoming edge at every generation) and the forward
    template graph from each vertex reaches a vertex with >= 2 outgoing
    verticals.  Returns a violating vertex index, or None.
    """
    n = len(diagram.vertices)
    for v in range(n):
        if not diagram.in_edges[v] or not diagram.out_edges[v]:
            return v
        seen = {v}
        frontier = [v]
        ok = False
        while frontier and not ok:
            nxt = []
            for w in frontier:
                if len(diagram.out_edges[w]) >= 2:
                    ok = True
                    break
                for e in diagram.out_edges[w]:
                    if e.rng not in seen:
                        seen.add(e.rng)
                        nxt.append(e.rng)
            frontier = nxt
        if not ok:
            return v
    return None


# -- exports ---------------------------------------------------------------------


def export_dot(diagram: BratteliDiagram, depth: int) -> str:
    """DOT digraph with `depth` generations unrolled.

    Vertical edges are solid and carry the exact label as an L-polynomial
    scaled by the generation law; horizontal edges are dashed, drawn within
    each rank (trivial loops omitted).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lines = ["digraph bratteli {", "  rankdir=TB;", '  root [shape=point label=""];']
    names = diagram.vertices

    def node(v, gen):
        return f'"{names[v]}_{gen}"'

    for gen in range(1, depth + 1):
        lines.append(f"  {{ rank=same; " + " ".join(node(v, gen) for v in range(len(names))) + " }")
    for v in range(len(names)):
        lines.append(f'  root -> {node(v, 1)} [label="0"];')
    for gen in range(2, depth + 1):
        for e in diagram.verticals:
            label = _scaled_label(e.coeff, gen - 2)
            lines.append(f"  {node(e.src, gen - 1)} -> {node(e.rng, gen)} [label=\"{label}\"];")
    for gen in range(1, depth + 1):
        for h in diagram.horizontals:
            if h.trivial:
                continue
            label = _scaled_label(h.coeff, gen - 1)
            lines.append(
                f"  {node(h.src, gen)} -> {node(h.rng, gen)} "
                f'[style=dashed constraint=false label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _scaled_label(coeff: AlgebraicNumber, exponent: int) -> str:
    body = coeff.render()
    if exponent == 0:
        return body
    if " " in body:
        body = f"({body})"
    return f"{body}*L^{exponent}" if exponent != 1 else f"{body}*L"


def export_json(diagram: BratteliDiagram) -> str:
    csub = diagram.csub
    base = csub.base
    scan_order = {cl.triple(): cl.name for cl in csub.collared_alphabet}
    payload = {
        "spec": {
            "letters": [a.name for a in base.alphabet],
            "rules": {a.name: [base.alphabet[y].name for y in base.rules[a.id]] for a in base.alphabet},
            # collar-names are consumed in deterministic scan order
            "collar-names": [scan_order[t] for t in sorted(scan_order)],
        },
        "modulus": [str(c) for c in base.field.modulus],
        "vertices": diagram.vertices,
        "verticals": [
            {
                "src": diagram.vertices[e.src],
                "rng": diagram.vertices[e.rng],
                "pos": e.pos,
                "coeff": e.coeff.render(),
            }
            for e in diagram.verticals
        ],
        "horizontals": [
            {
                "src": diagram.vertices[h.src],
                "rng": diagram.vertices[h.rng],
                "coeff": h.coeff.render(),
                "trivial": h.trivial,
            }
            for h in diagram.horizontals
        ],
        "diagrams": [
            {
                "h_top": s.h_top,
                "e_left": s.e_left,
                "e_right": s.e_right,
                "h_bot": s.h_bot,
                "kind": s.kind,
            }
            for s in diagram.canonical_squares
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def diagram_from_json(text: str) -> BratteliDiagram:
    """Rebuild a diagram from its JSON export and verify the template lists
    round-trip identically."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad diagram JSON: {exc}") from exc
    spec = payload["spec"]
    lines = ["letters: " + " ".join(spec["letters"])]
    for name in spec["letters"]:
        lines.append(f"rule {name}: " + " ".join(spec["rules"][name]))
    lines.append("collar-names: " + " ".join(spec["collar-names"]))
    sub = parse_spec("\n".join(lines), check_aperiodicity=False)
    diagram = build_diagram(sub)
    rebuilt = json.loads(export_json(diagram))
    for key in ("vertices", "verticals", "horizontals", "diagrams"):
        if rebuilt[key] != payload[key]:
            raise ParseError(f"diagram JSON does not round-trip on {key!r}")
    return diagram
