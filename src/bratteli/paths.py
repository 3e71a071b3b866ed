"""Finite and eventually periodic paths in the collared diagram.

A path starts with a root edge into its generation-1 vertex (label 0) and
continues with one vertical template per generation.  Because the diagram
is stationary, infinite paths that are eventually periodic are finitely
describable: a preamble of templates (generations 2 .. p+1) followed by a
repeating template cycle.  Every object of the worked examples -- extremal
paths, their pairing, Vershik orbits, the extended-equivalence generators
-- lives in this class.  Both path classes are immutable records, checked
only by their constructors, which refuse the first edge that does not compose,
by generation; two paths are equal iff they have the same diagram object and
the same normal form.

The pairing psi composes the recurrent commutative diagrams down the
extremal columns: each cycle of the diagram's map down (forward h_bot to
the h_top of its boundary square) pairs its left (maximal) column with its
right (minimal) one.  Extremal paths and psi share one walk to a repeated
state.

Tail (AF) equivalence of two eventually periodic paths is decided exactly
from their normal forms.  The extended relation is decided by running a
synchronized automaton whose states are horizontal templates linking the
two paths' vertices and whose transitions are the zero-residual commutative
squares.  The square table makes this automaton deterministic and
injective, so the two paths are equivalent iff the walk from one of the
horizontals that link them at generation p0 = max(|pre_x|, |pre_y|) + 2
returns to that seed.  One walker, `_rb_walk`, yields the surviving seed's
chain, which `rb_equiv` keeps, and where each other walk dies, the CLI's
reason for a "no" (`_rb_refutation`).  The walk reads only the two tails
aligned at p0, so each diagram walks each aligned tail pair once and keeps
its verdict.  psi is formed on demand, and the diagram's two memos, this
one and the tail-key pairs of `rb_via_generators`, hold ints, never paths:
a dropped diagram is freed by reference counting.

Public beyond the CLI: `rb_base_member`, the base sets of R_B that the
paper's criteria test, and `rb_via_generators` and `enumerate_paths`, the
benchmark's oracle and path sampler.
"""

from __future__ import annotations

from math import lcm

from ._record import Frozen, Record
from .diagram import BratteliDiagram, VerticalTemplate, _cycles
from .errors import IncompatibleHorizontal, ParseError, PatchTooLarge, UnpairedExtreme
from .exactnum import AlgebraicNumber


# -- finite prefixes --------------------------------------------------------------


class PathPrefix(Frozen):
    """Root vertex plus vertical templates at generations 2 .. length: an
    immutable record, equal to another iff both lie on the same diagram
    object with the same root and edges."""

    __slots__ = ("diagram", "root", "edges")

    def __init__(self, diagram: BratteliDiagram, root: int, edges):
        edges = tuple(int(e) for e in edges)
        _composed_range(diagram, root, edges)
        self._fill(diagram, root, edges)

    @property
    def length(self) -> int:
        return len(self.edges) + 1

    def top_vertex(self) -> int:
        return self.vertex_at(self.length)

    def vertex_at(self, n: int) -> int:
        if n == 1:
            return self.root
        return self.diagram.verticals[self.edges[n - 2]].rng

    def template_at(self, n: int) -> VerticalTemplate:
        return self.diagram.verticals[self.edges[n - 2]]

    def __repr__(self):
        return f"PathPrefix({render_path(self)})"


def _composed_range(diagram: BratteliDiagram, root: int, edges) -> int:
    """Range vertex of the edges laid upward from root; raises ParseError
    for a root or edge index out of range, or at the first edge that does
    not start where the previous one ends."""
    if not 0 <= root < len(diagram.vertices):
        raise ParseError(f"root index {root} is not a vertex (0 .. {len(diagram.vertices) - 1})")
    v, n = root, len(diagram.verticals)
    for i, ei in enumerate(edges):
        if not 0 <= ei < n:
            raise ParseError(f"edge index {ei} at generation {i + 2} is not a vertical edge (0 .. {n - 1})")
        e = diagram.verticals[ei]
        if e.src != v:
            raise ParseError(
                f"edge {diagram.edge_label(e)} at generation {i + 2} "
                f"does not start at {diagram.vertices[v]}"
            )
        v = e.rng
    return v


def u_of_prefix(gamma: PathPrefix) -> AlgebraicNumber:
    """Exact translation label: sum of c_e * lambda^(i-2) over the prefix
    (the root edge contributes 0)."""
    d = gamma.diagram
    total = d.field.zero
    power = d.field.one
    for ei in gamma.edges:
        total = total + d.verticals[ei].coeff * power
        power = power * d.lam
    return total


# -- eventually periodic paths ------------------------------------------------------


class EventuallyPeriodicPath(Frozen):
    """Preamble (generations 2 .. p+1) followed by a repeating cycle: an
    immutable record.

    The stored form is normalized: the cycle is primitive and the preamble
    carries no edge that could be absorbed into the cycle, so two objects
    describe the same infinite path iff they lie on the same diagram object
    and their fields are equal.
    """

    __slots__ = ("diagram", "root", "pre", "cycle")

    def __init__(self, diagram: BratteliDiagram, root: int, pre, cycle):
        pre = [int(e) for e in pre]
        cycle = [int(e) for e in cycle]
        if not cycle:
            raise ParseError("eventually periodic path needs a nonempty cycle")
        first, last = cycle[0], cycle[-1]  # as written, for the message
        pre, cycle = map(tuple, _normalize(pre, cycle))
        # composability across preamble, into the cycle, and around it
        if _composed_range(diagram, root, pre + cycle) != diagram.verticals[cycle[0]].src:
            ends = (diagram.vertices[v] for v in (diagram.verticals[last].rng, diagram.verticals[first].src))
            raise ParseError("cycle does not close up: it ends at {}, but its first edge starts at {}".format(*ends))
        self._fill(diagram, root, pre, cycle)

    def key(self):
        return (self.root, self.pre, self.cycle)

    def edge_index_at(self, n: int) -> int:
        i = n - 2
        if i < len(self.pre):
            return self.pre[i]
        return self.cycle[(i - len(self.pre)) % len(self.cycle)]

    def template_at(self, n: int) -> VerticalTemplate:
        return self.diagram.verticals[self.edge_index_at(n)]

    def vertex_at(self, n: int) -> int:
        if n == 1:
            return self.root
        return self.template_at(n).rng

    def prefix(self, n: int) -> PathPrefix:
        if n < 1:
            raise ValueError("depth must be >= 1")
        return PathPrefix(
            self.diagram, self.root, [self.edge_index_at(k) for k in range(2, n + 1)]
        )

    def tail_key(self):
        """Tail-equivalence invariant: two paths are tail equivalent iff
        their tail keys agree (primitive cycle up to rotation, plus the
        generation phase at which the minimal rotation starts)."""
        L = len(self.cycle)
        rots = [self.cycle[i:] + self.cycle[:i] for i in range(L)]
        best = min(rots)
        shift = rots.index(best)
        phase = (len(self.pre) + 2 + shift) % L
        return (best, phase)

    def is_maximal(self) -> bool:
        d = self.diagram
        return all(e == d.max_edge_into(d.verticals[e].rng).index for e in self.pre + self.cycle)

    def __repr__(self):
        return f"EventuallyPeriodicPath({render_path(self)})"


def _normalize(pre: list[int], cycle: list[int]) -> tuple[list[int], list[int]]:
    L = len(cycle)
    for d in range(1, L + 1):
        if L % d == 0 and cycle == cycle[:d] * (L // d):
            cycle = cycle[:d]
            break
    while pre and pre[-1] == cycle[-1]:
        pre.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    return pre, cycle


def af_equiv(x: EventuallyPeriodicPath, y: EventuallyPeriodicPath) -> bool:
    """Tail equivalence, decided exactly on the normal forms."""
    _same_diagram(x, y)
    return x.tail_key() == y.tail_key()


def _same_diagram(x, y):
    if x.diagram is not y.diagram:
        raise ParseError("paths live on different diagrams")


# -- decoding -----------------------------------------------------------------------


class PatchTile(Frozen):
    __slots__ = ("name", "base", "collared", "left", "right")

    def __init__(self, name: str, base: str, collared: bool, left: AlgebraicNumber, right: AlgebraicNumber):
        self._fill(name, base, collared, left, right)


class DecodedPatch(Record):
    """A list of PatchTile, puncture_index the punctured one's; offset u(gamma), the center of the
    core supertile, and left and right, the span of the whole patch, are elements."""

    __slots__ = ("tiles", "puncture_index", "offset", "top_vertex", "depth", "left", "right")

    def __init__(self, tiles, puncture_index, offset, top_vertex, depth, left, right):
        self.tiles, self.puncture_index, self.offset, self.top_vertex = tiles, puncture_index, offset, top_vertex
        self.depth, self.left, self.right = depth, left, right

    def word(self) -> str:
        return "".join(t.name for t in self.tiles)

    def word_marked(self) -> str:
        out = []
        for i, t in enumerate(self.tiles):
            out.append(t.name + ("̇" if i == self.puncture_index else ""))
        return "".join(out)


# Most tiles decode and decode_collared build.  The tile count grows like
# lambda^depth (fibonacci at depth 40 would be 1.7e8 tiles), so it is computed
# from the abelianizations first and a larger patch is refused before any
# tile is allocated.
MAX_DECODE_TILES = 10**6

# Where the count stops.  Primitivity with lambda > 1 makes every expansion
# grow, at least doubling every primitivity-index steps, so the count passes
# this within a number of steps that does not depend on the depth.
TILE_COUNT_CEILING = 10**12


def _expanded_length(matrix: list[list[int]], letter: int, steps: int) -> int:
    """Length of the steps-fold expansion of a letter, or TILE_COUNT_CEILING
    + 1 once past it; matrix[x][y] counts the letter y in the rule of x."""
    counts = [0] * len(matrix)
    counts[letter] = 1
    for _ in range(steps):
        counts = [sum(c * row[y] for c, row in zip(counts, matrix)) for y in range(len(matrix))]
        if sum(counts) > TILE_COUNT_CEILING:
            break
    return min(sum(counts), TILE_COUNT_CEILING + 1)


def patch_size(path, collared: bool = False, depth: int | None = None) -> int:
    """Number of tiles of decode, or of decode_collared if collared, of the
    path's prefix at depth (default: a PathPrefix's length), computed without
    decoding or building that prefix; TILE_COUNT_CEILING + 1 past the
    ceiling."""
    csub = path.diagram.csub
    depth = path.length if depth is None else depth
    cl = csub.collared_alphabet[path.vertex_at(depth)]
    # a collared letter expands to as many tiles as its core letter does
    m = csub.base.abelianization
    tiles = sum(_expanded_length(m, x, depth - 1) for x in (cl.triple() if collared else (cl.core,)))
    return min(tiles, TILE_COUNT_CEILING + 1)


def refuse_large_patch(path, collared: bool, depth: int) -> None:
    """Raise PatchTooLarge if patch_size(path, collared, depth) is above
    MAX_DECODE_TILES."""
    tiles = patch_size(path, collared, depth)
    if tiles > MAX_DECODE_TILES:
        raise PatchTooLarge(depth, tiles, MAX_DECODE_TILES, TILE_COUNT_CEILING)


def _trace(gamma: PathPrefix) -> tuple[list[int], int]:
    """Expand the top vertex to generation 1, tracking the puncture index
    through block offsets."""
    d = gamma.diagram
    csub = d.csub
    word = [gamma.top_vertex()]
    idx = 0
    for n in range(gamma.length, 1, -1):
        e = gamma.template_at(n)
        assert word[idx] == e.rng
        assert csub.collared_rules[e.rng][e.pos] == e.src
        new_idx = sum(len(csub.collared_rules[w]) for w in word[:idx]) + e.pos
        out: list[int] = []
        for w in word:
            out.extend(csub.collared_rules[w])
        word = out
        idx = new_idx
    return word, idx


def _lay_out(csub, word, collared: bool, start: list[int], left: AlgebraicNumber) -> list[PatchTile]:
    """Tiles of a generation-1 word laid end to end rightward from left, the element
    of the integer vector start over 2D (collared letters of csub if collared, else
    letters of its base); a tile's right is the next one's left."""
    base = csub.base
    den, vecs = base.length_vectors
    tiles = []
    for w in word:
        if collared:
            cl = csub.collared_alphabet[w]
            name, core = cl.name, cl.core
        else:
            name, core = base.alphabet[w].name, w
        start = [s + 2 * c for s, c in zip(start, vecs[core])]  # a running integer sum
        right = base.field.over(start, 2 * den)
        tiles.append(PatchTile(name, base.alphabet[core].name, collared, left, right))
        left = right
    return tiles


def decode(gamma: PathPrefix) -> DecodedPatch:
    """The generation-1 patch carried by a finite path: the full expansion
    of its top vertex, with the puncture tile centered at 0 and the core
    supertile centered at u(gamma).  Raises PatchTooLarge above
    MAX_DECODE_TILES tiles.  The tile ends are sums of the integer length
    vectors over 2D (`Substitution.length_vectors`), the patch's ends u(gamma)
    -/+ lambda^(n-1) l(top)/2 by an integer product; zero tests match the two."""
    refuse_large_patch(gamma, False, gamma.length)
    d = gamma.diagram
    csub = d.csub
    den, vecs = csub.base.length_vectors
    word, idx = _trace(gamma)
    start = [-c for c in vecs[csub.core_of(word[idx])]]  # the patch's left end: the puncture center is 0
    for w in word[:idx]:
        start = [s - 2 * c for s, c in zip(start, vecs[csub.core_of(w)])]
    tiles = _lay_out(csub, word, True, start, d.field.over(start, 2 * den))
    offset = u_of_prefix(gamma)
    top = gamma.top_vertex()
    half = d.field.product(vecs[csub.core_of(top)], [0] * (gamma.length - 1) + [1])  # lambda^(n-1) l(top) / 2, over 2D
    u = d.field.numerators(offset, 2 * den)
    left = d.field.over([a - b for a, b in zip(u, half)], 2 * den)
    right = d.field.over([a + b for a, b in zip(u, half)], 2 * den)
    assert (tiles[0].left - left).is_zero(), "supertile does not sit at u(gamma)"
    assert (tiles[-1].right - right).is_zero()
    return DecodedPatch(tiles, idx, offset, top, gamma.length, left, right)


def decode_collared(gamma: PathPrefix) -> DecodedPatch:
    """Like decode, but expands the whole 3-tile collar of the top vertex; the contexts
    expand through the plain substitution, stay undecorated and are laid out from the
    ends of decode's patch.  Raises PatchTooLarge above MAX_DECODE_TILES tiles."""
    refuse_large_patch(gamma, True, gamma.length)
    csub = gamma.diagram.csub
    base = csub.base
    den, vecs = base.length_vectors
    core = decode(gamma)
    cl = csub.collared_alphabet[gamma.top_vertex()]
    left_word, right_word = (cl.left,), (cl.right,)
    for _ in range(gamma.length - 1):
        left_word, right_word = base.apply(left_word), base.apply(right_word)
    start = base.field.numerators(core.left, 2 * den)
    for w in left_word:
        start = [s - 2 * c for s, c in zip(start, vecs[w])]
    left_tiles = _lay_out(csub, left_word, False, start, base.field.over(start, 2 * den))
    right_tiles = _lay_out(csub, right_word, False, base.field.numerators(core.right, 2 * den), core.right)
    tiles = left_tiles + core.tiles + right_tiles
    idx = len(left_word) + core.puncture_index
    return DecodedPatch(tiles, idx, core.offset, core.top_vertex, gamma.length, tiles[0].left, tiles[-1].right)


# -- extremal paths and the Vershik map ----------------------------------------------


def extremal_paths(diagram: BratteliDiagram):
    """All minimal and all maximal infinite paths.

    The minimal edge into a vertex is the one at position 0 (leftmost
    subtile), the maximal the one at the last position.  All-minimal paths
    are forced onto the cycles of v -> source of the minimal edge into v,
    so there are finitely many and they are purely periodic from the root;
    likewise for maximal paths.
    """
    mins = _extremes(diagram, minimal=True)
    maxs = _extremes(diagram, minimal=False)
    return mins, maxs


def _extremes(diagram: BratteliDiagram, minimal: bool) -> list[EventuallyPeriodicPath]:
    """With f(w) = pick(w).src, v roots an extremal path iff v lies on a
    cycle of f; going up the path runs backward through the cycle from v."""
    pick = diagram.min_edge_into if minimal else diagram.max_edge_into
    cycles = _cycles(range(len(diagram.vertices)), lambda w: pick(w).src)
    orbit = {v: c[k:] + c[:k] for c in cycles for k, v in enumerate(c)}  # v on a cycle -> v, f(v), ...
    return [EventuallyPeriodicPath(diagram, v, [], [pick(u).index for u in reversed(orbit[v])]) for v in sorted(orbit)]


class Pairing(Record):
    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[EventuallyPeriodicPath, EventuallyPeriodicPath]]):  # (max, min)
        self.pairs = pairs

    def psi(self, x: EventuallyPeriodicPath) -> EventuallyPeriodicPath:
        for mx, mn in self.pairs:
            if mx == x:
                return mn
        raise UnpairedExtreme("path is not a known maximal path")


def pair_extremes(diagram: BratteliDiagram) -> Pairing:
    """Pair each maximal path with a minimal path by composing the recurrent
    commutative diagrams down the extremal columns.

    diagram.down(h), for a forward horizontal h, is the top horizontal of
    the square (h_top, max edge into h.src, min edge into h.rng, h): the
    boundary square at h.  Each h on one of diagram.down_cycles is one phase
    of a chain of squares: read upward from h, the left column is a maximal
    path and the right column a minimal one.  Each column is looked up by
    its normal-form key among the extremal paths, so no path is built twice.
    Each call forms a fresh pairing, which the diagram does not keep: the
    diagram's memos hold ints, never paths.
    """
    hs = diagram.horizontals
    max_in, min_in = diagram.max_edge_into, diagram.min_edge_into
    mins, maxs = extremal_paths(diagram)
    min_set = {p.key(): p for p in mins}
    max_set = {p.key(): p for p in maxs}
    pairs: dict = {}

    def key(root, cycle):  # EventuallyPeriodicPath(diagram, root, [], cycle).key()
        return root, (), tuple(_normalize([], cycle)[1])

    for cycle in diagram.down_cycles:
        for i, h in enumerate(cycle):
            column = [hs[g] for g in reversed(cycle[i:] + cycle[:i])]
            mx = key(hs[h].src, [max_in(g.src).index for g in column])
            mn = min_set.get(key(hs[h].rng, [min_in(g.rng).index for g in column]))
            if mx not in max_set or mn is None:
                raise UnpairedExtreme("cycle column is not one of the extremal paths")
            if pairs.setdefault(mx, mn) is not mn:
                raise UnpairedExtreme("maximal path paired twice inconsistently")
    if set(pairs) != set(max_set):
        raise UnpairedExtreme("pairing does not cover every maximal path")
    if {p.key() for p in pairs.values()} != set(min_set):
        raise UnpairedExtreme("pairing does not cover every minimal path")
    return Pairing(pairs=[(max_set[k], pairs[k]) for k in sorted(pairs)])


def vershik_successor(x: EventuallyPeriodicPath) -> EventuallyPeriodicPath:
    """Successor in the left-to-right edge order; the decoded puncture moves
    exactly one tile to the right.  Maximal paths jump through the pairing."""
    d = x.diagram
    if x.is_maximal():
        return pair_extremes(d).psi(x)
    flat = x.pre + x.cycle
    # index in flat of the lowest edge that is not maximal: the changed edge
    i = next(k for k, ei in enumerate(flat) if ei != d.max_edge_into(d.verticals[ei].rng).index)
    e = d.verticals[flat[i]]
    new_e = d.in_edges[e.rng][e.pos + 1]
    refill: list[int] = []
    v = new_e.src
    for _ in range(i):
        me = d.min_edge_into(v)
        refill.append(me.index)
        v = me.src
    refill.reverse()
    root = v
    if i < len(x.pre):
        pre = refill + [new_e.index] + list(x.pre[i + 1 :])
        cycle = list(x.cycle)
    else:
        j = (i - len(x.pre)) % len(x.cycle)
        pre = refill + [new_e.index]
        cycle = list(x.cycle[j + 1 :] + x.cycle[: j + 1])
    return EventuallyPeriodicPath(d, root, pre, cycle)


# -- the extended equivalence relation -------------------------------------------------


class RbWitness(Record):
    """chain: the horizontal template indices for generations n0, n0 + 1, ..., repeated."""

    __slots__ = ("n0", "chain", "translation")

    def __init__(self, n0: int, chain: tuple[int, ...], translation: AlgebraicNumber):
        self.n0, self.chain, self.translation = n0, chain, translation


def rb_equiv(x: EventuallyPeriodicPath, y: EventuallyPeriodicPath) -> RbWitness | None:
    """Decide the extended equivalence of two eventually periodic paths.

    States at generation n are horizontal templates linking the two range
    vertices; a step to generation n+1 exists iff the quadruple with the
    paths' vertical templates is a commutative square.  The state space is
    finite, with phases mod P = lcm of the cycle lengths from p0 =
    max(|pre_x|, |pre_y|) + 2, where both paths are periodic.

    Every witness starts at p0, so the only seeds are the horizontals
    linking x(p0) to y(p0), at phase 0.  Given a witness from any n0, take
    g = p0 + kP >= n0: its horizontal at g links x(g) = x(p0) to y(g) =
    y(p0), and the walk from that seed survives.  A square's h_top is fixed
    by its other three edges (the families in `diagram`), so the step is
    injective as well as deterministic, and a walk that survives closes at
    its seed: the walk is the chain, and n0 = p0.

    At most one seed survives.  Seeds h != h' link the same two vertices,
    with cores A and B, so c(h) and c(h') are two different ones of 0 and
    +-(l_A + l_B)/2.  Two surviving walks would give the pair two witness
    translations that differ by lambda^(p0-1) (c(h) - c(h')) != 0, a
    period of the tiling, which an aperiodic substitution does not have.

    The verdict and the chain depend only on the two tails aligned at p0:
    the seeds are read at p0 and the steps at generations above p0, and all
    of these edges lie in the cycles.  So the walk is memoised on the
    diagram, keyed by the two cycles each rotated to start with its edge at
    p0; the memo holds at most one entry, the chain or None, per distinct
    aligned tail pair queried, and has no eviction and no option.  n0 = p0
    and the translation are formed per pair.
    """
    _same_diagram(x, y)
    d = x.diagram
    p0 = max(len(x.pre), len(y.pre)) + 2
    key = (_aligned_cycle(x, p0), _aligned_cycle(y, p0))
    try:
        chain = d._rb_chains[key]
    except KeyError:
        chain = d._rb_chains[key] = _rb_walk(d, *key)[0]
    if chain is None:
        return None
    a0 = rb_base_translation(x.prefix(p0), y.prefix(p0), chain[0])
    a1 = rb_base_translation(x.prefix(p0 + len(chain)), y.prefix(p0 + len(chain)), chain[0])
    assert (a0 - a1).is_zero(), "translation must be generation independent"
    return RbWitness(n0=p0, chain=chain, translation=-a0)


def _aligned_cycle(x: EventuallyPeriodicPath, n: int) -> tuple[int, ...]:
    """x's cycle rotated to start with its edge at generation n, where x is periodic."""
    r = (n - 2 - len(x.pre)) % len(x.cycle)
    return x.cycle[r:] + x.cycle[:r]


def _rb_walk(d: BratteliDiagram, cx: tuple[int, ...], cy: tuple[int, ...]) -> tuple[tuple[int, ...] | None, list[tuple]]:
    """The automaton of `rb_equiv` on two tails aligned at p0 (cx and cy, the
    cycles rotated to start at generation p0), walked through square_table
    from (phase 0, h) for each seed h linking the ranges of cx[0] and cy[0]:
    the surviving seed's chain or None, and (h, k, (g, e_x, e_y)) for each
    walk that dies at step k, no square having h_top g and edges e_x, e_y."""
    chain, deaths = None, []
    period = lcm(len(cx), len(cy))
    for seed in d.h_by_ends.get((d.verticals[cx[0]].rng, d.verticals[cy[0]].rng), ()):
        seen: dict = {}  # (phase, h) -> step, in walk order
        state = (0, seed.index)
        while state not in seen:
            seen[state] = len(seen)
            phase = (state[0] + 1) % period
            triple = (state[1], cx[phase % len(cx)], cy[phase % len(cy)])
            if (nxt := d.square_table.get(triple)) is None:
                deaths.append((seed.index, len(seen), triple))
                break
            state = (phase, nxt)
        else:
            assert seen[state] == 0, "a surviving walk closes at its seed"
            assert chain is None, "a second surviving seed would give the tiling a period"
            chain = tuple(h for _, h in seen)
    return chain, deaths


def _rb_refutation(x: EventuallyPeriodicPath, y: EventuallyPeriodicPath) -> tuple[int, list[tuple]]:
    """Why rb_equiv(x, y) is None, off its memo: p0 and `_rb_walk`'s deaths,
    each step k read as the generation n = p0 + k: (h, n, (g, e_x, e_y)), the
    walk from seed h dies at n, as no square has h_top g and the paths' edges
    at n.  Each walk dies: there is no chain."""
    p0 = max(len(x.pre), len(y.pre)) + 2
    _, deaths = _rb_walk(x.diagram, _aligned_cycle(x, p0), _aligned_cycle(y, p0))
    return p0, [(seed, p0 + k, triple) for seed, k, triple in deaths]


def rb_via_generators(x: EventuallyPeriodicPath, y: EventuallyPeriodicPath) -> bool:
    """Extended equivalence through the generator presentation: tail
    equivalence, or tail equivalence of the two paths to the two sides of
    one extremal pair.  Tail equivalence is equality of tail keys, so the
    diagram keeps the generators as the set of pairs (tail_key(mx),
    tail_key(psi(mx))), formed on the first call: ints, never paths."""
    _same_diagram(x, y)
    d = x.diagram
    if d._rb_generators is None:
        d._rb_generators = {(mx.tail_key(), mn.tail_key()) for mx, mn in pair_extremes(d).pairs}
    tx, ty = x.tail_key(), y.tail_key()
    return tx == ty or (tx, ty) in d._rb_generators or (ty, tx) in d._rb_generators


def rb_base_translation(gamma: PathPrefix, gamma2: PathPrefix, h_index: int) -> AlgebraicNumber:
    """The translation a = u(gamma) - u(gamma') + u(h) attached to a base
    set of the extended relation; h must link the two range vertices at
    their common generation."""
    _same_diagram(gamma, gamma2)
    d = gamma.diagram
    if gamma.length != gamma2.length:
        raise IncompatibleHorizontal("prefixes must have equal length")
    h = d.horizontals[h_index]
    if h.src != gamma.top_vertex() or h.rng != gamma2.top_vertex():
        raise IncompatibleHorizontal(
            f"horizontal {d.vertices[h.src]}->{d.vertices[h.rng]} does not link "
            f"{d.vertices[gamma.top_vertex()]} to {d.vertices[gamma2.top_vertex()]}"
        )
    n = gamma.length
    return u_of_prefix(gamma) - u_of_prefix(gamma2) + h.coeff * d.lam ** (n - 1)


def rb_base_member(
    x: EventuallyPeriodicPath,
    y: EventuallyPeriodicPath,
    gamma: PathPrefix,
    gamma2: PathPrefix,
    h_index: int,
) -> bool:
    """Membership in the base set attached to (gamma, gamma2, h): x extends
    gamma, y extends gamma2, the pair is equivalent, and its cocycle matches
    the base translation (pairs in the set satisfy T_x = T_y + a_base, i.e.
    a(x, y) = -a_base)."""
    if x.prefix(gamma.length) != gamma or y.prefix(gamma2.length) != gamma2:
        return False
    witness = rb_equiv(x, y)
    if witness is None:
        return False
    a_base = rb_base_translation(gamma, gamma2, h_index)
    return (witness.translation + a_base).is_zero()


# -- path literals ------------------------------------------------------------------
#
#   root=a; ac ca ab            finite prefix
#   root=a; (ac ca)             purely periodic
#   root=a; ab | (bd db)        preamble plus
#   root=a; aa#0 (aa#1)         position disambiguator when multiplicity > 1


def parse_path(diagram: BratteliDiagram, text: str):
    s = text.strip()
    if not s.startswith("root"):
        raise ParseError("path literal must start with 'root=<vertex>;'")
    head, sep, rest = s.partition(";")
    if not sep:
        raise ParseError("path literal must contain ';' after the root")
    key, eq, rootname = head.partition("=")
    if not eq or key.strip() != "root":
        raise ParseError("path literal must start with 'root=<vertex>;'")
    rootname = rootname.strip()
    if rootname not in diagram.vertices:
        raise ParseError(f"unknown root vertex {rootname!r}")
    root = diagram.vertices.index(rootname)
    rest = rest.replace("|", " ")
    pre_part, cycle_part = rest, ""
    if "(" in rest:
        if rest.count("(") != 1 or rest.count(")") != 1 or rest.index("(") > rest.index(")"):
            raise ParseError("path literal has unbalanced cycle parentheses")
        pre_part, after = rest.split("(", 1)
        cycle_part, trailing = after.split(")", 1)
        if trailing.strip():
            raise ParseError("unexpected text after the cycle")
        if not cycle_part.strip():
            raise ParseError("path literal has an empty cycle '()'")
    pre_tokens = pre_part.split()
    # the constructor reports the first edge that does not compose
    edges = [_parse_edge_token(diagram, tok).index for tok in pre_tokens + cycle_part.split()]
    if not cycle_part.strip():
        return PathPrefix(diagram, root, edges)
    return EventuallyPeriodicPath(diagram, root, edges[: len(pre_tokens)], edges[len(pre_tokens) :])


def _parse_edge_token(diagram: BratteliDiagram, tok: str) -> VerticalTemplate:
    pos = None
    name = tok
    if "#" in tok:
        name, _, idx = tok.partition("#")
        if not (idx.isascii() and idx.isdigit()):
            raise ParseError(f"bad position suffix in edge token {tok!r}")
        try:
            pos = int(idx)
        except ValueError as exc:  # a number past int()'s digit limit
            raise ParseError(f"bad position suffix in edge token {tok!r} ({exc})") from exc
    pairs = [tuple(name.split(">", 1))] if ">" in name else diagram.splits(name)
    if len(pairs) != 1:
        raise ParseError(f"cannot split edge token {tok!r} into two vertex names")
    srcname, rngname = pairs[0]
    if srcname not in diagram.vertices or rngname not in diagram.vertices:
        raise ParseError(f"unknown vertex in edge token {tok!r}")
    return diagram.vertical_by_ends(diagram.vertices.index(srcname), diagram.vertices.index(rngname), pos)


def render_path(p) -> str:
    d = p.diagram
    root = d.vertices[p.root]
    if isinstance(p, PathPrefix):
        body = " ".join(d.edge_label(d.verticals[e]) for e in p.edges)
        return f"root={root};" + (f" {body}" if body else "")
    pre = " ".join(d.edge_label(d.verticals[e]) for e in p.pre)
    cyc = " ".join(d.edge_label(d.verticals[e]) for e in p.cycle)
    out = f"root={root};"
    if pre:
        out += f" {pre}"
    return out + f" ({cyc})"


def enumerate_paths(
    diagram: BratteliDiagram, pre_limit: int, cycle_limit: int
) -> list[EventuallyPeriodicPath]:
    """Every eventually periodic path with preamble length <= pre_limit and
    cycle length <= cycle_limit, deduplicated by normal form; pre_limit >= 0
    and cycle_limit >= 1."""
    if pre_limit < 0 or cycle_limit < 1:
        raise ValueError(f"need pre_limit >= 0 and cycle_limit >= 1, got {pre_limit} and {cycle_limit}")
    cycles_from: dict[int, list[list[int]]] = {v: [] for v in range(len(diagram.vertices))}

    def walk(start: int, v: int, edges: list[int]):
        for e in diagram.out_edges[v]:
            if e.rng == start:
                cycles_from[start].append(edges + [e.index])
            if len(edges) + 1 < cycle_limit:
                walk(start, e.rng, edges + [e.index])

    for v in range(len(diagram.vertices)):
        walk(v, v, [])

    seen: dict = {}
    out: list[EventuallyPeriodicPath] = []

    def extend(root: int, v: int, pre: list[int], depth: int):
        for cyc in cycles_from[v]:
            p = EventuallyPeriodicPath(diagram, root, pre, cyc)
            if p.key() not in seen:
                seen[p.key()] = True
                out.append(p)
        if depth == pre_limit:
            return
        for e in diagram.out_edges[v]:
            extend(root, e.rng, pre + [e.index], depth + 1)

    for root in range(len(diagram.vertices)):
        extend(root, root, [], 0)
    return out
