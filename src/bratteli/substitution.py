"""One-dimensional primitive substitutions and their collared alphabets.

A substitution replaces each letter by a nonempty word; tiles are closed
intervals with punctures at their centers, and the exact tile lengths are
the entries of the Perron eigenvector of the abelianization matrix M,
normalized so the first letter has length 1: column 0 of the integer
adjugate adj(lambda I - M), which Perron-Frobenius makes positive for
primitive M.  Lengths and layouts are summed as integer vectors over one
denominator.  A collared letter decorates a letter with its two neighbors
(the legal 3-words), which is what makes the diagram construction force
its border.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, pairwise
from math import gcd
from operator import add

from . import ratpoly as rp
from ._record import Frozen
from .errors import (
    EmptyRule,
    IllegalCollarProduced,
    NotPrimitive,
    ParseError,
    PeriodicDetected,
    SingularSystem,
    UnknownLetter,
)
from .exactnum import AlgebraicNumber, ModulusField

Word = tuple[int, ...]


class Letter(Frozen):
    __slots__ = ("id", "name")

    def __init__(self, id: int, name: str):
        self._fill(id, name)


class CollaredLetter(Frozen):
    """A letter together with its left and right neighbor (a legal 3-word)."""

    __slots__ = ("index", "left", "core", "right", "name")

    def __init__(self, index: int, left: int, core: int, right: int, name: str):
        self._fill(index, left, core, right, name)

    def triple(self) -> tuple[int, int, int]:
        return (self.left, self.core, self.right)


class Substitution:
    """A primitive substitution, its field, layouts and `length_vectors`; the
    lengths as elements, `lengths`, are formed on first read: a build reads none."""

    def __init__(
        self,
        alphabet: list[Letter],
        rules: dict[int, Word],
        collar_names: list[str] | None = None,
    ):
        self.alphabet = tuple(alphabet)
        self.rules = dict(rules)
        self.collar_names = collar_names
        n = len(self.alphabet)
        for a in self.alphabet:
            if a.id not in self.rules:
                raise ParseError(f"missing rule for letter {a.name!r}")
            if not self.rules[a.id]:
                raise EmptyRule(f"empty rule for letter {a.name!r}")
        self.abelianization = abelianization(self.rules, n)
        primitivity_index(self.abelianization, [a.name for a in self.alphabet])  # raises NotPrimitive
        charpoly, self.adjugate_column = rp.charpoly(self.abelianization)
        self.field: ModulusField = ModulusField(charpoly)
        self.layouts, self.length_vectors = perron_lengths(self)

    @cached_property
    def lengths(self) -> dict[int, AlgebraicNumber]:
        """The tile lengths l(x) = L_x / D, with l(0) = 1."""
        den, vecs = self.length_vectors
        return {x: self.field.over(v, den) if x else self.field.one for x, v in enumerate(vecs)}

    # -- basic word machinery -------------------------------------------------

    @cached_property
    def legal_pairs(self) -> frozenset[Word]:
        """The legal 2-words, formed on first use: the closure, under w -> 2-factors
        of sigma(w), of the 2-factors of the rule images (at most |A|^2 words)."""
        pairs: set[Word] = set()
        todo = [w for a in self.alphabet for w in _factors(self.rules[a.id], 2)]
        while todo:
            w = todo.pop()
            if w not in pairs:
                pairs.add(w)
                todo.extend(_factors(self.apply(w), 2))
        return frozenset(pairs)

    @cached_property
    def legal_quads(self) -> frozenset[Word]:
        """The legal 4-words, formed on first use, for collaring and the horizontals."""
        return frozenset(legal_words(self, 4))

    def apply(self, word: Word) -> Word:
        out: list[int] = []
        for x in word:
            out.extend(self.rules[x])
        return tuple(out)

    def word_name(self, word: Word) -> str:
        return "".join(self.alphabet[x].name for x in word)


def abelianization(rules, n: int) -> list[list[int]]:
    """m[x][y] = occurrences of y in rules[x], for x, y < n."""
    m = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in rules[x]:
            m[x][y] += 1
    return m


def primitivity_index(matrix: list[list[int]], names: list[str] | None = None) -> int:
    """Smallest k with M^k strictly positive, searched up to the Wielandt
    bound (n-1)^2 + 1.  Past it, raises NotPrimitive with its reason, the
    letters named by names (default: their indices)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(c < 0 for row in matrix for c in row):
        raise ValueError("matrix must be nonnegative")
    bound = (n - 1) ** 2 + 1
    # only the zero pattern matters: row i of M^k is kept as a bitmask of
    # its positive entries, and row i of M^(k+1) is the OR of the rows of M
    # that the bits of row i of M^k select
    rows = [sum(1 << j for j, c in enumerate(row) if c) for row in matrix]
    full = (1 << n) - 1
    power = rows
    for k in range(1, bound + 1):
        if all(r == full for r in power):
            return k
        power = [_or_selected(r, rows) for r in power]
    raise _not_primitive(rows, names or [str(i) for i in range(n)])


def _not_primitive(rows: list[int], names: list[str]) -> NotPrimitive:
    """Why no power is positive, read off the rows' bitmasks: the first pair
    (a, b) with b outside a's reachability closure, else the period of the
    strongly connected incidence graph, which is the gcd of its cycle
    lengths and of level(a) + 1 - level(b) over its arcs a -> b, for the
    breadth-first levels from letter 0."""
    n = len(rows)
    reach = rows  # reach[a]: the letters of sigma^k(a) for some k >= 1
    while (wider := [r | _or_selected(r, rows) for r in reach]) != reach:
        reach = wider
    for a, r in enumerate(reach):
        b = next((b for b in range(n) if not r >> b & 1), None)
        if b is not None:
            return NotPrimitive(f"not primitive: letter {names[b]} occurs in no sigma^n({names[a]})", pair=(a, b))
    arcs = [[b for b in range(n) if r >> b & 1] for r in rows]
    level, queue = [0] + [None] * (n - 1), [0]
    for a in queue:  # the queue grows while it is walked: breadth first
        for b in arcs[a]:
            if level[b] is None:
                level[b] = level[a] + 1
                queue.append(b)
    period = gcd(*(level[a] + 1 - level[b] for a in range(n) for b in arcs[a]))
    return NotPrimitive(f"not primitive: the incidence graph has period {period}", period=period)


def _or_selected(mask: int, rows: list[int]) -> int:
    out = 0
    t = 0
    while mask:
        if mask & 1:
            out |= rows[t]
        mask >>= 1
        t += 1
    return out


class LetterLayout(Frozen):
    """sigma(x) laid out at base scale: the supertile of x spans lambda * l(x),
    centered at 0, with the tiles of sigma(x) end to end inside it, over the
    positions i of sigma(x): left[i], right[i], the lengths before and after
    i, are integer vectors over D; vertical[i], supertile center minus tile
    i's, an integer vector over 2D, strictly decreases, by (l_i + l_(i+1))/2
    from i to i + 1.  split counts the tiles whose center lies at or left of
    the supertile's: the i with vertical[i] >= 0.

    One pass of prefix sums ends (ends[0] = 0, ends[i+1] = ends[i] + l_i)
    gives left[i] = ends[i], right[i] = ends[-1] - ends[i+1] over D and
    vertical[i] = lambda l(x) - ends[i] - ends[i+1] over 2D; `split` is
    bisected on the field's sign of the vectors (2D > 0): at most
    ceil(log2(|sigma(x)| + 1)) signs, and no element is formed."""

    __slots__ = ("split", "left", "right", "vertical")

    def __init__(self, split: int, left: tuple, right: tuple, vertical: tuple):
        self._fill(split, left, right, vertical)


def perron_lengths(sub: Substitution) -> tuple[dict[int, LetterLayout], tuple[int, list]]:
    """The layout of each rule image and (D, [L_x]): the exact tile lengths,
    sum_y M[x][y] l(y) = lambda l(x) with l(0) = 1, as integer vectors over
    one denominator, l(x) = L_x / D (as elements: `Substitution.lengths`).

    (lambda I - M) adj(lambda I - M) = det(lambda I - M) I = 0, so every
    column of the adjugate is a right eigenvector.  Column 0, the integer
    polynomials `sub.adjugate_column` that `rp.charpoly` returns, is the one
    read: for primitive M it is entrywise positive at the Perron root
    (Perron-Frobenius), so divided by its first entry it gives the lengths
    with one inverse, as integer vectors over one denominator D
    (`ModulusField.ratios`).  All equations are re-checked afterwards, and
    each residual vector and each L_x is decided by the field's sign ladder
    (`ModulusField._sign`): a residual must be zero, a length positive.

    The check of letter x forms the prefix sums and the span lambda l(x)
    of its layout, so each layout is built and checked once per base letter
    (`LetterLayout`), in integer-vector sums: no element is formed.
    """
    f = sub.field
    try:
        den, vecs, spans = f.ratios(sub.adjugate_column)
    except ZeroDivisionError:
        raise SingularSystem("adjugate column vanishes at lambda; modulus/eigenvalue mismatch") from None
    layouts = {}
    for x, span in enumerate(spans):
        images = (vecs[y] for y in sub.rules[x])
        ends = list(accumulate(images, lambda u, v: tuple(map(add, u, v)), initial=(0,) * len(span)))
        total = ends[-1]
        if f._sign([t - s for t, s in zip(total, span)]):
            raise SingularSystem("eigen-equation residual nonzero")
        vertical = tuple(tuple(s - a - b for s, a, b in zip(span, lo, hi)) for lo, hi in pairwise(ends))
        layouts[x] = LetterLayout(
            split=bisect_left(vertical, True, key=lambda v: f._sign(v) < 0),  # first negative
            left=tuple(ends[:-1]),
            right=tuple(tuple(t - a for t, a in zip(total, e)) for e in ends[1:]),
            vertical=vertical,
        )
    for y, vec in enumerate(vecs):  # l(y) = L_y / D with D > 0
        if f._sign(vec) != 1:
            raise SingularSystem(f"non-positive tile length for letter {y}")
    return layouts, (den, vecs)


def legal_words(sub: Substitution, n: int) -> set[Word]:
    """All length-n factors of the subshift.

    The legal 2-words (`Substitution.legal_pairs`) and 4-words (`legal_quads`,
    which collaring and the horizontals share) are formed once and kept.
    The n-words are the n-factors of sigma^k(xy) over legal 2-words xy, with
    k the least power at which every |sigma^k(a)| >= n - 1: an n-word inside
    sigma^k(u) for a long legal u then meets at most two consecutive blocks
    sigma^k(x) sigma^k(y) (Anderson & Putnam, ETDS 18, 1998).  Such a k
    exists because a primitive substitution with lambda > 1 makes every
    |sigma^k(a)| grow without bound.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = {a.id: (a.id,) for a in sub.alphabet}
    while min(map(len, blocks.values())) < n - 1:
        blocks = {a: sub.apply(w) for a, w in blocks.items()}
    return {f for x, y in sub.legal_pairs for f in _factors(blocks[x] + blocks[y], n)}


def _factors(w: Word, n: int) -> list[Word]:
    return [w[i : i + n] for i in range(len(w) - n + 1)]


_SCREEN_LIMIT = 12  # the longest legal words the aperiodicity screen counts


def aperiodicity_screen(sub: Substitution) -> int | None:
    """Morse-Hedlund screen: return the first n <= _SCREEN_LIMIT with
    p(n) <= n, or None when the screen passes.  A pass is evidence, not a proof.

    `parse_spec` runs it only for integer lambda: a periodic fixed point has
    rational letter frequencies, a rational eigenvector of M for lambda, so
    an irrational lambda is itself a proof of aperiodicity."""
    top = legal_words(sub, _SCREEN_LIMIT)
    for n in range(1, _SCREEN_LIMIT + 1):
        p_n = len({w[:n] for w in top})  # a legal word of a minimal subshift extends to the right
        if p_n <= n:
            return n
    return None


def collar_alphabet(sub: Substitution) -> list[CollaredLetter]:
    """One collared letter per legal 3-word, the 3-prefixes of the legal
    4-words: a legal word extends to the right, as the screen relies on.

    Deterministic naming: scan the legal 3-words sorted lexicographically by
    base-letter ids and assign a, b, c, ...; a `collar-names` line in the
    spec file overrides the names in that same order.
    """
    triples = sorted({w[:3] for w in sub.legal_quads})
    names = sub.collar_names
    if names is not None and len(names) != len(triples):
        raise ParseError(
            f"collar-names lists {len(names)} names but there are {len(triples)} collared letters"
        )
    named = []
    for i, (l, c, r) in enumerate(triples):
        name = names[i] if names is not None else _default_name(i)
        named.append((name, l, c, r))
    seen = set()
    for name, *_ in named:
        if name in seen:
            raise ParseError(f"duplicate collared letter name {name!r}")
        seen.add(name)
    named.sort(key=lambda t: t[0])
    return [
        CollaredLetter(index=i, left=l, core=c, right=r, name=name)
        for i, (name, l, c, r) in enumerate(named)
    ]


def _default_name(i: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if i < len(letters):
        return letters[i]
    return f"{letters[i % 26]}{i // 26}"


class CollaredSubstitution:
    """The substitution induced on collared letters.

    For a collared letter (l, x, r), expand w = rules(l) rules(x) rules(r);
    the i-th letter of rules(x) picks up the previous and next letter of w
    as its new contexts.  Every triple produced this way must already be a
    legal 3-word, otherwise the input was not FLC-consistent.
    """

    def __init__(self, base: Substitution):
        self.base = base
        self.collared_alphabet = collar_alphabet(base)
        self.by_triple = {cl.triple(): cl.index for cl in self.collared_alphabet}
        self.collared_rules: dict[int, tuple[int, ...]] = {}
        for cl in self.collared_alphabet:
            self.collared_rules[cl.index] = self._expand(cl)

    def _expand(self, cl: CollaredLetter) -> tuple[int, ...]:
        base = self.base
        w = base.rules[cl.left] + base.rules[cl.core] + base.rules[cl.right]
        start = len(base.rules[cl.left])
        out = []
        for i in range(len(base.rules[cl.core])):
            j = start + i
            triple = (w[j - 1], w[j], w[j + 1])
            if triple not in self.by_triple:
                raise IllegalCollarProduced(
                    f"expansion of {cl.name} produced illegal 3-word "
                    f"{base.word_name(triple)}"
                )
            out.append(self.by_triple[triple])
        return tuple(out)

    def name_of(self, index: int) -> str:
        return self.collared_alphabet[index].name

    def core_of(self, index: int) -> int:
        return self.collared_alphabet[index].core

    def rule_name(self, index: int) -> str:
        return "".join(self.name_of(y) for y in self.collared_rules[index])


# -- spec file grammar ----------------------------------------------------------
#
#   letters: 0 1
#   rule 0: 0 1
#   rule 1: 0
#   collar-names: a d b c        # optional, order = deterministic collar order
#
# UTF-8 (one leading byte-order mark is skipped), line oriented, '#' starts a comment.
_TOKEN = re.compile(r"\S+")  # a token of a directive's value, as str.split() finds it


def parse_spec(text: str, check_aperiodicity: bool = True) -> Substitution:
    """Parse a spec.  With `check_aperiodicity`, a spec whose Perron root is
    an integer must pass `aperiodicity_screen`; an irrational root already
    proves the fixed point aperiodic, so no screen runs."""
    letters: list[Letter] | None = None
    rules: dict[int, Word] = {}
    rule_lines: dict[int, int] = {}
    collar_names: list[str] | None = None
    by_name: dict[str, int] = {}

    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", line=lineno, column=len(line))
        key = line.partition(":")[0]
        words = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line, len(key) + 1)]  # (token, its column)
        key, tokens = key.strip(), [tok for tok, _ in words]
        if key == "letters":
            if letters is not None:
                raise ParseError("duplicate letters line", line=lineno)
            if not tokens:
                raise ParseError("letters line lists no letters", line=lineno)
            letters = []
            for tok in tokens:
                if tok in by_name:
                    raise ParseError(f"duplicate letter {tok!r}", line=lineno)
                by_name[tok] = len(letters)
                letters.append(Letter(id=len(letters), name=tok))
        elif key.startswith("rule") and key[4:5].isspace():
            if letters is None:
                raise ParseError("rule before letters line", line=lineno)
            name = key[len("rule") :].strip()
            if name not in by_name:
                raise UnknownLetter(f"rule for unknown letter {name!r}", line=lineno)
            lid = by_name[name]
            if lid in rules:
                raise ParseError(f"duplicate rule for letter {name!r}", line=lineno)
            if not tokens:
                raise EmptyRule(f"rule for {name!r} is empty", line=lineno)
            img = []
            for tok, col in words:
                if tok not in by_name:
                    raise UnknownLetter(f"unknown letter {tok!r}", line=lineno, column=col)
                img.append(by_name[tok])
            rules[lid] = tuple(img)
            rule_lines[lid] = lineno
        elif key == "collar-names":
            if collar_names is not None:
                raise ParseError("duplicate collar-names line", line=lineno)
            for tok, col in words:
                if any(ch in tok for ch in ";()|#>"):  # a vertex name in path literals
                    raise ParseError(f"collar name {tok!r} contains a path delimiter (;()|#>)", line=lineno, column=col)
            collar_names = tokens
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno, column=1)

    if letters is None:
        raise ParseError("missing letters line")
    sub = Substitution(letters, rules, collar_names)
    if check_aperiodicity and sub.field.rational_root is not None:
        n = aperiodicity_screen(sub)
        if n is not None:
            raise PeriodicDetected(n, len(legal_words(sub, n)))
    return sub
