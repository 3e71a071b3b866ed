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

from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, pairwise
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
from .exactnum import AlgebraicNumber, ModulusField, field_from_charpoly

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
        primitivity_index(self.abelianization)  # raises NotPrimitive
        charpoly, self.adjugate = rp.charpoly(self.abelianization)
        self.field: ModulusField = field_from_charpoly(charpoly)
        self.lengths, self.layouts, self.length_vectors = perron_lengths(self)

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


def primitivity_index(matrix: list[list[int]]) -> int:
    """Smallest k with M^k strictly positive, searched up to the Wielandt
    bound (n-1)^2 + 1."""
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
    raise NotPrimitive(f"no strictly positive power up to the Wielandt bound {bound}")


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
    i, are integer vectors over D; the element vertical[i], supertile center
    minus tile i's, strictly decreases, by (l_i + l_(i+1))/2 from i to i + 1.
    split counts the tiles whose center lies at or left of the supertile's:
    the i with vertical[i] >= 0.

    One pass of prefix sums ends (ends[0] = 0, ends[i+1] = ends[i] + l_i)
    gives left[i] = ends[i], right[i] = ends[-1] - ends[i+1] and vertical[i] =
    (lambda l(x) - ends[i] - ends[i+1])/2, as integer vectors over D (2D);
    `split` is bisected on sign(): at most ceil(log2(|sigma(x)| + 1)) signs."""

    __slots__ = ("split", "left", "right", "vertical")

    def __init__(self, split: int, left: tuple, right: tuple, vertical: tuple):
        self._fill(split, left, right, vertical)


def perron_lengths(sub: Substitution) -> tuple[dict[int, AlgebraicNumber], dict[int, LetterLayout], tuple[int, list]]:
    """Exact tile lengths, sum_y M[x][y] l(y) = lambda l(x) with l(0) = 1,
    the layout of each rule image, and (D, [L_x]): the lengths as integer
    vectors over one denominator, l(x) = L_x / D.

    (lambda I - M) adj(lambda I - M) = det(lambda I - M) I = 0, so every
    column of the adjugate is a right eigenvector; its entries are integer
    polynomials in lambda read off `sub.adjugate`.  For primitive M the
    adjugate at the Perron root is entrywise positive (Perron-Frobenius), so
    column 0 divided by its first entry gives the lengths with one inverse,
    as integer vectors over one denominator D (`ModulusField.ratios`).  All
    equations are re-checked afterwards, a nonzero residual vector by the
    exact zero test, and positivity is asserted.

    The check of letter x forms the prefix sums and the span lambda l(x)
    of its layout, so each layout is built and checked once per base letter
    (`LetterLayout`), in integer-vector sums: no element arithmetic.
    """
    f = sub.field
    n = len(sub.alphabet)
    b = sub.adjugate
    try:
        den, vecs, spans = f.ratios([[b[n - 1 - j][x][0] for j in range(n)] for x in range(n)])
    except ZeroDivisionError:
        raise SingularSystem("adjugate column vanishes at lambda; modulus/eigenvalue mismatch") from None
    lengths = {x: f.over(vecs[x], den) if x else f.one for x in range(n)}
    layouts = {}
    for x, span in enumerate(spans):
        images = (vecs[y] for y in sub.rules[x])
        ends = list(accumulate(images, lambda u, v: tuple(map(add, u, v)), initial=(0,) * len(span)))
        total = ends[-1]
        if list(total) != span and not f.over([t - s for t, s in zip(total, span)], den).is_zero():
            raise SingularSystem("eigen-equation residual nonzero")
        vertical = tuple(f.over([s - a - b for s, a, b in zip(span, lo, hi)], 2 * den) for lo, hi in pairwise(ends))
        layouts[x] = LetterLayout(
            split=bisect_left(vertical, True, key=lambda c: c.sign() < 0),  # first negative
            left=tuple(ends[:-1]),
            right=tuple(tuple(t - a for t, a in zip(total, e)) for e in ends[1:]),
            vertical=vertical,
        )
    for y in range(n):
        if lengths[y].sign() != 1:
            raise SingularSystem(f"non-positive tile length for letter {y}")
    return lengths, layouts, (den, vecs)


def legal_words(sub: Substitution, n: int) -> set[Word]:
    """All length-n factors of the subshift.

    The legal 2-words are closed once per substitution and kept on it
    (`Substitution.legal_pairs`), so collaring, the horizontals and the
    screen share them.  The n-words are the n-factors of sigma^k(xy) over
    legal 2-words xy, with k the least power at which every |sigma^k(a)| >=
    n - 1: an n-word inside sigma^k(u) for a long legal u then meets at most
    two consecutive blocks sigma^k(x) sigma^k(y) (Anderson & Putnam, ETDS
    18, 1998).  Such a k exists because a primitive substitution with
    lambda > 1 makes every |sigma^k(a)| grow without bound.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = {a.id: (a.id,) for a in sub.alphabet}
    while min(map(len, blocks.values())) < n - 1:
        blocks = {a: sub.apply(w) for a, w in blocks.items()}
    return {f for x, y in sub.legal_pairs for f in _factors(blocks[x] + blocks[y], n)}


def _factors(w: Word, n: int) -> list[Word]:
    return [w[i : i + n] for i in range(len(w) - n + 1)]


def aperiodicity_screen(sub: Substitution, limit: int = 12) -> int | None:
    """Morse-Hedlund screen: return the first n <= limit with p(n) <= n, or
    None when the screen passes.  A pass is evidence, not a proof.

    `parse_spec` runs it only for integer lambda: a periodic fixed point has
    rational letter frequencies, a rational eigenvector of M for lambda, so
    an irrational lambda is itself a proof of aperiodicity."""
    top = legal_words(sub, limit)
    for n in range(1, limit + 1):
        p_n = len({w[:n] for w in top})  # a legal word of a minimal subshift extends to the right
        if p_n <= n:
            return n
    return None


def collar_alphabet(sub: Substitution) -> list[CollaredLetter]:
    """One collared letter per legal 3-word.

    Deterministic naming: scan legal_words(3) sorted lexicographically by
    base-letter ids and assign a, b, c, ...; a `collar-names` line in the
    spec file overrides the names in that same order.
    """
    triples = sorted(legal_words(sub, 3))
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
        self._by_triple = {cl.triple(): cl.index for cl in self.collared_alphabet}
        self.collared_rules: dict[int, tuple[int, ...]] = {}
        for cl in self.collared_alphabet:
            self.collared_rules[cl.index] = self._expand(cl)
        self.collared_abelianization = abelianization(self.collared_rules, len(self.collared_alphabet))

    def _expand(self, cl: CollaredLetter) -> tuple[int, ...]:
        base = self.base
        w = base.rules[cl.left] + base.rules[cl.core] + base.rules[cl.right]
        start = len(base.rules[cl.left])
        out = []
        for i in range(len(base.rules[cl.core])):
            j = start + i
            triple = (w[j - 1], w[j], w[j + 1])
            if triple not in self._by_triple:
                raise IllegalCollarProduced(
                    f"expansion of {cl.name} produced illegal 3-word "
                    f"{base.word_name(triple)}"
                )
            out.append(self._by_triple[triple])
        return tuple(out)

    def name_of(self, index: int) -> str:
        return self.collared_alphabet[index].name

    def core_of(self, index: int) -> int:
        return self.collared_alphabet[index].core

    def rule_name(self, index: int) -> str:
        return "".join(self.name_of(y) for y in self.collared_rules[index])


def collared_substitution(sub: Substitution) -> CollaredSubstitution:
    return CollaredSubstitution(sub)


# -- spec file grammar ----------------------------------------------------------
#
#   letters: 0 1
#   rule 0: 0 1
#   rule 1: 0
#   collar-names: a d b c        # optional, order = deterministic collar order
#
# UTF-8 (one leading byte-order mark is skipped), line oriented, '#' starts a comment.


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
        key, _, value = line.partition(":")
        key = key.strip()
        tokens = value.split()
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
            for tok in tokens:
                if tok not in by_name:
                    col = line.index(tok) + 1
                    raise UnknownLetter(f"unknown letter {tok!r}", line=lineno, column=col)
                img.append(by_name[tok])
            rules[lid] = tuple(img)
            rule_lines[lid] = lineno
        elif key == "collar-names":
            if collar_names is not None:
                raise ParseError("duplicate collar-names line", line=lineno)
            for tok in tokens:
                if any(ch in tok for ch in ";()|#>"):  # a vertex name in path literals
                    col = line.index(tok, line.index(":")) + 1
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
