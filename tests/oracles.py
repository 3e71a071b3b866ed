"""Independent oracles used to freeze expected values.

Everything here recomputes results by a different route than the package
(string expansion, matrix powers, interval geometry, windowed tail
comparison) so the tests never assert an implementation against itself.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import ceil, floor, lcm
from typing import Iterator, Sequence

from bratteli import ratpoly as rp
from bratteli.diagram import BratteliDiagram, DiagramTemplate, HorizontalTemplate, VerticalTemplate, build_diagram
from bratteli.errors import SingularSystem
from bratteli.exactnum import AlgebraicNumber
from bratteli.paths import DecodedPatch, EventuallyPeriodicPath, PatchTile, PathPrefix, _trace, u_of_prefix, vershik_successor
from bratteli.ratpoly import Poly, mul, poly
from bratteli.substitution import (
    CollaredLetter,
    CollaredSubstitution,
    LetterLayout,
    Substitution,
    _default_name,
    legal_words,
    parse_spec,
)


# -- word combinatorics ---------------------------------------------------------


def expand_word(rules: dict[str, str], start: str, k: int) -> str:
    w = start
    for _ in range(k):
        w = "".join(rules[c] for c in w)
    return w


def string_factors(s: str, n: int) -> set[str]:
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def screen_by_factors(sub, limit: int = 12) -> int | None:
    """The Morse-Hedlund screen counting p(n) as the n-factors of every
    legal limit-word, not as their n-prefixes."""
    top = legal_words(sub, limit)
    for n in range(1, limit + 1):
        if len({w[i : i + n] for w in top for i in range(limit - n + 1)}) <= n:
            return n
    return None


def legal_words_fixed_point(sub, n: int) -> set:
    """All length-n factors of the subshift.

    Iterates the substitution on every letter and harvests factors until the
    set is unchanged for two consecutive rounds; for a primitive
    substitution these sets are nondecreasing and eventually constant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    words = {(a.id,) for a in sub.alphabet}
    current = {(a.id,) for a in sub.alphabet}
    factors: set = set()
    stable_rounds = 0
    while stable_rounds < 2:
        current = {sub.apply(w) for w in current}
        new_factors = set()
        for w in current:
            for i in range(len(w) - n + 1):
                new_factors.add(w[i : i + n])
        if new_factors <= factors and all(len(w) >= n for w in current):
            stable_rounds += 1
        else:
            stable_rounds = 0
        factors |= new_factors
    return factors


# -- numerics by plain bisection --------------------------------------------------


def eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def bisect_root(coeffs, lo, hi, digits: int) -> Fraction:
    """Midpoint of a bisection run on a sign change, to width 10^-(digits+3)."""
    lo, hi = Fraction(lo), Fraction(hi)
    flo = eval_poly(coeffs, lo)
    assert flo != 0 and eval_poly(coeffs, hi) != 0
    target = Fraction(1, 10 ** (digits + 3))
    while hi - lo > target:
        mid = (lo + hi) / 2
        fmid = eval_poly(coeffs, mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2


# -- Fraction polynomial arithmetic ------------------------------------------------
#
# The Euclid over the rationals that exactnum used for its reducible-modulus
# zero test, deflation and inverse before ratpoly's integer kernel.


def add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    return poly(a + b for a, b in zip_longest(p, q, fillvalue=0))


def neg(p: Sequence[Fraction]) -> Poly:
    return [-c for c in p]


def sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    return add(p, neg(q))


def scale(p: Sequence[Fraction], c) -> Poly:
    c = Fraction(c)
    return [c * a for a in p] if c else []


def divmod_poly(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(r) >= len(b) and r:
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - len(b)
        c = r[-1] / lead
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        r.pop()
    return poly(q), poly(r)


def rem(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    return divmod_poly(a, b)[1]


def gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    a, b = poly(a), poly(b)
    while b:
        a, b = b, rem(a, b)
    return [c / a[-1] for c in a] if a else []  # monic


def ext_gcd_inverse(a: Poly, m: Poly) -> Poly:
    """u with u*a = 1 (mod m); requires gcd(a mod m, m) = 1."""
    r0, r1 = poly(m), rem(a, m)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r2 = divmod_poly(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, sub(s0, mul(q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo deflated modulus")
    return rem(scale(s0, 1 / r0[0]), m)


def inverse_by_adjugate(a: AlgebraicNumber) -> AlgebraicNumber:
    """1/a as exactnum computed it before its fraction-free solve: with
    a = num/s, num integral, and A the product by num modulo the reduced
    modulus deflated by gcd(a, m), Cayley-Hamilton gives A^-1 = -B/c_0 from
    the constant terms of det(xI - A) and adj(xI - A) (`ratpoly.charpoly`,
    O(d^4)), so 1/a is s A^-1 e_0: -s/c_0 times the constant terms of the
    adjugate's column 0."""
    columns, s = _deflated_product(a)
    n = len(columns)
    c, column = rp.charpoly([[col[i] if i < len(col) else 0 for col in columns] for i in range(n)])
    if not c[0]:
        raise ZeroDivisionError("element not invertible modulo deflated modulus")
    return a.field.element([Fraction(-s * entry[0], c[0]) for entry in column])


def inverse_by_euclid(a: AlgebraicNumber) -> Poly:
    """Coefficients of 1/a: the reduced modulus with gcd(a, m) deflated out,
    then the extended Euclidean algorithm over the rationals.  a is zero at
    lambda iff gcd(a, m) has the root in (lo, hi]."""
    f = a.field
    m = poly(f._reduced)
    g = gcd(a.coeffs, m)
    if not a.coeffs or len(g) > 1 and count_roots_by_fractions(g, f.lo, f.hi):
        raise ZeroDivisionError("division by a value that is zero at lambda")
    if len(g) > 1:
        m = divmod_poly(m, g)[0]
    return ext_gcd_inverse(poly(a.coeffs), m)


# -- Sturm counts and fields over the rationals ------------------------------------
#
# The Fraction route that ratpoly and exactnum took before their integer Sturm
# sequences: a classical Sturm chain of Fraction polynomials, endpoint roots
# deflated before counting, the square-free part by a Fraction gcd.


def _derivative(p) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i >= 1)


def _monic(p) -> Poly:
    return [c / p[-1] for c in p]


def sturm_chain_by_fractions(p) -> list[Poly]:
    chain = [poly(p), _derivative(p)]
    while chain[-1]:
        chain.append([-c for c in rem(chain[-2], chain[-1])])
    chain.pop()
    return chain


def count_roots_by_fractions(p, a, b) -> int:
    """Distinct real roots of the square-free p in (a, b]: a root at a is
    deflated and dropped, one at b deflated and added back."""
    p, a, b = poly(p), Fraction(a), Fraction(b)
    if a >= b:
        return 0
    extra = 0
    if p and eval_poly(p, a) == 0:
        p = divmod_poly(p, poly([-a, 1]))[0]
    if p and eval_poly(p, b) == 0:
        p = divmod_poly(p, poly([-b, 1]))[0]
        extra = 1
    if len(p) < 2:
        return extra

    def variations(x):
        signs = [v > 0 for v in (eval_poly(q, x) for q in sturm_chain_by_fractions(p)) if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(a) - variations(b) + extra


def squarefree_by_fractions(p) -> Poly:
    """Monic p / gcd(p, p') over the rationals."""
    p = poly(p)
    q, r = divmod_poly(p, gcd(p, _derivative(p)))
    assert not r
    return _monic(q)


def field_by_fractions(charpoly) -> tuple[Poly, Fraction, Fraction]:
    """(modulus, lo, hi) of the field of the largest root above 1: the monic
    square-free part, and bisection from the Cauchy bound by Fraction Sturm
    counts, cutting at the first of lo + (hi - lo)/k, k = 2, 3, 5, 7, 11, that
    is not a root."""
    m = squarefree_by_fractions(charpoly)
    lo, hi = Fraction(1), 1 + max(abs(c) for c in m[:-1])
    if hi <= lo:
        hi = lo + 1
    assert count_roots_by_fractions(m, lo, hi) >= 1
    while count_roots_by_fractions(m, lo, hi) > 1:
        mid = next(c for c in (lo + (hi - lo) / k for k in (2, 3, 5, 7, 11)) if eval_poly(m, c) != 0)
        if count_roots_by_fractions(m, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return m, lo, hi


def levels_by_fractions(m, lo, hi, k: int) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of levels 0..k for the root of the monic integer m
    in (lo, hi]: (r, r) at every level if that root is an integer r (the only
    rational roots m can have), else bisection by Fraction Sturm counts."""
    for n in range(floor(lo) + 1, ceil(hi)):
        if eval_poly(m, n) == 0:
            return [(Fraction(n), Fraction(n))] * (k + 1)
    out = [(lo, hi)]
    while len(out) <= k:
        a, b = out[-1]
        mid = (a + b) / 2
        out.append((a, mid) if count_roots_by_fractions(m, a, mid) == 1 else (mid, b))
    return out


def reduced_by_rational_roots(m, lo, hi) -> tuple[Fraction | None, list[int]]:
    """(rational root in (lo, hi] or None, reduced modulus) of the monic
    integer m, by the former rational-root search over every n/d with n
    dividing the lowest nonzero coefficient and d the leading one."""
    roots = [Fraction(0)] if m[0] == 0 else []
    low = next(c for c in m if c)
    for num in _divisors(abs(low)):
        for d in _divisors(abs(m[-1])):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if cand not in roots and eval_poly(m, cand) == 0:
                    roots.append(cand)
    reduced = list(m)
    for r in sorted(roots):
        if lo < r <= hi:
            return r, [-r.numerator, 1]
        q, rest = divmod_poly(reduced, [-r, 1])
        assert not rest
        reduced = [int(c) for c in q]
    return None, reduced


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- matrices -------------------------------------------------------------------


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def mat_pow(m, k):
    n = len(m)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def all_positive(m) -> bool:
    return all(c > 0 for row in m for c in row)


def primitivity_by_powers(m, bound: int) -> int | None:
    for k in range(1, bound + 1):
        if all_positive(mat_pow(m, k)):
            return k
    return None


def reachable_by_powers(m) -> set[tuple[int, int]]:
    """The pairs (a, b) with M^k[a][b] > 0 for some 1 <= k <= n: a shortest
    walk from a to b, or a shortest cycle through a, has at most n arcs."""
    n = len(m)
    powers = [mat_pow(m, k) for k in range(1, n + 1)]
    return {(a, b) for a in range(n) for b in range(n) if any(p[a][b] for p in powers)}


def period_by_traces(m) -> int:
    """The gcd of the lengths k <= n of closed walks, tr M^k > 0: the gcd of
    the simple cycles' lengths, each at most n."""
    n = len(m)
    return math.gcd(*(k for k in range(1, n + 1) if any(mat_pow(m, k)[i][i] for i in range(n))))


# -- Perron data by the former Fraction routes -----------------------------------


def charpoly_by_fractions(matrix: Sequence[Sequence[int]]) -> Poly:
    """Characteristic polynomial det(xI - M), by Faddeev-LeVerrier over Fractions.

    Exact over the rationals; for an integer matrix the result is monic with
    integer coefficients.
    """
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    a = [row[:] for row in m]
    for k in range(1, n + 1):
        c = -sum(a[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            a[i][i] += c
        a = [[sum(m[i][t] * a[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return poly(coeffs)


def perron_lengths_by_elimination(sub) -> dict:
    """Exact tile lengths: solve sum_y M[x][y] l(y) = lambda l(x), l(0) = 1.

    The system has rank n-1 at the Perron root; the first length is pinned
    to 1 and the rest solved by Gaussian elimination over Q(lambda).  All
    equations are re-checked afterwards and positivity is asserted.
    """
    f = sub.field
    lam = f.lam()
    n = len(sub.alphabet)
    m = sub.abelianization
    if n == 1:
        lengths = {0: f.one}
    else:
        # unknowns l(1)..l(n-1); rows: the eigen-equations for every letter
        rows = []
        for x in range(n):
            coeff = [f.rational(m[x][y]) - (lam if x == y else f.zero) for y in range(n)]
            rows.append((coeff[1:], -coeff[0]))
        sol = _solve_exact(rows, n - 1)
        if sol is None:
            raise SingularSystem("length system is singular; modulus/eigenvalue mismatch")
        lengths = {0: f.one}
        for y in range(1, n):
            lengths[y] = sol[y - 1]
    for x in range(n):
        total = f.zero
        for y in sub.rules[x]:
            total = total + lengths[y]
        if not (total - lam * lengths[x]).is_zero():
            raise SingularSystem("eigen-equation residual nonzero")
    for y in range(n):
        if lengths[y].sign() != 1:
            raise SingularSystem(f"non-positive tile length for letter {y}")
    return lengths


def _solve_exact(rows, k):
    """Solve an overdetermined consistent linear system over Q(lambda).

    rows: (coefficients list of length k, rhs).  Returns the solution or
    None if the equations are inconsistent / rank-deficient.
    """
    rows = [([c for c in coeff], rhs) for coeff, rhs in rows]
    pivots = []
    for col in range(k):
        pivot = None
        for i, (coeff, _) in enumerate(rows):
            if i in [p for p, _ in pivots]:
                continue
            if not coeff[col].is_zero():
                pivot = i
                break
        if pivot is None:
            return None
        pivots.append((pivot, col))
        pc = rows[pivot][0][col]
        inv = pc.inverse()
        rows[pivot] = ([c * inv for c in rows[pivot][0]], rows[pivot][1] * inv)
        for i, (coeff, rhs) in enumerate(rows):
            if i == pivot or coeff[col].is_zero():
                continue
            factor = coeff[col]
            rows[i] = (
                [c - factor * p for c, p in zip(coeff, rows[pivot][0])],
                rhs - factor * rows[pivot][1],
            )
    sol = [None] * k
    for pivot, col in pivots:
        sol[col] = rows[pivot][1]
    for coeff, rhs in rows:
        acc = rhs
        for c, s in zip(coeff, sol):
            acc = acc - c * s
        if not acc.is_zero():
            return None
    return sol


# -- path counting ---------------------------------------------------------------


def paths_through(diagram, vertex: int, gen: int, depth: int) -> int:
    """Number of distinct rooted paths of length `depth` whose generation
    `gen` vertex is `vertex` (counts template choices, brute force)."""

    def count_up(v, remaining):
        if remaining == 0:
            return 1
        return sum(count_up(e.rng, remaining - 1) for e in diagram.out_edges[v])

    def count_down(v, g):
        # paths root -> v arriving at generation g
        if g == 1:
            return 1
        return sum(count_down(e.src, g - 1) for e in diagram.in_edges[v])

    return count_down(vertex, gen) * count_up(vertex, depth - gen)


def connects_everywhere(diagram, k: int) -> bool:
    """Brute enumeration: from every vertex there is a template path of
    length k to every vertex."""
    n = len(diagram.vertices)
    for start in range(n):
        reached = {start}
        frontier = {start}
        for _ in range(k):
            frontier = {e.rng for v in frontier for e in diagram.out_edges[v]}
        if frontier != set(range(n)):
            return False
    return True


# -- square recurrence and extremal paths ---------------------------------------------


def recurrent_squares_by_definition(diagram) -> set:
    """Keys of the nontrivial squares that reach themselves in the square
    composability graph (arc s -> t iff t.h_top == s.h_bot), by a search
    over squares rather than over horizontals."""
    hs = diagram.horizontals
    nontrivial = [s for s in diagram.squares if not (hs[s.h_top].trivial and hs[s.h_bot].trivial)]
    arcs = {s.key(): [t.key() for t in nontrivial if t.h_top == s.h_bot] for s in nontrivial}
    recurrent = set()
    for s in arcs:
        seen = set()
        frontier = list(arcs[s])
        while frontier:
            t = frontier.pop()
            if t not in seen:
                seen.add(t)
                frontier.extend(arcs[t])
        if s in seen:
            recurrent.add(s)
    return recurrent


def square_kinds_by_reachability(diagram, keys=None) -> list[str]:
    """Kinds of the squares with the given keys (h_top, e_left, e_right,
    h_bot), by default those of diagram.squares, by the line-graph argument:
    each nontrivial square is an arc h_top -> h_bot over all horizontals,
    and it is recurrent when its h_bot reaches its h_top, by one search per
    distinct h_bot."""
    hs = diagram.horizontals
    if keys is None:
        keys = [s.key() for s in diagram.squares]
    arcs: dict[int, list[int]] = {h.index: [] for h in hs}
    for ht, _, _, hb in keys:
        if not (hs[ht].trivial and hs[hb].trivial):
            arcs[ht].append(hb)
    reach: dict[int, set[int]] = {}
    kinds = []
    for ht, _, _, hb in keys:
        if hs[ht].trivial and hs[hb].trivial:
            kinds.append("af")
            continue
        if hb not in reach:
            seen, stack = {hb}, [hb]
            while stack:
                for w in arcs[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach[hb] = seen
        kinds.append("cyclic" if ht in reach[hb] else "transient")
    return kinds


def diagrams_by_reachability(diagram) -> list:
    """The canonical recurrent squares, classified by reachability."""
    kinds = square_kinds_by_reachability(diagram)
    return [s for s, kind in zip(diagram.squares, kinds) if s.canonical and kind == "cyclic"]


def diagram_chains_by_dfs(diagrams):
    """Composability digraph over the given squares (arc s -> t iff
    t.h_top == s.h_bot) and all of its simple cycles, found by depth-first
    search and deduplicated up to rotation; each cycle starts at its lowest
    index, and cycles come in the order of that index."""
    arcs = {i: [j for j, t in enumerate(diagrams) if t.h_top == s.h_bot] for i, s in enumerate(diagrams)}
    cycles = []
    seen = set()

    def dfs(start, node, path, visited):
        for nxt in arcs[node]:
            if nxt == start:
                t = tuple(path)
                rot = min(t[i:] + t[:i] for i in range(len(t)))
                if rot not in seen:
                    seen.add(rot)
                    cycles.append([diagrams[i] for i in rot])
            elif nxt > start and nxt not in visited:
                dfs(start, nxt, path + [nxt], visited | {nxt})

    for s in range(len(diagrams)):
        dfs(s, s, [s], {s})
    return arcs, cycles


def _cycle_walk(start, step):
    """Walk start, step(start), ... until a state repeats.  Returns the walk
    and the index in it where the cycle starts, or None if step returns
    None first."""
    seen: dict = {}
    walk = []
    state = start
    while state not in seen:
        seen[state] = len(walk)
        walk.append(state)
        state = step(state)
        if state is None:
            return None
    return walk, seen[state]


def cycles_by_walks(starts, step) -> list[list]:
    """The cycles of the partial map step through starts, each once, as the
    walk from its first member in starts: a full walk from every start not
    yet on a found cycle, kept when it returns to its start."""
    cycles = []
    on_cycle = set()
    for s in starts:
        found = None if s in on_cycle else _cycle_walk(s, step)
        if found is not None and found[1] == 0:
            cycles.append(found[0])
            on_cycle.update(found[0])
    return cycles


def extremes_by_predecessor_map(diagram, minimal: bool):
    """All-minimal (or all-maximal) paths: collect the vertices on cycles of
    v -> source of the extremal edge into v, then walk each cycle backward
    through a predecessor map."""
    from bratteli.paths import EventuallyPeriodicPath

    pick = diagram.min_edge_into if minimal else diagram.max_edge_into
    n = len(diagram.vertices)
    f = {v: pick(v).src for v in range(n)}
    on_cycle: set[int] = set()
    for v in range(n):
        seen = {}
        w = v
        while w not in seen:
            seen[w] = True
            w = f[w]
        # w is on a cycle; walk it
        cyc = [w]
        u = f[w]
        while u != w:
            cyc.append(u)
            u = f[u]
        on_cycle.update(cyc)
    paths = []
    for v in sorted(on_cycle):
        # going up the path runs backward through the f-orbit
        pred = {f[w]: w for w in on_cycle if f[w] in on_cycle}
        cyc_templates = []
        cur = v
        while True:
            up = pred[cur]
            cyc_templates.append(pick(up).index)
            cur = up
            if cur == v:
                break
        paths.append(EventuallyPeriodicPath(diagram, v, [], cyc_templates))
    return paths


def is_minimal(x) -> bool:
    """Every edge of x is the leftmost into its range."""
    d = x.diagram
    return all(e == d.min_edge_into(d.verticals[e].rng).index for e in x.pre + x.cycle)


def pairing_by_diagram_cycles(diagram):
    """The pairing psi by enumerating every simple cycle of composable
    canonical recurrent squares and sorting each cycle's two columns into
    max and min, at each phase of the cycle."""
    from bratteli.errors import UnpairedExtreme
    from bratteli.paths import EventuallyPeriodicPath, Pairing, extremal_paths, render_path

    _, cycles = diagram_chains_by_dfs(diagrams_by_reachability(diagram))
    mins, maxs = extremal_paths(diagram)
    min_set = {p.key(): p for p in mins}
    max_set = {p.key(): p for p in maxs}
    pairs: dict = {}
    for cyc in cycles:
        k = len(cyc)
        for phase in range(k):
            order = [cyc[(phase + j) % k] for j in range(k)]
            left = [diagram.verticals[s.e_left].index for s in order]
            right = [diagram.verticals[s.e_right].index for s in order]
            lpath = EventuallyPeriodicPath(
                diagram, diagram.verticals[left[0]].src, [], left
            )
            rpath = EventuallyPeriodicPath(
                diagram, diagram.verticals[right[0]].src, [], right
            )
            lmin, lmax = is_minimal(lpath), lpath.is_maximal()
            rmin, rmax = is_minimal(rpath), rpath.is_maximal()
            if lmin and rmax and not (lmax and rmin):
                mx, mn = rpath, lpath
            elif rmin and lmax:
                mx, mn = lpath, rpath
            else:
                raise UnpairedExtreme(
                    f"diagram cycle columns are not extremal: {render_path(lpath)} / {render_path(rpath)}"
                )
            if mx.key() not in max_set or mn.key() not in min_set:
                raise UnpairedExtreme("cycle column is not one of the extremal paths")
            if mx.key() in pairs and pairs[mx.key()] != mn:
                raise UnpairedExtreme("maximal path paired twice inconsistently")
            pairs[mx.key()] = mn
    if set(pairs) != set(max_set):
        raise UnpairedExtreme("pairing does not cover every maximal path")
    if {p.key() for p in pairs.values()} != set(min_set):
        raise UnpairedExtreme("pairing does not cover every minimal path")
    ordered = [(max_set[k], pairs[k]) for k in sorted(pairs)]
    return Pairing(pairs=ordered)


# -- tail comparison and gluing -----------------------------------------------------


def af_equiv_window(x, y) -> bool:
    """Windowed tail comparison: both sequences are periodic past the longer
    preamble, so equality of one full common period decides tail
    equivalence (propagates backward and forward within the periodic
    region)."""
    start = max(len(x.pre), len(y.pre)) + 2
    period = _lcm(len(x.cycle), len(y.cycle))
    return all(
        x.edge_index_at(n) == y.edge_index_at(n) for n in range(start, start + period)
    )


def rb_chain_by_all_phases(x, y):
    """(n0, chain) of the least witness of the extended relation, or None:
    the synchronized automaton of `rb_equiv` seeded at every phase 0 .. P-1
    from p0, each surviving walk giving the chain from where it closes.  The
    automaton alone; no translation."""
    d = x.diagram
    p0 = max(len(x.pre), len(y.pre)) + 2
    period = lcm(len(x.cycle), len(y.cycle))

    def step(state):
        phase, h = state
        n_next = p0 + phase + 1
        nxt = d.square_table.get((h, x.edge_index_at(n_next), y.edge_index_at(n_next)))
        return None if nxt is None else ((phase + 1) % period, nxt)

    best = None
    for phase in range(period):
        for h in d.h_by_ends.get((x.vertex_at(p0 + phase), y.vertex_at(p0 + phase)), []):
            found = _cycle_walk((phase, h.index), step)
            if found is None:
                continue
            walk, start = found
            cand = (p0 + phase + start, tuple(cur for _, cur in walk[start:]))
            if best is None or cand < best:
                best = cand
    return best


def _lcm(a, b):
    from math import gcd

    return a * b // gcd(a, b)


def glued_translation(x, y, witness, depth: int, full_decode: bool = False):
    """Interval-geometry oracle for the pair's translation.

    Places y's depth-n supertile against x's as dictated by the witness's
    horizontal edge at that generation (same support for a trivial edge,
    abutting on the signed side otherwise) and reads off where y's puncture
    lands in x's frame; the pair translation must be the negative of that.
    With full_decode the supports come from the letter-by-letter patch
    layout instead of the label sums.
    """
    from bratteli.paths import decode

    d = x.diagram
    n = max(depth, witness.n0)
    h = d.horizontals[witness.chain[(n - witness.n0) % len(witness.chain)]]
    if full_decode:
        px, py = decode(x.prefix(n)), decode(y.prefix(n))
        x_left, x_right = px.left, px.right
        y_left, y_right = py.left, py.right
        y_punct_offset = -py.left  # puncture sits at 0 in y's own frame
    else:
        from bratteli.paths import u_of_prefix

        f = d.field
        lamn = d.lam ** (n - 1)
        ux, uy = u_of_prefix(x.prefix(n)), u_of_prefix(y.prefix(n))
        x_span = lamn * d.csub.base.lengths[d.csub.core_of(x.vertex_at(n))]
        y_span = lamn * d.csub.base.lengths[d.csub.core_of(y.vertex_at(n))]
        x_left, x_right = ux - x_span.scale("1/2"), ux + x_span.scale("1/2")
        y_left, y_right = uy - y_span.scale("1/2"), uy + y_span.scale("1/2")
        y_punct_offset = -y_left
    if h.trivial:
        # same supertile: overlay supports
        y_left_glued = x_left
    else:
        sgn = d.elements[h.coeff].sign()
        assert sgn != 0
        if sgn > 0:
            y_left_glued = x_right  # y sits immediately to the right
        else:
            y_left_glued = x_left - (y_right - y_left)
    y_punct_in_x = y_left_glued + y_punct_offset
    return -y_punct_in_x


# -- boundary distances ---------------------------------------------------------


def escape_depth_by_profiles(x, bound) -> int:
    """escape_depth as it was first written: a fresh gap_profile of the
    whole prefix at every cycle, O(depth^2) generations in all."""
    from bratteli.analysis import gap_profile

    b = x.diagram.field.rational(bound)
    depth = len(x.pre) + 1
    while True:
        depth += len(x.cycle)
        gl, gr = gap_profile(x.prefix(depth)).gaps[-1]
        if gl.compare(b) > 0 and gr.compare(b) > 0:
            return depth


# -- patch geometry by element arithmetic -------------------------------------------
#
# decode, plain and collared, the gap walk and the Vershik positions as they were
# before the patch geometry was summed as integer vectors: every tile end, gap
# and position is a chain of element sums and products.  The package must give
# the same coefficient tuples.


def lay_out_by_elements(csub, word, collared: bool, start: AlgebraicNumber) -> list[PatchTile]:
    """Tiles of a generation-1 word laid end to end rightward from start, one
    element sum per tile."""
    base = csub.base
    tiles = []
    for w in word:
        if collared:
            cl = csub.collared_alphabet[w]
            name, core, length = cl.name, cl.core, csub.base.lengths[csub.core_of(w)]
        else:
            name, core, length = base.alphabet[w].name, w, base.lengths[w]
        end = start + length
        tiles.append(PatchTile(name=name, base=base.alphabet[core].name, collared=collared, left=start, right=end))
        start = end
    return tiles


def decode_by_elements(gamma) -> DecodedPatch:
    """decode with the puncture's shift summed from element lengths, the
    tiles laid out by lay_out_by_elements and the span as lambda ** (n-1)
    times the top length."""
    d = gamma.diagram
    csub = d.csub
    word, idx = _trace(gamma)
    shift = csub.base.lengths[csub.core_of(word[idx])].scale(_HALF)
    for w in word[:idx]:
        shift = shift + csub.base.lengths[csub.core_of(w)]
    tiles = lay_out_by_elements(csub, word, True, -shift)
    offset = u_of_prefix(gamma)
    top = gamma.top_vertex()
    span = d.lam ** (gamma.length - 1) * csub.base.lengths[csub.core_of(top)]
    left = offset - span.scale(_HALF)
    right = offset + span.scale(_HALF)
    assert (tiles[0].left - left).is_zero() and (tiles[-1].right - right).is_zero()
    return DecodedPatch(tiles, idx, offset, top, gamma.length, left, right)


def decode_collared_by_elements(gamma) -> DecodedPatch:
    """decode(gamma, collared=True) around decode_by_elements, the contexts
    laid out from the core's ends less the summed width of the left context."""
    csub = gamma.diagram.csub
    base = csub.base
    core = decode_by_elements(gamma)
    cl = csub.collared_alphabet[gamma.top_vertex()]
    left_word, right_word = (cl.left,), (cl.right,)
    for _ in range(gamma.length - 1):
        left_word, right_word = base.apply(left_word), base.apply(right_word)
    width = base.field.zero
    for w in left_word:
        width = width + base.lengths[w]
    left_tiles = lay_out_by_elements(csub, left_word, False, core.left - width)
    right_tiles = lay_out_by_elements(csub, right_word, False, core.right)
    tiles = left_tiles + core.tiles + right_tiles
    idx = len(left_word) + core.puncture_index
    return DecodedPatch(tiles, idx, core.offset, core.top_vertex, gamma.length, tiles[0].left, tiles[-1].right)


def gaps_by_layout_elements(path) -> Iterator[tuple[AlgebraicNumber, AlgebraicNumber]]:
    """The gap walk over element layouts (`perron_lengths_by_fractions`):
    per generation, each side's offset times an element power of lambda."""
    d = path.diagram
    csub = d.csub
    layouts = perron_lengths_by_fractions(csub.base)[1]
    gl, gr = d.field.zero, d.field.zero
    power = d.field.one  # lambda^(n-2) at generation n
    n = 1
    while True:
        yield gl, gr
        n += 1
        e = path.template_at(n)
        layout = layouts[csub.core_of(e.rng)]
        gl = gl + layout.left[e.pos] * power
        gr = gr + layout.right[e.pos] * power
        power = power * d.lam


def vershik_positions_by_elements(x, steps: int) -> list[tuple]:
    """(successor, delta, position) of each Vershik step from x: delta the
    halved element sum of the two puncture tiles' lengths, the position the
    element sum of the deltas."""
    d = x.diagram
    lengths, core = d.csub.base.lengths, d.csub.core_of
    pos = d.field.zero
    out = []
    for _ in range(steps):
        nxt = vershik_successor(x)
        delta = (lengths[core(x.root)] + lengths[core(nxt.root)]).scale(_HALF)
        pos = pos + delta
        out.append((nxt, delta, pos))
        x = nxt
    return out


# -- per-collared-letter diagram builders ------------------------------------------
#
# The builders and the gap walk as they were before the diagram shared its
# arithmetic per base letter: every collared letter redoes its own layout,
# every horizontal its own half-sum, and the census sums and zero-tests per
# template index.  The package must give the same templates, squares, square
# sums L and gaps, representative for representative.  Each coefficient is
# formed as an element and stored as the package stores it, an integer vector
# over 2D.

_HALF = Fraction(1, 2)


def _vector(x: AlgebraicNumber, den: int) -> tuple[int, ...]:
    """x as an integer vector over den, padded as the package pads it; den must clear x's denominators."""
    assert all(den % c.denominator == 0 for c in x.coeffs)
    return tuple(x.field.numerators(x, den))


def build_vertical(csub: CollaredSubstitution) -> list[VerticalTemplate]:
    """One template per occurrence of a letter in a rule image.

    Base-scale layout: the generation-n supertile of w spans
    lambda * len(w) with its subtiles at generation-(n-1) sizes; the
    coefficient is supertile center minus subtile center (u(e) = -a).
    """
    f = csub.base.field
    lam = f.lam()
    den = 2 * csub.base.length_vectors[0]
    out = []
    for w, rule in sorted(csub.collared_rules.items()):
        total = lam * csub.base.lengths[csub.core_of(w)]
        layout_sum = f.zero
        for u in rule:
            layout_sum = layout_sum + csub.base.lengths[csub.core_of(u)]
        assert (layout_sum - total).is_zero(), "eigen-equation violated in layout"
        cum = total.scale(-_HALF)
        for pos, u in enumerate(rule):
            center = cum + csub.base.lengths[csub.core_of(u)].scale(_HALF)
            out.append(
                VerticalTemplate(index=len(out), src=u, rng=w, pos=pos, coeff=_vector(-center, den))
            )
            cum = cum + csub.base.lengths[csub.core_of(u)]
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
    den = 2 * base.length_vectors[0]
    legal4 = legal_words(base, 4)
    letters = csub.collared_alphabet
    out: list[HorizontalTemplate] = []

    def emit(src, rng, coeff, trivial, opposite):
        out.append(
            HorizontalTemplate(
                index=len(out), src=src, rng=rng, coeff=_vector(coeff, den), trivial=trivial, opposite=opposite
            )
        )

    for t in letters:
        for u in letters:
            if t.right != u.core or u.left != t.core:
                continue
            if (t.left, t.core, u.core, u.right) not in legal4:
                continue
            d = (base.lengths[t.core] + base.lengths[u.core]).scale(_HALF)
            i = len(out)
            emit(t.index, u.index, d, False, i + 1)
            emit(u.index, t.index, -d, False, i)
    for t in letters:
        emit(t.index, t.index, f.zero, True, len(out))
    return out


# -- replaced build routes: the export by json.dumps, running offsets, Fraction text ----
#
# The package writes export_json directly, forms each layout from one list of
# prefix sums with split bisected, buckets the adjacency candidates, and
# renders through integer numerators.  These are the routes they replaced:
# the payload dict through json.dumps(indent=2), the offsets summed per
# position with one sign per position, and Fraction arithmetic on each
# coefficient.  (`build_horizontal` above is the all-pairs adjacency scan.)
# The package must give the same bytes, representatives and text.


def export_json_by_dumps(diagram: BratteliDiagram) -> str:
    csub = diagram.csub
    base = csub.base
    scan_order = {cl.triple(): cl.name for cl in csub.collared_alphabet}
    render = functools.cache(lambda c: diagram.elements[c].render())
    payload = {
        "spec": {
            "letters": [a.name for a in base.alphabet],
            "rules": {a.name: [base.alphabet[y].name for y in base.rules[a.id]] for a in base.alphabet},
            "collar-names": [scan_order[t] for t in sorted(scan_order)],
        },
        "modulus": [str(c) for c in base.field.modulus],
        "vertices": diagram.vertices,
        "verticals": [
            {"src": diagram.vertices[e.src], "rng": diagram.vertices[e.rng], "pos": e.pos, "coeff": render(e.coeff)}
            for e in diagram.verticals
        ],
        "horizontals": [
            {
                "src": diagram.vertices[h.src],
                "rng": diagram.vertices[h.rng],
                "coeff": render(h.coeff),
                "trivial": h.trivial,
            }
            for h in diagram.horizontals
        ],
        "diagrams": [
            {"h_top": s.h_top, "e_left": s.e_left, "e_right": s.e_right, "h_bot": s.h_bot, "kind": s.kind}
            for s in diagram.canonical_squares
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def diagram_from_export(blob: str) -> BratteliDiagram:
    """The diagram rebuilt from the `spec` section of its JSON export alone."""
    spec = json.loads(blob)["spec"]
    lines = ["letters: " + " ".join(spec["letters"])]
    lines += [f"rule {a}: " + " ".join(spec["rules"][a]) for a in spec["letters"]]
    lines.append("collar-names: " + " ".join(spec["collar-names"]))
    return build_diagram(parse_spec("\n".join(lines), check_aperiodicity=False))


def layouts_by_offsets(sub) -> dict[int, LetterLayout]:
    """Each rule image laid out from running left offsets, every centre as
    half the span minus the offset minus half the tile, and split as the
    first position whose sign is negative."""
    f = sub.field
    lengths = sub.lengths
    layouts = {}
    for x, rule in sub.rules.items():
        left = [f.zero]
        for y in rule:
            left.append(left[-1] + lengths[y])
        total = left.pop()
        half = (f.lam() * lengths[x]).scale(_HALF)
        vertical = tuple(half - a - lengths[y].scale(_HALF) for a, y in zip(left, rule))
        layouts[x] = LetterLayout(
            split=next((i for i, c in enumerate(vertical) if c.sign() < 0), len(vertical)),
            left=tuple(left),
            right=tuple(total - a - lengths[y] for a, y in zip(left, rule)),
            vertical=vertical,
        )
    return layouts


def perron_lengths_by_fractions(sub) -> tuple[dict, dict]:
    """Lengths and layouts by element arithmetic: column 0 of the adjugate as
    elements, each times the inverse of the first; prefix sums, lambda l(x),
    the residual, the right offsets and the halved verticals all as sums,
    differences and products of Fraction-coefficient elements."""
    f = sub.field
    lam = f.lam()
    n = len(sub.alphabet)
    col = [f.element(c) for c in sub.adjugate_column]
    inv = col[0].inverse()
    lengths = {x: col[x] * inv if x else f.one for x in range(n)}
    layouts = {}
    for x in range(n):
        ends = list(accumulate((lengths[y] for y in sub.rules[x]), initial=f.zero))
        total = ends[-1]
        scaled = lam * lengths[x]
        if not (total - scaled).is_zero():
            raise SingularSystem("eigen-equation residual nonzero")
        vertical = tuple((scaled - a - c).scale(_HALF) for a, c in zip(ends, ends[1:]))
        layouts[x] = LetterLayout(
            split=next((i for i, c in enumerate(vertical) if c.sign() < 0), len(vertical)),
            left=tuple(ends[:-1]),
            right=tuple(total - c for c in ends[1:]),
            vertical=vertical,
        )
    return lengths, layouts


def render_by_fractions(p: Sequence[Fraction], sym: str) -> str:
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{mag}{sym}" + (f"^{k}" if k > 1 else "")
        parts.append((c < 0, body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, body in parts[1:]:
        out += (" - " if negative else " + ") + body
    return out


def enumerate_squares(diagram: BratteliDiagram, usums: dict) -> list[DiagramTemplate]:
    """Exhaustive scan for the incident quadruples (h_top, e_left, e_right,
    h_bot) with exactly zero residual, by the pair sums L and R of the
    module docstring; puts L of each (e_left, h_bot) it forms in `usums`.
    Kinds come from the line-graph reachability and stored orientations from
    the signs of L, not from the square families.  Returns the stored
    orientations, as `diagram.enumerate_squares` does."""
    c = diagram.elements
    lam_c: dict[tuple, AlgebraicNumber] = {}  # lambda * c, once per distinct coefficient
    for h in diagram.horizontals:
        if h.coeff not in lam_c:
            lam_c[h.coeff] = diagram.lam * c[h.coeff]
    out = []
    for ht in diagram.horizontals:
        rsums: dict[int, AlgebraicNumber] = {}  # e_right -> c(h_top) + c(e_right)
        for el in diagram.out_edges[ht.src]:
            for er in diagram.out_edges[ht.rng]:
                cands = diagram.h_by_ends.get((el.rng, er.rng))
                if not cands:
                    continue
                rsum = rsums.get(er.index)
                if rsum is None:
                    rsum = rsums[er.index] = c[ht.coeff] + c[er.coeff]
                matches = []
                for hb in cands:
                    lsum = usums.get((el.index, hb.index))
                    if lsum is None:
                        lsum = usums[el.index, hb.index] = c[el.coeff] + lam_c[hb.coeff]
                    if lsum.equals(rsum):
                        matches.append(hb)
                assert len(matches) <= 1
                out.extend((ht.index, el.index, er.index, hb.index) for hb in matches)
    kinds = square_kinds_by_reachability(diagram, out)
    return [DiagramTemplate(*k, kind) for k, kind in zip(out, kinds) if is_canonical_by_sign(diagram, k)]


def census_formed_together(diagram: BratteliDiagram) -> dict:
    """The census as the diagram formed it before each view was formed on its
    own: every square in both orientations from the three families, the
    mirror of each stored one built beside it, sorted, then the table, the
    canonical list and the recurrent ones from that one list, together."""
    hs, trivial = diagram.horizontals, diagram.trivial_h
    layouts, core_of = diagram.csub.base.layouts, diagram.csub.core_of
    recurrent = {h for cycle in diagram.down_cycles for h in cycle}
    squares = []

    def adjacent(ht, el, er, hb, kind, canonical):  # el.src just left of er.src: the square and its mirror
        squares.append(DiagramTemplate(ht.index, el.index, er.index, hb.index, kind, canonical))
        squares.append(DiagramTemplate(ht.opposite, er.index, el.index, hb.opposite, kind, not canonical))

    for v, into in diagram.in_edges.items():
        squares.extend(DiagramTemplate(trivial[e.src].index, e.index, e.index, trivial[v].index, "af") for e in into)
        split = layouts[core_of(v)].split
        for el, er in zip(into, into[1:]):
            ht = diagram.forward_h.get((el.src, er.src))
            if ht is not None:
                adjacent(ht, el, er, trivial[v], "transient", er.pos != split)
    for hb, ht in diagram.down.items():
        kind = "cyclic" if hb in recurrent else "transient"
        adjacent(hs[ht], diagram.max_edge_into(hs[hb].src), diagram.min_edge_into(hs[hb].rng), hs[hb], kind, False)
    squares.sort(key=DiagramTemplate.key)
    table = {(s.h_top, s.e_left, s.e_right): s.h_bot for s in squares}
    assert len(table) == len(squares)
    canonical = [s for s in squares if s.canonical]
    diagrams = [s for s in canonical if s.kind == "cyclic"]
    return {"squares": squares, "square_table": table, "canonical_squares": canonical, "diagrams": diagrams}


def residuals_by_elements(diagram: BratteliDiagram) -> None:
    """Every square's equation in element arithmetic, lambda * c(h) once per
    horizontal: the residual check as first written, which raises
    AssertionError with the message the battery reports."""
    hs, vs, c = diagram.horizontals, diagram.verticals, diagram.elements
    lam_c = [diagram.lam * c[h.coeff] for h in hs]
    for s in diagram.squares:
        res = c[vs[s.e_left].coeff] + lam_c[s.h_bot] - c[hs[s.h_top].coeff] - c[vs[s.e_right].coeff]
        if not res.is_zero():
            raise AssertionError("nonzero residual")


def opposites_by_elements(diagram: BratteliDiagram) -> None:
    """Each horizontal's label and its opposite's cancel, in element
    arithmetic: the opposite check as first written."""
    for h in diagram.horizontals:
        op = diagram.horizontals[h.opposite]
        if op.opposite != h.index:
            raise AssertionError("opposite pairing is not an involution")
        if not (diagram.elements[h.coeff] + diagram.elements[op.coeff]).is_zero():
            raise AssertionError("opposite labels do not cancel")


def is_canonical_by_sign(diagram: BratteliDiagram, k: tuple[int, int, int, int]) -> bool:
    """The stored orientation of a square as first defined: the one with
    L = c(e_left) + lambda * c(h_bot) < 0 <= the mirror's L, else the
    smaller key; a square that is its own mirror is stored."""
    hs = diagram.horizontals
    ht, el, er, hb = k
    mk = (hs[ht].opposite, er, el, hs[hb].opposite)
    if mk == k:
        return True
    sgn, msgn = (
        (diagram.elements[diagram.verticals[e].coeff] + diagram.lam * diagram.elements[hs[h].coeff]).sign()
        for e, h in ((el, hb), (er, mk[3]))
    )
    if sgn < 0 <= msgn:
        return True
    if msgn < 0 <= sgn:
        return False
    return k < mk


def _gaps(path) -> Iterator[tuple[AlgebraicNumber, AlgebraicNumber]]:
    """(g_L(n), g_R(n)) for n = 1, 2, ... along a prefix or an eventually
    periodic path, one generation at a time."""
    d = path.diagram
    csub = d.csub
    f = d.field
    gl, gr = f.zero, f.zero
    power = f.one  # lambda^(n-2) at generation n
    n = 1
    while True:
        yield gl, gr
        n += 1
        e = path.template_at(n)
        rule = csub.collared_rules[e.rng]
        left_off = f.zero
        for u in rule[: e.pos]:
            left_off = left_off + csub.base.lengths[csub.core_of(u)]
        right_off = f.zero
        for u in rule[e.pos + 1 :]:
            right_off = right_off + csub.base.lengths[csub.core_of(u)]
        gl = gl + left_off * power
        gr = gr + right_off * power
        power = power * d.lam


# -- replaced routes: the inverse by zero test first, the ratios through an element
#    inverse, collaring from the legal 3-words -------------------------------------
#
# The package starts every inverse with one fraction-free solve modulo the
# reduced modulus and takes the zero test and the gcd only when that solve is
# singular; `ratios` reduces the solve's integers by one gcd; and the collared
# letters are the 3-prefixes of the legal 4-words.  These are the routes they
# replaced; the package must give the same representatives, integers and letters.


def _deflated_product(a: AlgebraicNumber) -> tuple[list, int]:
    """The zero test, then gcd(a, m) and m deflated by it: the columns
    num x^j mod the deflated m of the product by num = s a, and s."""
    if a.is_zero():
        raise ZeroDivisionError("division by a value that is zero at lambda")
    m = a.field._reduced
    g = rp.gcd(a.coeffs, m)
    if len(g) > 1:
        m = rp.exact_quotient(m, g)
    s = lcm(*(c.denominator for c in a.coeffs))
    columns = [rp.reduce_monic([c.numerator * (s // c.denominator) for c in a.coeffs], m)]
    while len(columns) < len(m) - 1:  # num * x^j mod m
        columns.append(rp.reduce_monic([0, *columns[-1]], m))
    return columns, s


def inverse_by_zero_test(a: AlgebraicNumber) -> AlgebraicNumber:
    """The zero test, then gcd(a, m), then m deflated by it, then one
    fraction-free solve."""
    columns, s = _deflated_product(a)
    x, d = rp.solve_fraction_free(columns, [s] + [0] * (len(columns) - 1))
    return a.field.element([Fraction(c, d) for c in x])


def ratios_by_element_inverse(f, columns):
    """ModulusField.ratios through the element inverse of c_0, whose
    numerators over their common denominator are read back."""
    inv = inverse_by_zero_test(f.element(columns[0]))
    den = lcm(*(c.denominator for c in inv.coeffs))
    v, m = f.numerators(inv, den), f._reduced
    lengths = [[den]] + [rp.reduce_monic(rp.int_mul(c, v), m) for c in columns[1:]]
    spans = [rp.reduce_monic([0, *p], m) for p in lengths]
    return den, *([p + [0] * (len(m) - 1 - len(p)) for p in vs] for vs in (lengths, spans))


def collar_alphabet_by_3words(sub) -> list[CollaredLetter]:
    """One collared letter per legal 3-word of `legal_words(sub, 3)`, named
    in their sorted order, then indexed in the order of the names."""
    triples = sorted(legal_words(sub, 3))
    names = sub.collar_names or [_default_name(i) for i in range(len(triples))]
    named = sorted(zip(names, triples))
    return [CollaredLetter(i, l, c, r, name) for i, (name, (l, c, r)) in enumerate(named)]


# -- metamorphic relations: two runs of the library on two specs ---------------


def mirror(sub):
    """The substitution with every rule reversed: it reflects the tiling.
    Its abelianization, so its field and tile lengths, are sub's."""
    return Substitution(list(sub.alphabet), {x: w[::-1] for x, w in sub.rules.items()})


def mirror_map(d, m):
    """The path map from the diagram d to m = build_diagram(mirror(base of d)):
    the vertex (l, c, r) goes to (r, c, l), and the edge at position pos of
    sigma_c(rng) to the edge at position |sigma_c(rng)| - 1 - pos of the
    mirrored image.  Returns the map of eventually periodic paths and that of
    finite prefixes."""
    vertex = [m.csub.by_triple[r, c, l] for l, c, r in (cl.triple() for cl in d.csub.collared_alphabet)]
    edge = []
    for e in d.verticals:
        f = m.in_edges[vertex[e.rng]][len(d.csub.collared_rules[e.rng]) - 1 - e.pos]
        assert f.src == vertex[e.src]
        edge.append(f.index)

    def path(p):
        return EventuallyPeriodicPath(m, vertex[p.root], [edge[e] for e in p.pre], [edge[e] for e in p.cycle])

    def prefix(gamma):
        return PathPrefix(m, vertex[gamma.root], [edge[e] for e in gamma.edges])

    return path, prefix
