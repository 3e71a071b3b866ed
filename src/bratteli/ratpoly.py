"""Dense univariate polynomials over the rationals and the integers.

Polynomials are lists in ascending degree order, with no trailing zeros
(the zero polynomial is the empty list).  Only the element side is in
Fractions: `mul`, `reduce_monic` and `enclose` take the coefficients of
elements of Q(lambda), and `poly` reads a field's input; `mul` returns its
Fractions as made, so `ModulusField.element` normalises a product once.
Everything else is in integers: a point is an integer numerator over an
integer denominator d > 0, so `eval_scaled` takes (n, d) and `enclose` the
interval [l/d, h/d] as (l, h, d); a modulus is monic with integer
coefficients, so its rational roots are the integers `integer_roots` finds;
one pseudo-remainder step serves the Sturm sequence and `gcd`,
`exact_quotient` serves the square-free part and every deflation, and
`solve_fraction_free` inverts.  No floats; degrees stay desk-scale (<= ~10).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd as igcd
from math import isqrt, lcm
from typing import Iterable, Sequence

Poly = list[Fraction]
IntPoly = list[int]


def poly(coeffs: Iterable) -> Poly:
    p = [c if type(c) is Fraction else Fraction(c) for c in coeffs]  # a Fraction is immutable: kept
    while p and p[-1] == 0:
        p.pop()
    return p


def mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    """p * q of Fraction polynomials with no trailing zero: nor has the product, lc(p) lc(q) != 0."""
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def int_mul(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """p * q of nonzero integer polynomials, trailing zeros left in place."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def reduce_monic(p: Sequence, m: Sequence[int]) -> list:
    """p mod the monic integer m, with no division: each step subtracts
    lc(r) x^k m, which clears the leading coefficient since lc(m) = 1."""
    r, n = list(p), len(m) - 1
    low = [(i, mc) for i, mc in enumerate(m[:n]) if mc]
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n]
        if c:
            for i, mc in low:
                r[k + i] -= c * mc
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return r


def enclose(p: Sequence[Fraction], l: int, h: int, d: int) -> tuple[int, int, int]:
    """Interval Horner evaluation in integers: {p(x) : l/d <= x <= h/d}, for
    0 <= l <= h and d > 0, lies in [vlo/den, vhi/den].  With p = a/D over a
    common denominator, each step is the Fraction step times the positive
    D*d^(deg p - i), so the enclosure is the same.  As x >= 0, the signs of
    the accumulators pick the extreme endpoint products."""
    if not p:
        return 0, 0, 1
    den = lcm(*(c.denominator for c in p))
    alo = ahi = 0
    dk = 1
    for c in reversed(p):
        a = c.numerator * (den // c.denominator) * dk
        alo, ahi = alo * (l if alo >= 0 else h) + a, ahi * (h if ahi >= 0 else l) + a
        dk *= d
    return alo, ahi, den * dk // d


def integer_primitive(p: Sequence) -> IntPoly:
    """The primitive integer polynomial that is a positive multiple of the
    rational p: same roots, same signs."""
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = igcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def eval_scaled(p: Sequence[int], n: int, d: int) -> int:
    """d^deg(p) * p(n/d) for an integer polynomial p and integers n, d > 0, by
    homogeneous Horner evaluation: an integer with the sign of p(n/d)."""
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _pseudo_remainder(r: Sequence[int], b: Sequence[int]) -> IntPoly:
    """A positive integer multiple of r mod b, for integer r and nonzero b:
    r <- |lc(b)| r - sign(lc(b)) lc(r) x^k b until deg r < deg b."""
    r, lead, unit = list(r), abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(r) >= len(b):
        c, k = unit * r[-1], len(r) - len(b)
        r = [lead * a for a in r]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        while r and not r[-1]:
            r.pop()
    return r


def sturm_sequence(p: Sequence[int]) -> list[IntPoly]:
    """p, p', then each negated pseudo-remainder made primitive (Collins'
    primitive remainder sequence) for a nonzero integer p.  Each entry is a
    positive multiple of the classical Sturm chain's, so sign variations
    agree; the last is gcd(p, p') up to a constant: p is square-free iff it
    is constant."""
    seq = [list(p)]
    b = integer_primitive([i * c for i, c in enumerate(p)][1:])
    while b:
        seq.append(b)
        b = integer_primitive([-a for a in _pseudo_remainder(seq[-2], b)])
    return seq


def gcd(a: Sequence, b: Sequence) -> IntPoly:
    """gcd of the rational a and b as a primitive integer polynomial with a
    positive leading coefficient (empty if both are zero), by the primitive
    remainder sequence."""
    a, b = integer_primitive(a), integer_primitive(b)
    while b:
        a, b = b, integer_primitive(_pseudo_remainder(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def sign_variations(seq: Sequence[Sequence[int]], x) -> int:
    """Sign changes along the sequence at the rational x, zeros skipped.
    For the Sturm sequence of a square-free p, V(a) - V(b) counts the roots
    in (a, b] with no deflation: at a root c, p is skipped and p' has the
    sign p takes just above c, so V(c) is V just above c.  A bisection may
    therefore cut at a root: the counts put it in the lower half (a, c], and
    no cut has to avoid the roots."""
    signs = [v > 0 for v in (eval_scaled(q, x.numerator, x.denominator) for q in seq) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(p: Sequence, a, b) -> int:
    """Number of distinct real roots of the square-free rational p in (a, b]:
    a root at b counts, one at a does not, as if both were deflated first."""
    a, b = Fraction(a), Fraction(b)
    seq = sturm_sequence(integer_primitive(p))
    return sign_variations(seq, a) - sign_variations(seq, b) if a < b else 0


def exact_quotient(p: Sequence[int], g: Sequence[int]) -> IntPoly:
    """p / g for integer p and a primitive integer divisor g of p: by Gauss's
    lemma the quotient is integral, so every division is exact."""
    r = list(p)
    q = [0] * (len(r) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(g) - 1] // g[-1]
        for i, gc in enumerate(g):
            r[k + i] -= q[k] * gc
    assert not any(r), "g divides p"
    return q


def integer_roots(m: Sequence[int]) -> list[int]:
    """All rational roots of the monic integer m, ascending.  They are
    integers: 0 if x divides m, and divisors of the constant term left once
    the power of x is factored out."""
    k = next(i for i, c in enumerate(m) if c)
    low = abs(m[k])
    roots = {0} if k else set()
    for d in range(1, isqrt(low) + 1):
        if low % d == 0:
            roots.update(r for r in (d, -d, low // d, -(low // d)) if eval_scaled(m, r, 1) == 0)
    return sorted(roots)


def charpoly(matrix: Sequence[Sequence[int]]) -> tuple[IntPoly, list[IntPoly]]:
    """det(xI - M) and column 0 of adj(xI - M) of an integer matrix, by
    Faddeev-LeVerrier, O(n^4): adj(xI - M) = sum B_k x^(n-1-k), B_0 = I,
    B_k = M B_(k-1) + c_(n-k) I, c_(n-k) = -tr(M B_(k-1))/k, and only the
    current B_k is kept.  Returns the ascending coefficients of the monic
    c_0 + ... + x^n, integers as every division is exact, and for each row r
    the n ascending coefficients of adj(xI - M)[r][0], B_(n-1-i)[r][0] at x^i."""
    n = len(matrix)
    coeffs = [0] * n + [1]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    firsts = []  # column 0 of B_0, B_1, ...
    for k in range(1, n + 1):
        firsts.append([row[0] for row in b])
        columns = list(zip(*b))
        a = [[sum(map(operator.mul, row, col)) for col in columns] for row in matrix]
        c = -sum(a[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        for i in range(n):
            a[i][i] += c
        b = a
    return coeffs, [list(reversed(entries)) for entries in zip(*firsts)]


def solve_fraction_free(columns: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[IntPoly, int]:
    """Integers (x, d), a x = d b, d = +-det(a), for the integer matrix a of these
    columns (short ones end in zeros), by Bareiss's fraction-free Gauss-Jordan
    elimination (Math. Comp. 22, 1968), O(n^3): every entry stays a minor, so
    each division is exact, and at the end a is d I.  Singular: ZeroDivisionError."""
    n, prev = len(b), 1
    rows = [[col[i] if i < len(col) else 0 for col in columns] + [v] for i, v in enumerate(b)]
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        rows = [r if r is pivot else [(pivot[k] * a - r[k] * c) // prev for a, c in zip(r, pivot)] for r in rows]
        prev = pivot[k]
    return [r[n] for r in rows], prev
