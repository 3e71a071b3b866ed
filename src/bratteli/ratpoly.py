"""Dense univariate polynomials over the rationals.

Polynomials are lists of Fractions in ascending degree order, with no
trailing zeros (the zero polynomial is the empty list).  Everything here is
exact; no floats anywhere.  Degrees stay desk-scale (<= ~10), so plain
Euclidean algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

Poly = list[Fraction]


def poly(coeffs: Iterable) -> Poly:
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence[Fraction]) -> int:
    return len(p) - 1


def add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def neg(p: Sequence[Fraction]) -> Poly:
    return [-c for c in p]


def sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    return add(p, neg(q))


def scale(p: Sequence[Fraction], c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return []
    return [c * a for a in p]


def mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


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


def monic(p: Sequence[Fraction]) -> Poly:
    if not p:
        return []
    return [c / p[-1] for c in p]


def gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    a, b = poly(a), poly(b)
    while b:
        a, b = b, rem(a, b)
    return monic(a)


def derivative(p: Sequence[Fraction]) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i >= 1)


def eval_at(p: Sequence[Fraction], x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def enclose(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """Interval Horner evaluation in integers: {p(x) : lo <= x <= hi} lies in
    [vlo/den, vhi/den].  With p = a/D and x = t/q over common denominators,
    each step is the Fraction step times the positive D*q^(d-i), so the
    enclosure is the same.  For lo >= 0 the signs of the accumulators pick
    the extreme endpoint products."""
    if not p:
        return 0, 0, 1
    den = lcm(*(c.denominator for c in p))
    q = lcm(lo.denominator, hi.denominator)
    l, h = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    alo = ahi = 0
    qk = 1
    for c in reversed(p):
        a = c.numerator * (den // c.denominator) * qk
        if l >= 0:
            alo, ahi = alo * (l if alo >= 0 else h) + a, ahi * (h if ahi >= 0 else l) + a
        else:
            prods = (alo * l, alo * h, ahi * l, ahi * h)
            alo, ahi = min(prods) + a, max(prods) + a
        qk *= q
    return alo, ahi, den * qk // q


def eval_interval(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """`enclose` as a pair of Fractions."""
    vlo, vhi, den = enclose(p, Fraction(lo), Fraction(hi))
    return Fraction(vlo, den), Fraction(vhi, den)


def squarefree_part(p: Sequence[Fraction]) -> Poly:
    p = poly(p)
    if degree(p) < 1:
        return monic(p)
    g = gcd(p, derivative(p))
    q, r = divmod_poly(p, g)
    assert not r
    return monic(q)


def sturm_chain(p: Sequence[Fraction]) -> list[Poly]:
    chain = [poly(p), derivative(p)]
    while chain[-1]:
        chain.append(neg(rem(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _variations(values: Sequence[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(p: Sequence[Fraction], a, b) -> int:
    """Number of distinct real roots of p in (a, b].

    p must be square-free.  Roots at the endpoints are deflated away first,
    which keeps the classical Sturm count applicable; a root exactly at b is
    added back, one at a is discarded (half-open convention).
    """
    p = poly(p)
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        return 0
    extra = 0
    if p and eval_at(p, a) == 0:
        p = divmod_poly(p, poly([-a, 1]))[0]
    if p and eval_at(p, b) == 0:
        p = divmod_poly(p, poly([-b, 1]))[0]
        extra = 1
    if degree(p) < 1:
        return extra
    chain = sturm_chain(p)
    va = _variations([eval_at(q, a) for q in chain])
    vb = _variations([eval_at(q, b) for q in chain])
    return va - vb + extra


def rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots, found by clearing denominators and trying p/q."""
    p = poly(p)
    if degree(p) < 1:
        return []
    den = lcm(*(c.denominator for c in p))
    ip = [int(c * den) for c in p]
    roots = [Fraction(0)] if ip[0] == 0 else []
    low = next(c for c in ip if c)  # the constant term once x^k is factored out
    for num in _divisors(abs(low)):
        for d in _divisors(abs(ip[-1])):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if cand not in roots and eval_at(p, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def charpoly(matrix: Sequence[Sequence[int]]) -> tuple[list[int], list[list[list[int]]]]:
    """det(xI - M) and adj(xI - M) of an integer matrix, by Faddeev-LeVerrier.

    Returns the ascending coefficients of the monic characteristic polynomial
    c_0 + ... + x^n and the integer matrices B_0..B_(n-1) with adj(xI - M) =
    sum B_k x^(n-1-k): B_0 = I, B_k = M B_(k-1) + c_(n-k) I, c_(n-k) =
    -tr(M B_(k-1))/k.  Every division is exact: the c's are integers.
    """
    n = len(matrix)
    coeffs = [0] * n + [1]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    adjugate = []
    for k in range(1, n + 1):
        adjugate.append(b)
        a = [[sum(matrix[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(a[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        for i in range(n):
            a[i][i] += c
        b = a
    return coeffs, adjugate
