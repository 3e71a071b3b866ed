"""Dense univariate polynomials over the rationals.

Polynomials are lists of Fractions in ascending degree order, with no
trailing zeros (the zero polynomial is the empty list).  Everything here is
exact; no floats anywhere.  Degrees stay desk-scale (<= ~10), so plain
Euclidean algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
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


def eval_interval(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation: encloses {p(x) : lo <= x <= hi} exactly.
    For lo >= 0 the signs of alo and ahi pick the extreme endpoint products."""
    alo, ahi = Fraction(0), Fraction(0)
    if lo >= 0:
        for c in reversed(p):
            alo, ahi = alo * (lo if alo >= 0 else hi) + c, ahi * (hi if ahi >= 0 else lo) + c
        return alo, ahi
    for c in reversed(p):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


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
    den = 1
    for c in p:
        den = den * c.denominator // _gcd_int(den, c.denominator)
    ip = [int(c * den) for c in p]
    while ip and ip[0] == 0:
        ip = ip[1:]  # factor x; root 0 recorded below
    roots = []
    if eval_at(p, 0) == 0:
        roots.append(Fraction(0))
    if not ip:
        return roots
    for num in _divisors(abs(ip[0])):
        for d in _divisors(abs(ip[-1])):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if cand not in roots and eval_at(p, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def charpoly(matrix: Sequence[Sequence[int]]) -> Poly:
    """Characteristic polynomial det(xI - M), by Faddeev-LeVerrier.

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
