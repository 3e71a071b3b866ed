"""Exact arithmetic in Q(lambda) for a Perron inflation factor lambda.

Elements live in Q[x]/(m) where m is the square-free part of a
characteristic polynomial, together with an isolating interval that pins
down which real root of m the symbol stands for.  m need not be
irreducible, so the quotient ring can contain zero divisors; every
predicate here (zero test, sign, comparison) is decided for the *value at
lambda*, which is what all the translation-label bookkeeping needs:

* enclosure first: the field keeps a monotone bisection level, the finest
  level at which some sign has been decided so far.  Both predicates first
  evaluate the element over the isolating interval at that level with
  exact rational interval arithmetic; an enclosure that excludes 0 decides
  "nonzero" and gives the sign.  Any starting level is sound: the cached
  intervals are nested and interval Horner evaluation is inclusion-isotone,
  so an enclosure excludes 0 at a level only if the value is nonzero, and
  then it excludes 0 at every finer level too;
* zero test: when the enclosure contains 0, a(lambda) = 0 iff gcd(a, m)
  still has the isolated root, decided by a Sturm count over the isolating
  interval -- no numerics.  A value that is zero at lambda always reaches
  this certificate;
* sign: after a failed zero test, bisect further up from the field's level
  until 0 is excluded (termination is guaranteed because a(lambda) != 0),
  and raise the level to where the sign was decided;
* division: divide modulo m with the factors of m that vanish away from
  lambda deflated out, which is always possible and keeps the quotient a
  valid representative of the quotient value.

Internally every element is reduced modulo a deflated modulus (rational
roots of m other than lambda stripped), so representatives are canonical in
all the desk-scale cases, but correctness never relies on that.

Decimal output is floor truncation certified by exact comparisons, so it is
monotone with respect to compare().  All values are immutable; the only
mutable state on the field is monotone: the cache of interval refinements
and the level that last decided a sign.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import ratpoly as rp
from .errors import FieldMismatch, NoRootAboveOne, ParseError

_DECIMAL_GUARD = 8  # extra bisection digits before switching to exact floor search


class ModulusField:
    """Q[x]/(modulus) with one marked real root in (lo, hi), the Perron root."""

    def __init__(self, modulus: rp.Poly, lo: Fraction, hi: Fraction):
        self.modulus = rp.poly(modulus)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if rp.degree(self.modulus) < 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if rp.gcd(self.modulus, rp.derivative(self.modulus)) != [Fraction(1)]:
            raise ValueError("modulus must be square-free")
        if rp.count_roots_halfopen(self.modulus, self.lo, self.hi) != 1:
            raise ValueError("isolating interval must contain exactly one root")
        self.rational_root: Fraction | None = None
        reduced = self.modulus
        for r in rp.rational_roots(self.modulus):
            if self.lo < r < self.hi:
                self.rational_root = r
            else:
                reduced = rp.divmod_poly(reduced, rp.poly([-r, 1]))[0]
        if self.rational_root is not None:
            reduced = rp.poly([-self.rational_root, 1])
        self._reduced = reduced
        assert rp.count_roots_halfopen(self._reduced, self.lo, self.hi) == 1
        # Monotone bisection cache; entry k has width (hi-lo)/2^k.
        self._intervals: list[tuple[Fraction, Fraction]] = [(self.lo, self.hi)]
        # Finest refinement level at which a sign has been decided; only grows.
        self._level = 0

    # -- interval refinement -------------------------------------------------

    def refined(self, k: int) -> tuple[Fraction, Fraction]:
        if self.rational_root is not None:
            return self.rational_root, self.rational_root
        cache = self._intervals
        while len(cache) <= k:
            lo, hi = cache[-1]
            mid = (lo + hi) / 2
            v = rp.eval_at(self._reduced, mid)
            assert v != 0, "reduced modulus has no rational roots"
            if rp.count_roots_halfopen(self._reduced, lo, mid) == 1:
                cache.append((lo, mid))
            else:
                cache.append((mid, hi))
        return cache[k]

    # -- element factories ---------------------------------------------------

    def element(self, coeffs) -> AlgebraicNumber:
        return AlgebraicNumber(self, coeffs)

    def rational(self, q) -> AlgebraicNumber:
        return AlgebraicNumber(self, [Fraction(q)])

    @property
    def zero(self) -> AlgebraicNumber:
        return self.rational(0)

    @property
    def one(self) -> AlgebraicNumber:
        return self.rational(1)

    def lam(self) -> AlgebraicNumber:
        return AlgebraicNumber(self, [Fraction(0), Fraction(1)])

    def __eq__(self, other):
        return (
            isinstance(other, ModulusField)
            and self.modulus == other.modulus
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((tuple(self.modulus), self.lo, self.hi))

    def __repr__(self):
        return f"ModulusField({render_poly_x(self.modulus)}, root in ({self.lo}, {self.hi}))"


def render_poly_x(p: rp.Poly) -> str:
    return _render(p, "x")


def field_from_charpoly(charpoly, which_root: str = "perron") -> ModulusField:
    """Field carrying the largest real root (> 1) of a characteristic polynomial.

    The modulus is the square-free part of the input; the isolating interval
    is found by bisecting down from the Cauchy bound until the Sturm count
    over (lo, hi] is exactly 1.
    """
    if which_root != "perron":
        raise ValueError(f"unsupported root selector: {which_root!r}")
    p = rp.poly(charpoly)
    if rp.degree(p) < 1:
        raise ValueError("charpoly must have degree >= 1")
    m = rp.squarefree_part(p)
    for c in m:
        if c.denominator != 1:
            raise ValueError("charpoly must have integer coefficients")
    lo = Fraction(1)
    hi = Fraction(1) + max(abs(c) for c in m[:-1]) if rp.degree(m) >= 1 else Fraction(2)
    if hi <= lo:
        hi = lo + 1
    if rp.count_roots_halfopen(m, lo, hi) == 0:
        raise NoRootAboveOne(f"{render_poly_x(m)} has no real root above 1")
    while rp.count_roots_halfopen(m, lo, hi) > 1:
        mid = _cut_avoiding_roots(m, lo, hi)
        if rp.count_roots_halfopen(m, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return ModulusField(m, lo, hi)


def _cut_avoiding_roots(m: rp.Poly, lo: Fraction, hi: Fraction) -> Fraction:
    for den in (2, 3, 5, 7, 11):
        cut = lo + (hi - lo) / den
        if rp.eval_at(m, cut) != 0:
            return cut
    raise AssertionError("could not find a cut avoiding roots")  # > deg(m) tries


class AlgebraicNumber:
    """Element of Q(lambda), stored as rational coefficients of a polynomial
    in lambda of degree below deg(modulus)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ModulusField, coeffs):
        p = rp.poly(coeffs)
        if rp.degree(p) >= rp.degree(field._reduced):
            p = rp.rem(p, field._reduced)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(p))

    def __setattr__(self, *args):
        raise AttributeError("AlgebraicNumber is immutable")

    # -- ring operations -----------------------------------------------------

    def _check(self, other: AlgebraicNumber) -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("operands belong to different fields")

    def _coerce(self, other) -> AlgebraicNumber:
        if isinstance(other, AlgebraicNumber):
            self._check(other)
            return other
        return AlgebraicNumber(self.field, [Fraction(other)])

    def __add__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        return AlgebraicNumber(self.field, rp.add(list(self.coeffs), list(other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        return AlgebraicNumber(self.field, rp.sub(list(self.coeffs), list(other.coeffs)))

    def __rsub__(self, other) -> AlgebraicNumber:
        return self._coerce(other) - self

    def __neg__(self) -> AlgebraicNumber:
        return AlgebraicNumber(self.field, rp.neg(list(self.coeffs)))

    def __mul__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        return AlgebraicNumber(self.field, rp.mul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def scale(self, q) -> AlgebraicNumber:
        return AlgebraicNumber(self.field, rp.scale(list(self.coeffs), Fraction(q)))

    def __truediv__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        return other.inverse() * self

    def __rtruediv__(self, other) -> AlgebraicNumber:
        return self._coerce(other) / self

    def __pow__(self, k: int) -> AlgebraicNumber:
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> AlgebraicNumber:
        """Multiplicative inverse of the value at lambda.

        The modulus may share factors with self away from lambda; those are
        deflated before running the extended Euclidean algorithm, so the
        result q satisfies q(lambda) * self(lambda) = 1 even when self is a
        zero divisor of the ambient ring.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by a value that is zero at lambda")
        f = self.field
        m = f._reduced
        a = rp.poly(self.coeffs)
        g = rp.gcd(a, m)
        if rp.degree(g) >= 1:
            m = rp.divmod_poly(m, g)[0]
        inv = _ext_gcd_inverse(a, m)
        return AlgebraicNumber(f, inv)

    # -- decision procedures ---------------------------------------------------

    def _sign_at(self, k: int) -> int | None:
        """+1 or -1 if the enclosure over the level-k interval excludes 0,
        None if it does not decide."""
        lo, hi = self.field.refined(k)
        vlo, vhi = rp.eval_interval(self.coeffs, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        return None

    def is_zero(self) -> bool:
        p = self.coeffs
        if not p:
            return True
        if len(p) == 1 or self._sign_at(self.field._level) is not None:
            return False
        g = rp.gcd(p, self.field._reduced)
        if rp.degree(g) < 1:
            return False
        return rp.count_roots_halfopen(g, self.field.lo, self.field.hi) >= 1

    def sign(self) -> int:
        f = self.field
        s = self._sign_at(f._level)
        if s is not None:
            return s
        if self.is_zero():
            return 0
        k = f._level
        while s is None:
            k += 1
            s = self._sign_at(k)
        f._level = k
        return s

    def compare(self, other) -> int:
        return (self - other).sign()

    def equals(self, other) -> bool:
        return (self - self._coerce(other)).is_zero()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def to_decimal(self, digits: int) -> str:
        """Certified floor truncation to `digits` places."""
        scale = 10**digits
        k = 0
        while True:
            lo, hi = self.field.refined(k)
            vlo, vhi = rp.eval_interval(list(self.coeffs), lo, hi)
            if (vhi - vlo) * scale < 1:
                break
            k += 1
            if k > 64 * (digits + _DECIMAL_GUARD):
                break
        m = (vlo * scale).__floor__()
        # the bisection estimate can be off by one ulp; fix it exactly
        while (self - Fraction(m + 1, scale)).sign() >= 0:
            m += 1
        while (self - Fraction(m, scale)).sign() < 0:
            m -= 1
        sign = "-" if m < 0 else ""
        q, r = divmod(abs(m), scale)
        return f"{sign}{q}.{r:0{digits}d}" if digits else f"{sign}{q}"

    # -- text form -------------------------------------------------------------

    def render(self) -> str:
        return _render(list(self.coeffs), "L")

    def __repr__(self):
        return f"<{self.render()}>"


def _ext_gcd_inverse(a: rp.Poly, m: rp.Poly) -> rp.Poly:
    """u with u*a = 1 (mod m); requires gcd(a mod m, m) = 1."""
    r0, r1 = rp.poly(m), rp.rem(a, m)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r2 = rp.divmod_poly(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, rp.sub(s0, rp.mul(q, s1))
    if rp.degree(r0) != 0:
        raise ZeroDivisionError("element not invertible modulo deflated modulus")
    return rp.rem(rp.scale(s0, 1 / r0[0]), m)


def lambda_pow(field: ModulusField, k: int) -> AlgebraicNumber:
    if k < 0:
        raise ValueError("k must be >= 0")
    return field.lam() ** k


# -- L-polynomial text format -------------------------------------------------
#
# Lowest degree first, e.g. "1/2 + 1/2*L" for (1 + lambda)/2, "-1 + L^2".

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>[+-]?\d+(?:/\d+)?|[+-])?\s*(?P<star>\*)?\s*(?P<lpart>L(?:\^(?P<exp>\d+))?)?\s*$"
)


def _render(p: list[Fraction], sym: str) -> str:
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


def parse_algebraic(field: ModulusField, text: str) -> AlgebraicNumber:
    """Parse the L-polynomial grammar produced by AlgebraicNumber.render()."""
    s = text.strip()
    if not s:
        raise ParseError("empty algebraic-number literal")
    # split into signed terms
    terms: list[str] = []
    buf = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*/^" and buf.strip():
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    coeffs: dict[int, Fraction] = {}
    for t in terms:
        m = _TERM_RE.match(t.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("lpart") is None):
            raise ParseError(f"bad term in algebraic-number literal: {t.strip()!r}")
        c = m.group("coeff")
        sign_only = c in ("+", "-")
        coeff = Fraction(1) if c is None else (Fraction(c + "1") if sign_only else Fraction(c))
        if m.group("lpart") is None:
            k = 0
        else:
            k = int(m.group("exp")) if m.group("exp") else 1
        coeffs[k] = coeffs.get(k, Fraction(0)) + coeff
    n = max(coeffs) + 1 if coeffs else 1
    return field.element([coeffs.get(i, Fraction(0)) for i in range(n)])
