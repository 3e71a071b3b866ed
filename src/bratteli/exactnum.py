"""Exact arithmetic in Q(lambda) for a Perron inflation factor lambda.

Elements live in Q[x]/(m), m the square-free part of a characteristic
polynomial, with an isolating interval (lo, hi] that pins down which real
root of m the symbol stands for.  m need not be irreducible, so the ring can
have zero divisors; every predicate (zero test, sign, comparison) is decided
for the *value at lambda*:

* Sturm certificate: one integer Sturm sequence (`ratpoly.sturm_sequence`)
  isolates the root when the field is built and certifies that m is
  square-free with exactly one root in (lo, hi];
* refinement: the reduced modulus (m with its rational roots other than
  lambda divided out) is square-free, has no rational root and exactly one
  root in (lo, hi], an irrational simple sign change; so bisection keeps
  the half whose midpoint sign (`ratpoly.eval_scaled`, in integers)
  differs from the lower endpoint's, with no Sturm count per level.  The
  level-k interval is (lo + a w/2^k, lo + (a+1) w/2^k], w = hi - lo, so the
  field keeps its finest level K and that level's index a; level k <= K has
  index a >> (K - k), and `refined(k)` returns it as integers (l, h, d);
* enclosure first: a decision first encloses the element over the interval
  of the field's level by interval Horner evaluation in integers
  (`ratpoly.enclose` of those (l, h, d)); an enclosure that excludes 0
  decides "nonzero" and the sign.  Any level is sound: the intervals are
  nested and the evaluation is inclusion-isotone;
* zero test: when the enclosure contains 0, a(lambda) = 0 iff the integer
  gcd(a, m) still has the isolated root, decided by an integer Sturm count
  over (lo, hi] -- no numerics.  A value zero at lambda always reaches it;
  `is_zero` and `inverse` (which needs the gcd) run it at once;
* sign: first a ladder, bisecting up from the field's level to at most
  _SIGN_LADDER, which decides most nonzero values without a gcd; then the
  certificate, then bisection on up until 0 is excluded (a(lambda) != 0
  guarantees termination); each level is enclosed once;
* division: the factors of m that vanish away from lambda are divided out
  exactly in integers; the inverse modulo the rest is one fraction-free
  solve (`ratpoly.solve_fraction_free`).  Integer vectors over one
  denominator come out of `ModulusField.ratios` and `numerators`, multiply
  by `product` and go in by `over`.

Elements are reduced modulo the reduced modulus, so representatives are
canonical in all the desk-scale cases, but correctness never relies on that.

Decimal output is floor truncation (-phi prints as -1.618034), monotone with
compare().  It refines up from the field's level until the enclosure
[vlo/den, vhi/den] lies in one grid cell, m = vlo*10^d // den and
vhi*10^d < (m + 1)*den, so m is the certified floor.  Only an enclosure
still straddling a grid point when 2^8 times narrower than a cell falls
back to exact signs of the value minus m/10^d and (m+1)/10^d.  Values are
immutable; the field's only mutable state is monotone: the level K, which
every sign, decimal and digit bound reads and raises, and its index a.  A
float never enters: element, rational, scale and mixed operations refuse it
(TypeError).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from . import ratpoly as rp
from .errors import FieldMismatch, NoRootAboveOne, ParseError

_DECIMAL_GUARD = 8  # bisection levels past the grid spacing before switching to exact floor search
# sign() bisects up to this level before the gcd + Sturm certificate, which
# costs about five enclosures.  A build-family pass leaves 85 nonzero signs
# open at the field's level; all but one are decided by level 12, with no more
# bisection steps in all.  The field keeps its level, so it climbs this once.
_SIGN_LADDER = 12
HALF = Fraction(1, 2)  # the factor of every halving scale(), built once rather than parsed per call


class ModulusField:
    """Q[x]/(modulus) with one marked real root in (lo, hi], the Perron root."""

    def __init__(self, modulus, lo: Fraction, hi: Fraction, sturm: list[rp.IntPoly] | None = None):
        """A monic integer `modulus`; `sturm`, if given, is its Sturm sequence."""
        m = rp.poly(modulus)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if rp.degree(m) < 1 or m[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if any(c.denominator != 1 for c in m):
            raise ValueError("modulus must have integer coefficients")
        self.modulus: rp.IntPoly = [c.numerator for c in m]
        sturm = sturm or rp.sturm_sequence(self.modulus)
        if len(sturm[-1]) > 1:
            raise ValueError("modulus must be square-free")
        if rp.sign_variations(sturm, self.lo) - rp.sign_variations(sturm, self.hi) != 1:
            raise ValueError("isolating interval must contain exactly one root")
        self.rational_root: int | None = None
        reduced = self.modulus
        for r in rp.integer_roots(self.modulus):  # its only rational roots: the modulus is monic
            if self.lo < r <= self.hi:  # lambda is rational: x - lambda is the reduced modulus
                self.rational_root, reduced = r, [-r, 1]
                break
            reduced = rp.exact_quotient(reduced, [-r, 1])
        self._reduced = reduced  # monic integer: elements reduce by it, signs come from it
        if reduced is not self.modulus:  # else the check above counted this very sequence
            sturm = rp.sturm_sequence(reduced)
            assert rp.sign_variations(sturm, self.lo) - rp.sign_variations(sturm, self.hi) == 1
        q = lcm(self.lo.denominator, self.hi.denominator)
        # (lo q, w q, q), w = hi - lo: level k is (lo q 2^k + a w q, ... + w q] over q 2^k
        lo_q, hi_q = (x.numerator * (q // x.denominator) for x in (self.lo, self.hi))
        self._base = lo_q, hi_q - lo_q, q
        # Sign of the reduced modulus at every lower endpoint of a level.
        self._lo_positive = rp.eval_scaled(self._reduced, lo_q, q) > 0
        # The finest level bisected and its index; both only grow.
        self._level = self._index = 0
        # Elements are immutable, so each field builds these once: empty sums
        # and trivial loops share one object.
        self.zero = AlgebraicNumber(self, (), normalised=True)
        self.one = AlgebraicNumber(self, (Fraction(1),), normalised=True)

    # -- interval refinement -------------------------------------------------

    def refined(self, k: int) -> tuple[int, int, int]:
        """(l, h, d): the level-k interval (l/d, h/d], bisected up to level k first."""
        if self.rational_root is not None:
            return self.rational_root, self.rational_root, 1
        lo, w, q = self._base
        while self._level < k:
            mid = 2 * self._index + 1  # the upper half's index one level down
            v = rp.eval_scaled(self._reduced, (lo << self._level + 1) + mid * w, q << self._level + 1)
            assert v != 0, "reduced modulus has no rational roots"
            self._index = mid if (v > 0) == self._lo_positive else mid - 1
            self._level += 1
        l = (lo << k) + (self._index >> self._level - k) * w
        return l, l + w, q << k

    def lam_power_digits(self, n: int) -> int:
        """An upper bound on the decimal digits of the integer part of
        lambda^n, n >= 0, in integers and O(log n) products, from the upper
        end h/d of a level-k interval, which later decisions share.  Any k is
        sound (h/d >= lambda > 1); 2^k >= 256 n w for the width w makes h/d <
        lambda (1 + 1/(256 n)), so (h/d)^n < e^(1/256) lambda^n."""
        _, w, q = self._base
        _, h, d = self.refined(n.bit_length() + (-(-w // q)).bit_length() + 8)
        m, e = _power_upper(h, d, n)
        return max(0, m.bit_length() + e) * 30103 // 100000 + 1  # log10(2) < 0.30103

    # -- element factories ---------------------------------------------------

    def element(self, coeffs) -> AlgebraicNumber:
        return AlgebraicNumber(self, [_exact(c) for c in coeffs])

    def rational(self, q) -> AlgebraicNumber:
        return AlgebraicNumber(self, [_exact(q)])

    def over(self, vec: rp.IntPoly, den: int) -> AlgebraicNumber:
        """vec/den for an integer den > 0 and a reduced integer vector vec: one
        Fraction per coefficient (the general constructor would build two)."""
        n = len(vec)
        while n and not vec[n - 1]:
            n -= 1
        return AlgebraicNumber(self, tuple(Fraction(c, den) for c in vec[:n]), normalised=True)

    def numerators(self, x: AlgebraicNumber, den: int) -> rp.IntPoly:
        """v, padded to deg m entries, with x = v/den: over's inverse, for den a multiple of x's denominators."""
        v = [c.numerator * (den // c.denominator) for c in x.coeffs]
        return v + [0] * (len(self._reduced) - 1 - len(v))

    def product(self, u: rp.IntPoly, v: rp.IntPoly) -> rp.IntPoly:
        """u * v of nonempty integer vectors, reduced (in integers: the reduced modulus is monic), padded to deg m."""
        r = rp.reduce_monic(rp.int_mul(u, v), self._reduced)
        return r + [0] * (len(self._reduced) - 1 - len(r))

    def ratios(self, columns: list[rp.IntPoly]) -> tuple[int, list[rp.IntPoly], list[rp.IntPoly]]:
        """(D, L, S), D > 0: L_x/D = c_x/c_0 and S_x/D = lambda L_x/D for integer
        polynomials c_x, L_0 = [D], each reduced and padded to deg m entries, from
        one inverse and integer products.  ZeroDivisionError if c_0(lambda) = 0."""
        inv = AlgebraicNumber(self, columns[0]).inverse()
        den = lcm(*(c.denominator for c in inv.coeffs))
        v, m = self.numerators(inv, den), self._reduced
        lengths = [[den]] + [rp.reduce_monic(rp.int_mul(c, v), m) for c in columns[1:]]
        spans = [rp.reduce_monic([0, *p], m) for p in lengths]
        return den, *([p + [0] * (len(m) - 1 - len(p)) for p in vs] for vs in (lengths, spans))

    def lam(self) -> AlgebraicNumber:
        return AlgebraicNumber(self, [Fraction(0), Fraction(1)])

    def __eq__(self, other):
        mine = (self.modulus, self.lo, self.hi)
        return isinstance(other, ModulusField) and mine == (other.modulus, other.lo, other.hi)

    def __hash__(self):
        return hash((tuple(self.modulus), self.lo, self.hi))

    def __repr__(self):
        return f"ModulusField({render_poly_x(self.modulus)}, root in ({self.lo}, {self.hi}))"


def render_poly_x(p: rp.Poly) -> str:
    return _render(p, "x")


def field_from_charpoly(charpoly) -> ModulusField:
    """Field carrying the largest real root (> 1) of a characteristic polynomial.

    The modulus is the square-free part of the input, by exact division with
    the last entry of the input's integer Sturm sequence.  The modulus's own
    sequence (the same one if the input is square-free) is built once: it
    isolates the root, bisecting down from the Cauchy bound until (lo, hi]
    holds exactly one, and the field's checks read it.
    """
    p = rp.integer_primitive(rp.poly(charpoly))
    if len(p) < 2:
        raise ValueError("charpoly must have degree >= 1")
    seq = rp.sturm_sequence(p)
    m = rp.exact_quotient(p, seq[-1])
    if abs(m[-1]) != 1:  # else the monic square-free part has a fractional coefficient
        raise ValueError("charpoly must have integer coefficients")
    m = [c * m[-1] for c in m]
    if len(seq[-1]) > 1:
        seq = rp.sturm_sequence(m)
    lo, hi = Fraction(1), Fraction(1 + max(1, *(abs(c) for c in m[:-1])))
    vlo, vhi = rp.sign_variations(seq, lo), rp.sign_variations(seq, hi)
    if vlo == vhi:
        raise NoRootAboveOne(f"{render_poly_x(m)} has no real root above 1")
    while vlo - vhi > 1:
        mid = _cut_avoiding_roots(m, lo, hi)
        vmid = rp.sign_variations(seq, mid)
        if vmid > vhi:
            lo, vlo = mid, vmid
        else:
            hi, vhi = mid, vmid
    return ModulusField(m, lo, hi, seq)


def _power_upper(h: int, d: int, n: int) -> tuple[int, int]:
    """(m, e) with (h/d)^n <= m * 2^e for h, d > 0, m of about 64 bits:
    square and multiply in binary floating point, rounding every product up."""

    def up(m, e):
        s = max(0, m.bit_length() - 64)
        return -(-m >> s), e + s

    base = up(-((-h << 64) // d), -64)  # h/d rounded up
    out = (1, 0)
    while n:
        if n & 1:
            out = up(out[0] * base[0], out[1] + base[1])
        base = up(base[0] * base[0], 2 * base[1])
        n >>= 1
    return out


def _cut_avoiding_roots(m: rp.IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    for den in (2, 3, 5, 7, 11):
        cut = lo + (hi - lo) / den
        if rp.eval_scaled(m, cut.numerator, cut.denominator) != 0:
            return cut
    raise AssertionError("could not find a cut avoiding roots")  # > deg(m) tries


class AlgebraicNumber:
    """Element of Q(lambda), stored as rational coefficients of a polynomial
    in lambda of degree below deg(modulus)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ModulusField, coeffs, normalised: bool = False):
        """`normalised=True` takes `coeffs` as given: a tuple of Fractions with
        no trailing zero and fewer entries than the reduced modulus has."""
        if not normalised:
            p = rp.poly(coeffs)
            if len(p) >= len(field._reduced):
                p = rp.reduce_monic(p, field._reduced)
            coeffs = tuple(p)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("AlgebraicNumber is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not through __setattr__
        return AlgebraicNumber, (self.field, self.coeffs, True)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: AlgebraicNumber) -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("operands belong to different fields")

    def _coerce(self, other) -> AlgebraicNumber:
        if isinstance(other, AlgebraicNumber):
            self._check(other)
            return other
        return AlgebraicNumber(self.field, [_exact(other)])

    # +, -, negation and scale cannot raise the degree: no reduction needed
    def __add__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        return AlgebraicNumber(self.field, _sum(self.coeffs, other.coeffs), normalised=True)

    __radd__ = __add__

    def __sub__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        minus = tuple(-c for c in other.coeffs)
        return AlgebraicNumber(self.field, _sum(self.coeffs, minus), normalised=True)

    def __rsub__(self, other) -> AlgebraicNumber:
        return self._coerce(other) - self

    def __neg__(self) -> AlgebraicNumber:
        return AlgebraicNumber(self.field, tuple(-c for c in self.coeffs), normalised=True)

    def __mul__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        return AlgebraicNumber(self.field, rp.mul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def scale(self, q) -> AlgebraicNumber:
        q = _exact(q)
        return AlgebraicNumber(self.field, tuple(q * c for c in self.coeffs) if q else (), normalised=True)

    def __truediv__(self, other) -> AlgebraicNumber:
        other = self._coerce(other)
        return other.inverse() * self

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

        The modulus may share factors with self away from lambda; deflating
        them keeps q(lambda) * self(lambda) = 1 when self is a zero divisor of
        the ambient ring.  With self = num/s, num integral, and A the product
        by num modulo the deflated m, 1/self is x with A x = s e_0, one
        fraction-free solve: the unique inverse of degree below deg m.
        """
        zero, g = self._zero_test()
        if zero:
            raise ZeroDivisionError("division by a value that is zero at lambda")
        m = self.field._reduced
        if g is None:
            g = rp.gcd(self.coeffs, m)
        if len(g) > 1:
            m = rp.exact_quotient(m, g)
        n = len(m) - 1
        s = lcm(*(c.denominator for c in self.coeffs))
        columns = [rp.reduce_monic([c.numerator * (s // c.denominator) for c in self.coeffs], m)]
        while len(columns) < n:  # num * x^j mod m
            columns.append(rp.reduce_monic([0, *columns[-1]], m))
        x, d = rp.solve_fraction_free(columns, [s] + [0] * (n - 1))
        return AlgebraicNumber(self.field, [Fraction(c, d) for c in x])

    # -- decision procedures ---------------------------------------------------

    def _sign_at(self, k: int) -> int | None:
        """+1 or -1 if the enclosure over the level-k interval excludes 0,
        None if it does not decide."""
        vlo, vhi, _ = rp.enclose(self.coeffs, *self.field.refined(k))
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        return None

    def is_zero(self) -> bool:
        return self._zero_test()[0]

    def _zero_test(self) -> tuple[bool, rp.IntPoly | None]:
        """Whether the value at lambda is zero, and gcd(self, reduced modulus)
        when the enclosure did not decide (None when it was not computed)."""
        p = self.coeffs
        if not p:
            return True, None
        if len(p) == 1 or self._sign_at(self.field._level) is not None:
            return False, None
        return self._vanishes()

    def _vanishes(self) -> tuple[bool, rp.IntPoly]:
        """Zero at lambda iff g = gcd(self, reduced modulus) has the root; and g."""
        g = rp.gcd(self.coeffs, self.field._reduced)
        return len(g) >= 2 and rp.count_roots_halfopen(g, self.field.lo, self.field.hi) >= 1, g

    def sign(self) -> int:
        if not self.coeffs:
            return 0
        k = self.field._level
        s = self._sign_at(k)
        while s is None and k < _SIGN_LADDER:
            k += 1
            s = self._sign_at(k)
        if s is None and self._vanishes()[0]:
            return 0
        while s is None:
            k += 1
            s = self._sign_at(k)
        return s

    def compare(self, other) -> int:
        return (self - other).sign()

    def equals(self, other) -> bool:
        """Equal at lambda: identical representatives are, in any modulus;
        others (possible in a reducible modulus) take the exact zero test."""
        other = self._coerce(other)
        return self.coeffs == other.coeffs or (self - other).is_zero()

    def to_decimal(self, digits: int) -> str:
        """Certified floor truncation to `digits` >= 0 places."""
        if digits < 0:
            raise ValueError(f"digits must be >= 0, got {digits}")
        f = self.field
        scale = 10**digits
        k = f._level
        while True:
            vlo, vhi, den = rp.enclose(self.coeffs, *f.refined(k))
            m = vlo * scale // den
            inside = vhi * scale < (m + 1) * den  # m <= vlo*scale/den <= vhi*scale/den < m+1
            narrow = (vhi - vlo) * (scale << _DECIMAL_GUARD) < den
            if inside or narrow or k > 64 * (digits + _DECIMAL_GUARD):
                break
            k += 1
        if not inside:
            # the enclosure straddles a grid point; settle the floor exactly
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


def _exact(q) -> Fraction:
    if isinstance(q, float):
        raise TypeError(f"float {q!r} in exact arithmetic; pass an int, a Fraction or a str")
    return Fraction(q)


def _sum(p: tuple, q: tuple) -> tuple:
    """p + q of normalised coefficient tuples, normalised."""
    out = [a + b for a, b in zip(p, q)]
    out.extend(p[len(q) :] or q[len(p) :])
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# -- L-polynomial text format -------------------------------------------------
#
# Lowest degree first, e.g. "1/2 + 1/2*L" for (1 + lambda)/2, "-1 + L^2".

_TERM_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/0*[1-9]\d*)?)?\s*(?P<star>\*)?\s*(?P<lpart>L(?:\^(?P<exp>\d+))?)?\s*$",
    re.ASCII,
)


def _render(p: list[Fraction], sym: str) -> str:
    """Fractions or ints, read through their integer numerator and denominator."""
    parts = []
    for k, c in enumerate(p):
        num, den = c.numerator, c.denominator
        if not num:
            continue
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if k:
            mag = ("" if mag == "1" else f"{mag}*") + sym + (f"^{k}" if k > 1 else "")
        parts.append((num < 0, mag))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, body in parts[1:]:
        out += (" - " if negative else " + ") + body
    return out


def parse_algebraic(field: ModulusField, text: str) -> AlgebraicNumber:
    """Parse the L-polynomial grammar of AlgebraicNumber.render(); a bad term,
    or a power of L at or above the modulus degree, is a ParseError naming it."""
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
    degree = rp.degree(field.modulus)
    coeffs: dict[int, Fraction] = {}
    for t in terms:
        m = _TERM_RE.match(t)
        bad = f"bad term in algebraic-number literal: {t.strip()!r}"
        # a coefficient, an L-part or both; a "*" only between the two
        if not m or not (m["coeff"] or m["lpart"]) or m["star"] and not (m["coeff"] and m["lpart"]):
            raise ParseError(bad)
        try:
            coeff = Fraction(m["coeff"] or 1) * (-1 if m["sign"] == "-" else 1)
            k = int(m["exp"] or 1) if m["lpart"] else 0
        except ValueError as exc:  # a number past int()'s digit limit
            raise ParseError(f"{bad} ({exc})") from exc
        if k >= degree:  # render() never writes one; refused before a list of k entries
            raise ParseError(f"{bad} (exponent {k} is not below the modulus degree {degree})")
        coeffs[k] = coeffs.get(k, Fraction(0)) + coeff
    n = max(coeffs) + 1
    return field.element([coeffs.get(i, Fraction(0)) for i in range(n)])
