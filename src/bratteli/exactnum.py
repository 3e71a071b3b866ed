"""Exact arithmetic in Q(lambda) for a Perron inflation factor lambda.

Elements live in Q[x]/(m), m the square-free part of a characteristic
polynomial, with an isolating interval (lo, hi] that pins down which real
root of m the symbol stands for.  m need not be irreducible, so the ring can
have zero divisors; every predicate (zero test, sign, comparison) is decided
for the *value at lambda*:

* Sturm certificate: `ModulusField(charpoly)`, the one way to build a
  field, takes m monic and square-free; one integer Sturm sequence
  (`ratpoly.sturm_sequence`) bisects from the Cauchy bound at midpoints
  until (lo, hi] holds one root, the same (lo, hi] for the same m: m
  identifies the field.  A midpoint at a root of m is harmless: the counts
  are half-open, so the root goes with the lower half, and a cut that stays
  an endpoint is lo, a smaller root that the reduced modulus divides out,
  or hi, lambda itself, an integer that `ratpoly.integer_roots` finds;
* refinement: the reduced modulus (m with its rational roots other than
  lambda divided out) is square-free, has no rational root and exactly one
  root in (lo, hi], an irrational simple sign change; so bisection keeps
  the half whose midpoint sign (`ratpoly.eval_scaled`, in integers)
  differs from the lower endpoint's, with no Sturm count per level.  The
  level-k interval is (lo + a w/2^k, lo + (a+1) w/2^k], w = hi - lo, so the
  field keeps its finest level K and that level's index a; level k <= K has
  index a >> (K - k), and `refined(k)` returns it as integers (l, h, d),
  l >= d as lo >= 1 (a rational lambda is an integer above 1);
* enclosure first: a decision first encloses the element over the interval
  of the field's level by interval Horner evaluation in integers
  (`ratpoly.enclose` of those (l, h, d)); an enclosure that excludes 0
  decides "nonzero" and the sign.  Any level is sound: the intervals are
  nested and the evaluation is inclusion-isotone;
* zero certificate: p(lambda) = 0 iff the integer gcd(p, m) still has the
  isolated root, by an integer Sturm count over (lo, hi]
  (`ModulusField._vanishes`, for any polynomial p) -- no numerics; a
  singular division runs it alone, for its gcd;
* sign and zero test, one routine (`ModulusField._sign`; `is_zero` is sign
  0): a ladder bisects up from the field's level to at most _SIGN_LADDER,
  deciding most nonzero values without a gcd; then the certificate, which
  every value zero at lambda reaches, then bisection on up until 0 is
  excluded (a(lambda) != 0 guarantees termination); each level is enclosed
  once;
* division: s/num is one fraction-free solve (`ratpoly.solve_fraction_free`)
  with the product by num modulo m, of determinant +-Res(m, num) (m is
  monic): nonsingular proves gcd(num, m) = 1, with no zero test or gcd; only
  singular runs the zero test, divides out the factor of m vanishing away
  from lambda and solves again.

An element is stored as a tuple of Fractions with no trailing zero, reduced
modulo the reduced modulus (canonical in the desk-scale cases; correctness
never relies on it), and the constructor takes only that form.  The one way
in is `ModulusField.element`, one reduction: every factory, scalar operand
and product.  Integer vectors over one denominator (`ratios`, `numerators`,
`product`, each inverse) go in by `over`.  Sums and scaling keep the form.

Decimal output is floor truncation (-phi prints as -1.618034), monotone with
compare().  It refines up from the field's level until the enclosure
[vlo/den, vhi/den] lies in one grid cell, m = vlo*10^d // den and
vhi*10^d < (m + 1)*den, so m is the certified floor.  Only an enclosure
still straddling a grid point when 2^8 times narrower than a cell falls
back to exact signs of the value minus m/10^d and (m+1)/10^d.  Values are
immutable; the field's only mutable state is monotone: the level K, which
every sign, decimal and digit bound reads and raises, and its index a.  A
float never enters: every door refuses it (TypeError).

Public beyond the CLI: `AlgebraicNumber.inverse`, the route of `/` and
negative powers, and `compare`, by which `escape_depth` decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from math import lcm

from . import ratpoly as rp
from .errors import FieldMismatch, NoRootAboveOne

_DECIMAL_GUARD = 8  # bisection levels past the grid spacing before switching to exact floor search
# _sign (every sign and zero test) bisects up to this level before the gcd +
# Sturm certificate, about five enclosures.  A build-family pass leaves 85
# nonzero signs open at the field's level; all but one are decided by level
# 12, with no more bisection steps in all.  The field climbs this once.
_SIGN_LADDER = 12
HALF = Fraction(1, 2)  # the factor of every halving scale(), built once rather than parsed per call
_FRACTION = frozenset({Fraction})  # the one coefficient type of the stored form


class ModulusField:
    """Q[x]/(modulus) with one marked real root in (lo, hi], the Perron root;
    equal, hashed, copied and pickled by the modulus alone."""

    def __init__(self, charpoly):
        """The field of the largest real root, if above 1, of `charpoly`, a
        rational multiple of a monic integer polynomial.  The modulus is its
        square-free part, by exact division with the last entry of its integer
        Sturm sequence; the modulus's own sequence bisects down from the
        Cauchy bound, at midpoints, until (lo, hi] holds exactly one root."""
        p = rp.integer_primitive(rp.poly(map(_exact, charpoly)))
        if len(p) < 2:
            raise ValueError("charpoly must have degree >= 1")
        if abs(p[-1]) != 1:
            raise ValueError("charpoly must be a rational multiple of a monic integer polynomial")
        seq = rp.sturm_sequence(p)
        m = rp.exact_quotient(p, seq[-1])
        m = [c * m[-1] for c in m]
        if len(seq[-1]) > 1:
            seq = rp.sturm_sequence(m)
        lo, hi = Fraction(1), Fraction(1 + max(1, *(abs(c) for c in m[:-1])))
        vlo, vhi = rp.sign_variations(seq, lo), rp.sign_variations(seq, hi)
        if vlo == vhi:
            raise NoRootAboveOne(f"{_render(m, 'x')} has no real root above 1")
        while vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = rp.sign_variations(seq, mid)
            if vmid > vhi:
                lo, vlo = mid, vmid
            else:
                hi, vhi = mid, vmid
        self.modulus, self.lo, self.hi = m, lo, hi
        self.rational_root: int | None = None
        reduced = m
        for r in rp.integer_roots(m):  # its only rational roots: the modulus is monic
            if lo < r <= hi:  # lambda is rational: x - lambda is the reduced modulus
                self.rational_root, reduced = r, [-r, 1]
                break
            reduced = rp.exact_quotient(reduced, [-r, 1])
        self._reduced = reduced  # monic integer: elements reduce by it, signs come from it
        q = lcm(lo.denominator, hi.denominator)
        # (lo q, w q, q), w = hi - lo: level k is (lo q 2^k + a w q, ... + w q] over q 2^k
        lo_q, hi_q = (x.numerator * (q // x.denominator) for x in (lo, hi))
        self._base = lo_q, hi_q - lo_q, q
        # Sign of the reduced modulus at every lower endpoint of a level.
        self._lo_positive = rp.eval_scaled(reduced, lo_q, q) > 0
        # The finest level bisected and its index; both only grow.
        self._level = self._index = 0
        # Immutable, so built once per field: empty sums and trivial loops share them.
        self.zero = AlgebraicNumber(self, ())
        self.one = AlgebraicNumber(self, (Fraction(1),))

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
        """The element of exact coefficients (ints, Fractions or strs), lowest
        degree first, brought to the stored form: reduced once, trailing zeros dropped."""
        p = [_exact(c) for c in coeffs]
        if len(p) >= len(self._reduced):
            p = rp.reduce_monic(p, self._reduced)
        while p and not p[-1]:
            p.pop()
        return AlgebraicNumber(self, tuple(p))

    def rational(self, q) -> AlgebraicNumber:
        return self.element((q,))

    def over(self, vec: rp.IntPoly, den: int) -> AlgebraicNumber:
        """vec/den for an integer den > 0 and an integer vector vec shorter than
        the reduced modulus: one Fraction per coefficient, in the stored form."""
        n = len(vec)
        while n and not vec[n - 1]:
            n -= 1
        return AlgebraicNumber(self, tuple(Fraction(c, den) for c in vec[:n]))

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
        one inverse (x, d) of c_0 reduced by one gcd, and integer products.
        ZeroDivisionError if c_0(lambda) = 0."""
        x, d = self._inverse(columns[0], 1)
        g = igcd(d, *x)
        den, v, m = d // g, [c // g for c in x], self._reduced
        lengths = [[den]] + [rp.reduce_monic(rp.int_mul(c, v), m) for c in columns[1:]]
        spans = [rp.reduce_monic([0, *p], m) for p in lengths]
        return den, *([p + [0] * (len(m) - 1 - len(p)) for p in vs] for vs in (lengths, spans))

    def _inverse(self, num: rp.IntPoly, s: int) -> tuple[rp.IntPoly, int]:
        """(x, d), d > 0, x shorter than the reduced modulus, with x/d = s/num at
        lambda for an integer vector num and s > 0, by the module docstring's division."""
        m = self._reduced
        try:
            return _solve_product(num, s, m)
        except ZeroDivisionError:  # Res(m, num) = 0: num and m share a factor
            zero, g = self._vanishes(num)
        if zero:
            raise ZeroDivisionError("division by a value that is zero at lambda")
        return _solve_product(num, s, rp.exact_quotient(m, g))

    def _vanishes(self, p) -> tuple[bool, rp.IntPoly]:
        """p(lambda) = 0 for a rational or integer p iff g = gcd(p, reduced modulus) has the root; and g."""
        g = rp.gcd(p, self._reduced)
        return len(g) >= 2 and rp.count_roots_halfopen(g, self.lo, self.hi) >= 1, g

    def _sign_at(self, p, k: int) -> int | None:
        """+1 or -1 if p's enclosure over the level-k interval excludes 0, else None."""
        vlo, vhi, _ = rp.enclose(p, *self.refined(k))
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        return None

    def _sign(self, p) -> int:
        """The sign at lambda of a rational or integer polynomial p, by the module
        docstring's ladder: of an element (its sign and zero test) and of an integer length vector."""
        while p and not p[-1]:
            p = p[:-1]
        if not p:
            return 0
        k = self._level
        s = self._sign_at(p, k)
        while s is None and k < _SIGN_LADDER:
            k += 1
            s = self._sign_at(p, k)
        if s is None and self._vanishes(p)[0]:
            return 0
        while s is None:
            k += 1
            s = self._sign_at(p, k)
        return s

    def lam(self) -> AlgebraicNumber:
        return self.element((0, 1))

    def __eq__(self, other):
        return isinstance(other, ModulusField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(tuple(self.modulus))

    def __reduce__(self):  # copies rebuild through __init__: zero and one need the finished field
        return ModulusField, (self.modulus,)

    def __repr__(self):
        return f"ModulusField({_render(self.modulus, 'x')}, root in ({self.lo}, {self.hi}])"


def _solve_product(num: rp.IntPoly, s: int, m: rp.IntPoly) -> tuple[rp.IntPoly, int]:
    """(x, d), d > 0, with num x = d s mod the monic m: one fraction-free solve
    over the columns num x^j mod m, j < deg m; ZeroDivisionError if singular."""
    n = len(m) - 1
    columns = [rp.reduce_monic(num, m)]
    while len(columns) < n:  # num * x^j mod m
        columns.append(rp.reduce_monic([0, *columns[-1]], m))
    x, d = rp.solve_fraction_free(columns, [s] + [0] * (n - 1))
    return (x, d) if d > 0 else ([-c for c in x], -d)


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


class AlgebraicNumber:
    """Element of Q(lambda): rational coefficients of a polynomial in lambda of
    degree below deg(reduced modulus), made by the field's factories."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ModulusField, coeffs: tuple[Fraction, ...]):
        """Only the stored form: a tuple of Fractions, no trailing zero, shorter
        than the reduced modulus.  Anything else is refused, not repaired."""
        n, c = len(field._reduced), coeffs
        if type(c) is not tuple or len(c) >= n or c and not c[-1] or not _FRACTION.issuperset(map(type, c)):
            kinds = "/".join(sorted({type(x).__name__ for x in (c if isinstance(c, (list, tuple)) else [c])}))
            raise TypeError(f"{c!r} of {kinds} is not the stored form of an element: use ModulusField.element")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("AlgebraicNumber is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not through __setattr__
        return AlgebraicNumber, (self.field, self.coeffs)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> AlgebraicNumber:
        if not isinstance(other, AlgebraicNumber):
            return self.field.rational(other)
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("operands belong to different fields")
        return other

    # +, -, negation and scale cannot raise the degree: no reduction needed
    def __add__(self, other) -> AlgebraicNumber:
        return AlgebraicNumber(self.field, _sum(self.coeffs, self._coerce(other).coeffs))

    __radd__ = __add__

    def __sub__(self, other) -> AlgebraicNumber:
        return AlgebraicNumber(self.field, _sum(self.coeffs, tuple(-c for c in self._coerce(other).coeffs)))

    def __rsub__(self, other) -> AlgebraicNumber:
        return self._coerce(other) - self

    def __neg__(self) -> AlgebraicNumber:
        return AlgebraicNumber(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> AlgebraicNumber:
        return self.field.element(rp.mul(self.coeffs, self._coerce(other).coeffs))

    __rmul__ = __mul__

    def scale(self, q) -> AlgebraicNumber:
        q = _exact(q)
        return AlgebraicNumber(self.field, tuple(q * c for c in self.coeffs) if q else ())

    def __truediv__(self, other) -> AlgebraicNumber:
        return self._coerce(other).inverse() * self

    def __pow__(self, k: int) -> AlgebraicNumber:
        if k < 0:
            return self.inverse() ** (-k)
        out, base = self.field.one, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> AlgebraicNumber:
        """Multiplicative inverse of the value at lambda (the division route of
        the module docstring), also when self is a zero divisor of the ring."""
        s = lcm(*(c.denominator for c in self.coeffs))
        return self.field.over(*self.field._inverse([c.numerator * (s // c.denominator) for c in self.coeffs], s))

    # -- decision procedures ---------------------------------------------------

    def is_zero(self) -> bool:
        """Zero at lambda: the sign's one ladder and certificate decide it."""
        return self.field._sign(self.coeffs) == 0

    def sign(self) -> int:
        return self.field._sign(self.coeffs)

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
    if type(q) is Fraction:  # immutable: kept as it is
        return q
    if isinstance(q, float):
        raise TypeError(f"float {q!r} in exact arithmetic; pass an int, a Fraction or a str")
    return Fraction(q)


def _sum(p: tuple, q: tuple) -> tuple:
    """p + q of stored-form coefficient tuples, in stored form."""
    out = [a + b for a, b in zip(p, q)]
    out.extend(p[len(q) :] or q[len(p) :])
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# -- text form: lowest degree first, e.g. "1/2 + 1/2*L" for (1 + lambda)/2 --


def _render(p: list[Fraction], sym: str) -> str:
    """Fractions or ints, read through their integer numerator and denominator."""
    parts = []  # each term with its sign as a separator, " - " or " + "
    for k, c in enumerate(p):
        num, den = c.numerator, c.denominator
        if not num:
            continue
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if k:
            mag = ("" if mag == "1" else f"{mag}*") + sym + (f"^{k}" if k > 1 else "")
        parts.append(" - " if num < 0 else " + ")
        parts.append(mag)
    if not parts:
        return "0"
    return ("-" if parts[0] == " - " else "") + "".join(parts[1:])
