from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from itertools import product
from math import floor, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bratteli import ratpoly as rp
from bratteli.diagram import export_json
from bratteli.errors import FieldMismatch, NoRootAboveOne
from bratteli.exactnum import (
    AlgebraicNumber,
    ModulusField,
    _render,
)
from bratteli.substitution import parse_spec

from conftest import GOLDEN_TIMES_SQRT2, REDUCIBLE_MODULUS_SPECS
from oracles import (
    add,
    bisect_root,
    charpoly_by_fractions,
    count_roots_by_fractions,
    field_by_fractions,
    gcd,
    inverse_by_adjugate,
    inverse_by_euclid,
    inverse_by_zero_test,
    levels_by_fractions,
    neg,
    rem,
    render_by_fractions,
    scale,
    squarefree_by_fractions,
    sub,
)

GOLDEN = [-1, -1, 1]  # x^2 - x - 1


@pytest.fixture(scope="module")
def fib_field():
    return ModulusField(GOLDEN)


def test_field_from_golden_charpoly(fib_field):
    assert [c for c in fib_field.modulus] == [Fraction(-1), Fraction(-1), Fraction(1)]
    assert fib_field.lo == 1 and fib_field.hi == 2
    assert fib_field.lam().to_decimal(6) == "1.618033"
    assert repr(fib_field) == "ModulusField(-1 - x + x^2, root in (1, 2])"


def test_field_from_reducible_charpoly():
    # (x-1)(x-2): square-free already, modulus kept whole, largest root isolated
    f = ModulusField([2, -3, 1])
    assert [c for c in f.modulus] == [Fraction(2), Fraction(-3), Fraction(1)]
    assert f.lam().equals(2)
    assert f.lo < 2 <= f.hi


def test_field_degree_one():
    f = ModulusField([-2, 1])
    assert f.lo == 1 and f.hi == 3
    assert f.lam().equals(2)


def test_field_from_cubic_with_root_at_one():
    # (x-1)(x^2-x-1): deflation at the lower endpoint plus reduced modulus
    f = ModulusField([1, 0, -2, 1])
    assert f.lam().to_decimal(6) == "1.618033"
    assert (f.lam() * f.lam() - f.lam() - 1).is_zero()


def test_no_root_above_one():
    with pytest.raises(NoRootAboveOne):
        ModulusField([1, 1])  # root -1
    with pytest.raises(NoRootAboveOne):
        ModulusField([1, 0, 1])  # no real roots


def test_squarefree_part_taken():
    # (x-1)^2 reduces to x-1, whose only root is not above 1
    with pytest.raises(NoRootAboveOne):
        ModulusField([1, -2, 1])
    # (x^2-x-1)^2 reduces to the golden modulus
    sq = [1, 2, -1, -2, 1]
    f = ModulusField(sq)
    assert [c for c in f.modulus] == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_golden_identities(fib_field):
    phi = fib_field.lam()
    assert (phi * phi).coeffs == (Fraction(1), Fraction(1))  # phi^2 = 1 + phi
    assert (fib_field.lam() ** 2 - (phi + 1)).is_zero()
    assert (fib_field.lam() ** 3 - (2 * phi + 1)).is_zero()


def test_scale_and_decimal(fib_field):
    phi = fib_field.lam()
    half_phi = phi.scale(Fraction(1, 2))
    oracle = bisect_root(GOLDEN, 1, 2, 8) / 2
    got = half_phi.to_decimal(6)
    assert got == "0.809016"
    assert abs(Fraction(got) - oracle) < Fraction(1, 10**6)


def test_sign_examples(fib_field):
    phi = fib_field.lam()
    assert (phi * phi - phi - 1).sign() == 0
    inv_two_phi = (phi - 1).scale(Fraction(1, 2))  # 1/(2 phi)
    assert inv_two_phi.sign() == 1
    assert (phi**3 - 4).sign() == 1
    assert (phi**3 - 5).sign() == -1


def test_compare_examples(fib_field):
    phi = fib_field.lam()
    assert phi.compare(fib_field.one) > 0
    inv_phi = fib_field.one / phi
    assert inv_phi.equals((phi - 1))
    assert inv_phi.compare((phi - 1).scale(Fraction(1, 2)).scale(2)) == 0


def test_to_decimal_certified(fib_field):
    phi = fib_field.lam()
    assert phi.to_decimal(6) == "1.618033"
    assert (-phi).to_decimal(6) == "-1.618034"
    assert fib_field.rational(Fraction(1, 2)).to_decimal(3) == "0.500"
    assert fib_field.rational(Fraction(-1, 2)).to_decimal(3) == "-0.500"
    assert fib_field.rational(3).to_decimal(0) == "3"


def test_field_mismatch(fib_field):
    other = ModulusField([-2, 1])
    with pytest.raises(FieldMismatch):
        fib_field.lam() + other.lam()


def test_division_with_zero_divisors():
    # modulus (x-1)(x-2) has zero divisors; values at lambda=2 still divide
    f = ModulusField([2, -3, 1])
    lam = f.lam()
    inv = f.one / (lam - 1)  # (lambda - 1) = 1 at lambda = 2
    assert inv.equals(1)
    third = f.one / (lam + 1)
    assert (third * (lam + 1)).equals(1)
    with pytest.raises(ZeroDivisionError):
        f.one / (lam - 2)


def test_zero_and_one_built_once_per_field(fib_field):
    assert fib_field.zero is fib_field.zero and fib_field.one is fib_field.one
    assert fib_field.zero.coeffs == () and fib_field.one.coeffs == (1,)
    assert fib_field.zero.coeffs == fib_field.rational(0).coeffs
    assert fib_field.one.coeffs == fib_field.rational(1).coeffs


def test_render(fib_field):
    phi = fib_field.lam()
    assert (phi + 1).scale(Fraction(1, 2)).render() == "1/2 + 1/2*L"
    assert (-phi).render() == "-L"
    assert (fib_field.rational(2) - phi.scale(Fraction(3, 2))).render() == "2 - 3/2*L"
    assert fib_field.zero.render() == "0"


def test_lam_power_digits_bounds_the_integer_part(all_diagrams, random_diagrams):
    for d in (*all_diagrams.values(), *random_diagrams):
        f = d.field
        power = f.one
        for n in range(100):
            digits = len(power.to_decimal(0))
            assert digits <= f.lam_power_digits(n) <= digits + 1, (d.vertices, n)
            power = power * d.lam
    # phi^(10^9) has floor(10^9 log10 phi) + 1 = 208987641 digits; 0.30103 for
    # log10(2) adds about 3 over its 6.9e8 bits
    assert 208987641 <= ModulusField(GOLDEN).lam_power_digits(10**9) <= 208987641 + 4


def test_to_decimal_refuses_negative_digits(fib_field):
    with pytest.raises(ValueError, match="digits must be >= 0"):
        fib_field.lam().to_decimal(-1)


rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)
nonnegative = st.fractions(min_value=Fraction(0), max_value=Fraction(5), max_denominator=12)  # enclose's endpoints


def elements(field):
    deg = len(field.modulus) - 1
    return st.lists(rationals, min_size=1, max_size=deg).map(field.element)


# Coefficients of every shape the text form treats apart: zero, units, other
# integers (Fraction or int, as a modulus is) and fractions, either sign.
render_coefficients = st.one_of(
    st.sampled_from([Fraction(0), 0, Fraction(1), Fraction(-1), 1, -1]),
    st.integers(-30, 30),
    st.fractions(min_value=Fraction(-7), max_value=Fraction(7), max_denominator=9),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(render_coefficients, max_size=6), st.sampled_from(["L", "x"]))
def test_render_matches_fraction_reference(coeffs, sym):
    """The text read off integer numerators and denominators is the text
    Fraction arithmetic on each coefficient gave."""
    assert _render(coeffs, sym) == render_by_fractions(coeffs, sym)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    f = ModulusField([1, 0, -2, 1])  # degree-2 reduced modulus
    a = data.draw(elements(f))
    b = data.draw(elements(f))
    c = data.draw(elements(f))
    assert ((a + b) + c).equals(a + (b + c))
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * (b + c)).equals(a * b + a * c)
    assert (a * b).equals(b * a)
    assert (a + b).equals(b + a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_multiplicative(data):
    f = ModulusField(GOLDEN)
    a = data.draw(elements(f))
    b = data.draw(elements(f))
    assert (a * b).sign() == a.sign() * b.sign()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_absorbs_in_sum(data):
    f = ModulusField(GOLDEN)
    phi = f.lam()
    zero = phi * phi - phi - 1
    assert zero.is_zero()
    b = data.draw(elements(f))
    assert (zero + b).sign() == b.sign()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_test_agrees_with_interval_refinement(data):
    # a value that tests zero must keep bracketing 0 under every refinement,
    # and a nonzero one must eventually exclude it
    from bratteli import ratpoly as rp

    f = ModulusField(GOLDEN)
    a = data.draw(elements(f))
    phi = f.lam()
    z = a * (phi * phi - phi - 1)  # annihilate: z is zero at lambda
    levels = copy.copy(f)  # refined on a copy: a.is_zero() below starts at level 0
    for k in range(0, 12, 3):
        vlo, vhi, _ = rp.enclose(z.coeffs, *levels.refined(k))
        assert vlo <= 0 <= vhi
    if not a.is_zero():
        k = 0
        while True:
            vlo, vhi, _ = rp.enclose(a.coeffs, *levels.refined(k))
            if vlo > 0 or vhi < 0:
                break
            k += 1
            assert k < 200


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decimal_monotone(data):
    f = ModulusField(GOLDEN)
    a = data.draw(elements(f))
    b = data.draw(elements(f))
    cmp = a.compare(b)
    da, db = Fraction(a.to_decimal(4)), Fraction(b.to_decimal(4))
    if cmp < 0:
        assert da <= db
    elif cmp > 0:
        assert da >= db
    else:
        assert da == db


# -- reducible modulus and the monotone refinement level -----------------------


def interval(f, k: int) -> tuple[Fraction, Fraction]:
    """The level-k interval, read as Fractions off the integers (l, h, d).
    refined(k) raises the field's level, which the decisions read: a
    reference that must leave the field as it was passes a copy."""
    l, h, d = f.refined(k)
    return Fraction(l, d), Fraction(h, d)


def reference_sign(a) -> int:
    """The sign decided without the field's level: gcd + Sturm certificate
    for zero, then bisection from level 0."""
    f = copy.copy(a.field)  # refined on a copy: the field's level stays as it was
    p = list(a.coeffs)
    if not p:
        return 0
    g = gcd(p, f._reduced)
    if len(g) >= 2 and rp.count_roots_halfopen(g, f.lo, f.hi) >= 1:
        return 0
    k = 0
    while True:
        vlo, vhi = reference_eval_interval(p, *interval(f, k))
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        k += 1


def golden_convergent(n: int) -> Fraction:
    """F(n+2)/F(n+1), within 1/F(n+1)^2 of phi."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return Fraction(b, a)


def test_reducible_modulus_zero_divisors():
    f = ModulusField(GOLDEN_TIMES_SQRT2)
    assert len(f.modulus) == 5  # kept whole: no rational roots to strip
    lam = f.lam()
    assert lam.to_decimal(6) == "1.618033"
    sqrt2_factor = lam * lam - 2
    assert sqrt2_factor.coeffs and sqrt2_factor.sign() == 1  # phi^2 - 2 > 0
    inv = sqrt2_factor.inverse()
    assert (inv * sqrt2_factor).equals(1)


def test_inverse_solves_first_and_takes_one_gcd_only_when_singular(monkeypatch):
    """A value coprime to the reduced modulus is inverted by one solve, with
    no zero test or gcd, even where the enclosure straddles 0.  A zero
    divisor of a reducible modulus that is nonzero at lambda makes that
    solve singular and takes the fallback: the exact zero test, whose one
    gcd deflates the modulus, then a solve modulo the deflated modulus."""
    gcds, solves = [], []
    gcd, solve = rp.gcd, rp.solve_fraction_free
    monkeypatch.setattr(rp, "gcd", lambda a, b: gcds.append(1) or gcd(a, b))
    monkeypatch.setattr(rp, "solve_fraction_free", lambda cols, b: solves.append(len(b)) or solve(cols, b))
    f = ModulusField(GOLDEN)  # fresh, so its level is still 0
    x = f.lam() * 8 - 13  # 8 phi - 13, about -0.056
    assert f._sign_at(x.coeffs, f._level) is None  # the enclosure straddles 0
    inv = x.inverse()
    assert (gcds, solves) == ([], [2]) and (inv * x).equals(1)
    g = ModulusField(GOLDEN_TIMES_SQRT2)  # (x^2 - x - 1)(x^2 - 2)
    lam = g.lam()
    y = lam * lam - 2  # phi^2 - 2 = phi - 1: shares x^2 - 2 with the modulus
    solves.clear()
    inv = y.inverse()
    assert (gcds, solves) == ([1], [4, 2])  # singular modulo the whole modulus, then modulo x^2 - x - 1
    assert (inv * y).equals(1) and inv.coeffs == inverse_by_zero_test(y).coeffs


def split_modulus(f):
    """(z, c) as elements, for a reduced modulus m = q (m/q) with a monic
    quadratic factor q of coefficients in [-3, 3] (found by trial): z the
    factor that vanishes at lambda and c the other one, a zero divisor
    nonzero at lambda; None if m has no such factor."""
    m = f._reduced
    for b, c in product(range(-3, 4), repeat=2):
        if len(m) > 3 and rp.gcd(m, [c, b, 1]) == [c, b, 1]:
            q, r = f.element([c, b, 1]), f.element(rp.exact_quotient(m, [c, b, 1]))
            return (q, r) if q.is_zero() else (r, q)
    return None


@pytest.fixture(scope="module")
def split_pool(spec_pool):
    return [(sub.field, split_modulus(sub.field)) for sub in spec_pool]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_matches_the_zero_test_route_on_the_spec_pool(split_pool, data):
    """On the fields of the random family, the reducible-modulus specs,
    doubling, rand3 and the 196 frozen bench specs, the solve-first inverse
    gives the representative of the zero-test-first route, or both refuse:
    random values, products and zero, and in a split modulus values zero at
    lambda, zero divisors nonzero at lambda and other representatives."""
    f, split = data.draw(st.sampled_from(split_pool))
    a, b = data.draw(elements(f)), data.draw(elements(f))
    extra = [split[0] * a, split[1] * a, a + split[0] * b] if split else []
    x = data.draw(st.sampled_from([a, a * b, f.zero, *extra]))
    try:
        expected = inverse_by_zero_test(x)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x.inverse().coeffs == expected.coeffs


def test_reducible_spec_moduli_split_and_their_zero_divisors_take_the_fallback(monkeypatch, reducible_spec_fields):
    """The property above meets the singular solve: each of the 6 reducible
    frozen bench moduli (all in the spec pool) splits off a quadratic, and
    the factor nonzero at lambda is inverted by a singular solve, then one
    modulo the other factor."""
    solves, solve = [], rp.solve_fraction_free
    monkeypatch.setattr(rp, "solve_fraction_free", lambda cols, b: solves.append(len(b)) or solve(cols, b))
    for f in reducible_spec_fields:
        split = split_modulus(f)
        assert split is not None
        z, c = split
        solves.clear()
        inv = c.inverse()
        assert solves == [len(f._reduced) - 1, len(z.coeffs) - 1] and (inv * c).equals(1)


def test_sign_bisects_before_the_certificate(monkeypatch):
    calls = []
    gcd = rp.gcd
    monkeypatch.setattr(rp, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    f = ModulusField(GOLDEN)  # fresh, so its level is still 0
    x = f.lam() * 8 - 13  # 8 phi - 13, about -0.056
    assert f._sign_at(x.coeffs, f._level) is None  # the enclosure straddles 0
    assert x.sign() == -1 and calls == []  # decided by a few bisections, no gcd
    g = ModulusField(GOLDEN_TIMES_SQRT2)
    lam = g.lam()
    z = lam * lam - lam - 1  # zero at lambda, a zero divisor of the reducible ring
    assert z.coeffs and z.sign() == 0 and calls == [1]  # the certificate decides it


def test_refinement_and_enclosed_decisions_construct_no_fraction(monkeypatch):
    f = ModulusField(GOLDEN)  # fresh: every level is bisected below
    x = f.lam() * 8 - 13  # 8 phi - 13, about -0.056
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: made.append(a) or new(cls, *a, **kw))
    levels = [f.refined(k) for k in range(65)]
    digits = f.lam_power_digits(10**9)
    sign, decimal = x.sign(), x.to_decimal(6)  # both decided by the level-64 enclosure
    monkeypatch.undo()
    assert made == []
    assert [interval(f, k) for k in range(65)] == [(Fraction(l, d), Fraction(h, d)) for l, h, d in levels]
    assert 208987641 <= digits <= 208987641 + 4
    assert (sign, decimal) == (-1, reference_decimal(x, 6)) == (-1, "-0.055729")


def test_is_zero_bisects_before_the_certificate(monkeypatch):
    """A value nonzero at lambda but undecided at the field's level is found
    nonzero by the sign's ladder, as sign() finds it, with no gcd."""
    calls = []
    gcd = rp.gcd
    monkeypatch.setattr(rp, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    f = ModulusField(GOLDEN)  # fresh, so its level is still 0
    x = f.lam() * 8 - 13  # 8 phi - 13, about -0.056
    assert f._sign_at(x.coeffs, f._level) is None  # the enclosure straddles 0
    assert x.is_zero() is False and calls == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_is_zero_is_sign_zero(data):
    """On the golden, rand3 and (x^2 - x - 1)(x^2 - 2) fields, each fresh,
    the zero test and the sign agree in either order: random values,
    products, zero, and in the reducible ring nonzero representatives of 0."""
    charpoly = data.draw(st.sampled_from([GOLDEN, RAND3_CHARPOLY, GOLDEN_TIMES_SQRT2]))
    f = ModulusField(charpoly)
    a, b = data.draw(elements(f)), data.draw(elements(f))
    lam = f.lam()
    annihilator = lam * lam - lam - 1  # a nonzero representative of 0 in the reducible ring
    zeros = [annihilator, annihilator * a] if charpoly is GOLDEN_TIMES_SQRT2 else []
    x = data.draw(st.sampled_from([a, a * b, a - b, f.zero, *zeros]))
    if data.draw(st.booleans()):
        assert x.is_zero() == (x.sign() == 0)
    else:
        assert (x.sign() == 0) == x.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reducible_modulus_annihilator(data):
    from bratteli import ratpoly as rp

    f = ModulusField(GOLDEN_TIMES_SQRT2)
    lam = f.lam()
    a = data.draw(elements(f))
    z = (lam * lam - lam - 1) * a
    assert z.is_zero() and z.sign() == 0
    # the representative vanishes only when (x^2 - 2) divides a
    assert bool(z.coeffs) == bool(rem(list(a.coeffs), rp.poly([-2, 0, 1])))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decisions_after_hard_sign_match_reference(data):
    charpoly = data.draw(st.sampled_from([GOLDEN, GOLDEN_TIMES_SQRT2]))
    f = ModulusField(charpoly)
    lam = f.lam()
    n = data.draw(st.integers(min_value=10, max_value=30))
    hard = lam - golden_convergent(n)
    assert hard.sign() == reference_sign(hard) != 0
    assert f._level >= n  # |phi - F(n+2)/F(n+1)| < 1/F(n+1)^2 needs ~1.4 n bisections
    annihilator = lam * lam - lam - 1
    a = data.draw(elements(f))
    b = data.draw(elements(f))
    near = lam - golden_convergent(data.draw(st.integers(min_value=1, max_value=n + 5)))
    for x in (a, a + annihilator * b, annihilator * b, near, near * a):
        level = f._level
        expected = reference_sign(x)
        assert f._level == level  # the reference leaves the field's level alone
        assert x.is_zero() == (expected == 0)
        assert x.sign() == expected


# -- refinement, interval evaluation and decimals against their references ------

# x^3 - x^2 - 2x - 2, the field of the rand3 diagram in conftest.py
RAND3_CHARPOLY = [-2, -2, -1, 1]
# (characteristic polynomial, minimal polynomial of its lambda)
REFERENCE_FIELDS = [(GOLDEN, GOLDEN), (GOLDEN_TIMES_SQRT2, GOLDEN), (RAND3_CHARPOLY, RAND3_CHARPOLY)]


def reference_levels(f, k: int) -> list:
    """Isolating intervals of levels 0..k, bisected by Sturm counts."""
    out = [(f.lo, f.hi)]
    while len(out) <= k:
        lo, hi = out[-1]
        mid = (lo + hi) / 2
        out.append((lo, mid) if rp.count_roots_halfopen(f._reduced, lo, mid) == 1 else (mid, hi))
    return out


def reference_eval_interval(p, lo, hi):
    """Interval Horner evaluation with all four endpoint products."""
    alo = ahi = Fraction(0)
    for c in reversed(p):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def reference_decimal(a, digits: int) -> str:
    """Floor truncation by search: bisect from level 0 until the enclosure is
    narrower than 10^-digits, then settle the floor with exact signs."""
    f = copy.copy(a.field)  # refined on a copy: the field's level stays as it was
    scale = 10**digits
    k = 0
    while True:
        vlo, vhi = reference_eval_interval(a.coeffs, *interval(f, k))
        if (vhi - vlo) * scale < 1:
            break
        k += 1
    m = floor(vlo * scale)
    while reference_sign(a - Fraction(m + 1, scale)) >= 0:
        m += 1
    while reference_sign(a - Fraction(m, scale)) < 0:
        m -= 1
    q, r = divmod(abs(m), scale)
    return ("-" if m < 0 else "") + str(q) + (f".{r:0{digits}d}" if digits else "")


def test_rand3_charpoly(rand3):
    assert ModulusField(RAND3_CHARPOLY) == rand3.field


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REFERENCE_FIELDS), st.integers(min_value=0, max_value=40))
def test_refined_matches_sturm_bisection(charpolys, k):
    f = ModulusField(charpolys[0])
    expected = reference_levels(f, k)
    assert interval(f, k) == expected[k]
    assert [interval(f, j) for j in range(k + 1)] == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, max_size=6), nonnegative, nonnegative)
@example([Fraction(1), Fraction(-2), Fraction(3)], Fraction(3, 2), Fraction(1, 3))
@example([Fraction(-1, 3), Fraction(0), Fraction(5, 7)], Fraction(0), Fraction(1, 5))
def test_eval_interval_matches_four_products(p, a, b):
    lo, hi = min(a, b), max(a, b)
    q = lcm(lo.denominator, hi.denominator)
    vlo, vhi, den = rp.enclose(p, int(lo * q), int(hi * q), q)
    assert (Fraction(vlo, den), Fraction(vhi, den)) == reference_eval_interval(p, lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_to_decimal_matches_search(data):
    charpoly, minimal = data.draw(st.sampled_from(REFERENCE_FIELDS))
    f = ModulusField(charpoly)
    lam = f.lam()
    # grid values, with a non-constant representative where the modulus is
    # reducible: their enclosures straddle the grid point at every level
    zero = f.element(minimal)
    grid = st.sampled_from([0, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 8)])
    on_grid = st.tuples(grid, elements(f)).map(lambda t: zero * t[1] + t[0])
    large = elements(f).map(lambda x: x * lam**6)
    a = data.draw(st.one_of(on_grid, elements(f), large))
    if data.draw(st.booleans()):
        # lambda - c with c the lower end of the level-n interval decides
        # only above level n, so the field's level ends up above n
        n = data.draw(st.integers(min_value=30, max_value=40))
        assert (lam - interval(copy.copy(f), n)[0]).sign() == 1
        assert f._level > n
    if data.draw(st.booleans()):
        # the digit bound raises the field's level, and the decimals are decided there
        n = data.draw(st.integers(min_value=0, max_value=100))
        f.lam_power_digits(n)
        assert f._level >= n.bit_length() + 8
    for d in data.draw(st.permutations(range(9))):
        assert a.to_decimal(d) == reference_decimal(a, d)
        assert f._level < 64 * (d + 8)  # decided before the refinement cap


# -- one-pass linear operations and equals -------------------------------------


def schoolbook(p, q) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_ops_match_normalising_constructor(data):
    """Sums, products and inverses against Fraction references, in the
    stored form; the reducible (x^2 - x - 1)(x^2 - 2) field has zero divisors."""
    f = ModulusField(data.draw(st.sampled_from([GOLDEN, RAND3_CHARPOLY, GOLDEN_TIMES_SQRT2])))
    wide = st.lists(rationals, max_size=len(f.modulus) + 1).map(f.element)
    a, b, q = data.draw(wide), data.draw(wide), data.draw(rationals)
    pa, pb, m = list(a.coeffs), list(b.coeffs), [Fraction(c) for c in f._reduced]
    cases = [
        (a + b, add(pa, pb)),
        (a - b, sub(pa, pb)),
        (a - a, []),
        (-a, neg(pa)),
        (a.scale(q), scale(pa, q)),
        (a + q, add(pa, [q])),
        (q - a, sub([q], pa)),
        (a * b, rem(schoolbook(pa, pb), m)),
        (a * a, rem(schoolbook(pa, pa), m)),
        (a * q, scale(pa, q)),
        (q * a, scale(pa, q)),
    ]
    try:
        cases.append((a.inverse(), inverse_by_adjugate(a).coeffs))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            inverse_by_adjugate(a)
    for got, p in cases:
        assert got.coeffs == f.element(p).coeffs == tuple(rem(p, m))
        assert type(got.coeffs) is tuple and len(got.coeffs) < len(m)
        assert not got.coeffs or got.coeffs[-1] != 0
        assert all(type(c) is Fraction for c in got.coeffs)


def test_ring_operations_normalise_once(monkeypatch):
    """No ring operation runs ratpoly.poly, and a product is reduced at most
    once: ratpoly.mul leaves no trailing zero, and ModulusField.element
    reduces what it returns."""
    f = ModulusField(RAND3_CHARPOLY)  # reduced modulus of degree 3
    lam = f.lam()
    a, b = lam * lam + Fraction(1, 3), lam.scale(Fraction(-2, 5)) * lam + 7
    # (x, y, reductions): a product of 4 or more coefficients is reduced once, a shorter one not at all
    products = [(a, b, 1), (a, a, 1), (a, lam, 1), (lam, lam, 0)]
    expected = [f.element(schoolbook(x.coeffs, y.coeffs)).coeffs for x, y, _ in products]
    calls = {"poly": 0, "reduce_monic": 0}

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(rp, name, counted)

    for name in calls:
        spy(name, getattr(rp, name))
    for op in (lambda: a + b, lambda: a - b, lambda: 1 - a, lambda: -a, lambda: a.inverse(), lambda: f.over([1, 2, 3], 4)):
        op()
        assert calls["poly"] == 0
    for (x, y, reductions), coeffs in zip(products, expected):
        calls["reduce_monic"] = 0
        assert (x * y).coeffs == coeffs
        assert calls == {"poly": 0, "reduce_monic": reductions}
    calls["reduce_monic"] = 0
    assert (a * 2).coeffs == (2 * a).coeffs == a.scale(2).coeffs
    assert calls == {"poly": 0, "reduce_monic": 0}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equals_across_representatives(data):
    f = ModulusField(GOLDEN_TIMES_SQRT2)
    lam = f.lam()
    a = data.draw(elements(f))
    c = data.draw(st.lists(rationals, max_size=2).map(f.element))
    # (x^2 - x - 1) c has degree <= 3 < deg(modulus): no reduction, so b is
    # another representative of a's value unless c = 0
    b = a + (lam * lam - lam - 1) * c
    assert (b.coeffs != a.coeffs) == bool(c.coeffs)
    assert a.equals(b) and b.equals(a)
    assert not a.equals(b + 1) and not (a + Fraction(1, 3)).equals(b)


# -- integer Sturm sequences against the Fraction route ------------------------

# integer polynomials of degree 1..2 with a nonzero leading coefficient
factors = st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=2), st.sampled_from([-3, -2, -1, 1, 2, 3])).map(
    lambda t: t[0] + [t[1]]
)


def int_product(polys) -> list[int]:
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


@st.composite
def squarefree_with_points(draw):
    """A square-free integer polynomial of degree <= 6 and rational points,
    among them its rational roots: products of linear factors d x - n and
    small factors of degree <= 2."""
    linear = st.tuples(st.integers(-6, 6), st.integers(1, 3)).map(lambda t: [-t[0], t[1]])
    parts = draw(st.lists(st.one_of(linear, factors), min_size=1, max_size=4))
    p = int_product(parts)
    assume(len(p) <= 7 and len(squarefree_by_fractions(p)) == len(p))
    roots = [Fraction(-f[0], f[1]) for f in parts if len(f) == 2]
    return p, roots + draw(st.lists(rationals, min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(squarefree_with_points())
@example(([0, -1, 0, 1], [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)]))  # x^3 - x
def test_integer_sturm_count_matches_fractions(case):
    p, points = case
    seq = rp.sturm_sequence(p)
    assert len(seq[-1]) == 1  # square-free: the last entry is a constant
    for a in points:
        for b in points:
            expected = count_roots_by_fractions(p, a, b)
            assert rp.count_roots_halfopen(p, a, b) == expected
            assert rp.count_roots_halfopen([Fraction(c, 3) for c in p], a, b) == expected
            if a < b:
                assert rp.sign_variations(seq, a) - rp.sign_variations(seq, b) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=3))
def test_integer_squarefree_part_matches_fractions(powers):
    p = int_product([f for f, e in powers for _ in range(e)])
    expected = squarefree_by_fractions(p)
    seq = rp.sturm_sequence(rp.integer_primitive(p))
    part = rp.exact_quotient(seq[0], seq[-1])
    assert [Fraction(c, part[-1]) for c in part] == expected
    assert (len(seq[-1]) == 1) == (len(expected) == len(p))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=4), st.lists(st.integers(-3, 3), max_size=3))
@example([0, 0, 2, -3], [])  # x^2 (x - 2)(x + 3): 0 twice, and x^2 factored out
@example([1, 1, -1], [1])  # (x - 1)^2 (x + 1)^2: repeated roots
def test_integer_roots_match_brute_force(roots, cofactor):
    m = int_product([[-r, 1] for r in roots] + [cofactor + [1]])
    low = abs(next(c for c in m if c))
    expected = [r for r in range(-low, low + 1) if sum(c * r**i for i, c in enumerate(m)) == 0]
    assert rp.integer_roots(m) == expected


def test_fields_match_fraction_construction(all_diagrams, random_diagrams):
    named = list(all_diagrams.items()) + [(f"random {i}", d) for i, d in enumerate(random_diagrams)]
    cases = [(name, charpoly_by_fractions(d.csub.base.abelianization), d) for name, d in named]
    for name, charpoly, diagram in cases + [("golden times sqrt2", GOLDEN_TIMES_SQRT2, None)]:
        f = ModulusField(charpoly)
        m, lo, hi = field_by_fractions(charpoly)
        assert (f.modulus, f.lo, f.hi) == (m, lo, hi), name
        assert [interval(f, k) for k in range(41)] == levels_by_fractions(m, lo, hi, 40), name
        assert rp.count_roots_halfopen(f._reduced, f.lo, f.hi) == 1, name
        g = ModulusField(f.modulus)
        assert g == f and hash(g) == hash(f), name
        assert (g.lo, g.hi, g._reduced, g.rational_root) == (f.lo, f.hi, f._reduced, f.rational_root), name
        if diagram is not None:
            assert diagram.field == f, name


@pytest.mark.parametrize(
    "charpoly",
    [
        [1, 2],  # 2x + 1
        [Fraction(-1, 2), 0, 1],  # x^2 - 1/2
        [-1, -1, 2],  # 2x^2 - x - 1: integer coefficients, not monic
    ],
    ids=["2x+1", "x2-half", "2x2-x-1"],
)
def test_modulus_field_rejects(charpoly):
    with pytest.raises(ValueError, match="rational multiple of a monic integer polynomial"):
        ModulusField(charpoly)


def test_modulus_field_rational_root():
    # (x - 1)(x - 2): lambda = 2 is rational, so no interval is bisected
    f = ModulusField([2, -3, 1])
    assert f.rational_root == 2 and f.refined(5) == (2, 2, 1)
    assert f.lam().equals(2) and f.lam().to_decimal(3) == "2.000"


@pytest.mark.parametrize(
    "charpoly, bounds, rational_root, decimal",
    [
        ([4, 2, -4, 1], (2, 3), None, "2.732050"),  # (x - 2)(x^2 - 2x - 2): lambda = 1 + sqrt 3
        ([4, -2, -2, 1], (Fraction(3, 2), 2), 2, "2.000000"),  # (x - 2)(x^2 - 2): lambda = 2
    ],
    ids=["smaller-root", "lambda"],
)
def test_modulus_field_cuts_at_roots(charpoly, bounds, rational_root, decimal):
    """The midpoint bisection from (1, 5] cuts at 2, a root of both moduli,
    and the half-open counts put it in the lower half.  In the first field
    it ends as lo, a smaller root that the reduced modulus divides out; in
    the second as hi, lambda itself, found as the rational root."""
    f = ModulusField(charpoly)
    assert (f.lo, f.hi) == bounds
    assert rp.count_roots_halfopen(f._reduced, f.lo, f.hi) == 1
    assert f.rational_root == rational_root
    lam = f.lam()
    assert lam.to_decimal(6) == decimal
    for a in (lam, lam - 2, lam * lam - 2 * lam - 2, lam * lam - 2, 3 - lam, (lam - 1) / (lam + 1)):
        expected = reference_sign(a)
        assert (a.sign(), a.is_zero()) == (expected, expected == 0), a
        assert a.to_decimal(6) == reference_decimal(a, 6), a


# -- the integer kernel against the Fraction Euclid ----------------------------

# (characteristic polynomial, minimal polynomial of its lambda, the cofactor)
INVERSE_FIELDS = [
    (GOLDEN, GOLDEN, [1]),
    (RAND3_CHARPOLY, RAND3_CHARPOLY, [1]),
    (GOLDEN_TIMES_SQRT2, GOLDEN, [-2, 0, 1]),
    ([2, -3, 1], [-2, 1], [-1, 1]),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_and_gcd_match_fraction_euclid(data):
    charpoly, minimal, cofactor = data.draw(st.sampled_from(INVERSE_FIELDS))
    f = ModulusField(charpoly)
    a, b = data.draw(elements(f)), data.draw(elements(f))
    x = data.draw(
        st.sampled_from(
            [
                a,
                f.element(cofactor) * a,  # a zero divisor of the ambient ring, nonzero at lambda
                f.element(minimal) * a,  # zero at lambda
                a + f.element(minimal) * b,  # another representative of a
            ]
        )
    )
    g = rp.gcd(x.coeffs, f._reduced)
    assert g[-1] > 0 and [Fraction(c, g[-1]) for c in g] == gcd(x.coeffs, f._reduced)
    try:
        expected = inverse_by_euclid(x)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x.inverse().coeffs == tuple(expected)


@settings(max_examples=150, deadline=None)
@given(st.lists(factors, max_size=2), st.lists(factors, max_size=2), st.lists(factors, max_size=2), st.booleans())
@example([[-1, -1, 1]], [[-2, 0, 1]], [], False)  # the reducible modulus against its factor
@example([], [[1, 1]], [], True)  # gcd with zero
def test_integer_gcd_matches_fraction_gcd(common, left, right, zero):
    a = [Fraction(c, 3) for c in int_product(common + left)]
    b = [] if zero else int_product(common + right)
    g = rp.gcd(a, b)
    assert all(type(c) is int for c in g) and g[-1] > 0
    assert [Fraction(c, g[-1]) for c in g] == gcd(a, b)


# -- fraction-free inverse against the adjugate route ------------------------------


@pytest.fixture(scope="module")
def reducible_spec_fields():
    return [parse_spec(text).field for text in REDUCIBLE_MODULUS_SPECS]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_matches_adjugate_oracle(reducible_spec_fields, data):
    """One Bareiss solve gives the very representative that the charpoly
    adjugate of the multiplication matrix gave, in irreducible and reducible
    moduli: the fields of INVERSE_FIELDS and of the 6 reducible frozen bench
    specs (degrees 3 to 6)."""
    charpolys = [c for c, _, _ in INVERSE_FIELDS]
    f = data.draw(st.sampled_from([*map(ModulusField, charpolys), *reducible_spec_fields]))
    x = data.draw(st.lists(rationals, min_size=1, max_size=len(f._reduced) - 1).map(f.element))
    try:
        expected = inverse_by_adjugate(x)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x.inverse().coeffs == expected.coeffs


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
)))
@example(([[0, 1], [1, 0]], [3, 5]))  # the first pivot needs a row swap
@example(([[1, 2], [2, 4]], [1, 1]))  # singular
def test_solve_fraction_free_matches_cramer(system):
    a, b = system
    n = len(a)
    det = (-1) ** n * charpoly_by_fractions(a)[0]
    if not det:
        with pytest.raises(ZeroDivisionError):
            rp.solve_fraction_free(list(zip(*a)), b)
        return
    x, d = rp.solve_fraction_free(list(zip(*a)), b)
    assert abs(d) == abs(det) and all(type(c) is int for c in x)
    assert [sum(r * c for r, c in zip(row, x)) for row in a] == [d * v for v in b]


# -- floats never enter exact arithmetic ---------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda f: f.lam() + 0.1,
        lambda f: 0.1 + f.lam(),
        lambda f: f.lam().scale(0.5),
        lambda f: f.rational(1e-3),
        lambda f: f.element([0.25]),
        lambda f: f.element([1, 0.5]),
        lambda f: f.lam().compare(1.6180339887),
        lambda f: AlgebraicNumber(f, [0.1, 1]),
        lambda f: ModulusField([-1.0, -1.0, 1.0]),
    ],
    ids=["add", "radd", "scale", "rational", "element", "element-later-coefficient", "compare", "constructor", "charpoly"],
)
def test_floats_are_refused(fib_field, make):
    with pytest.raises(TypeError, match="float"):
        make(fib_field)


def test_exact_numbers_still_enter(fib_field):
    phi = fib_field.lam()
    assert (phi + Fraction(1, 10)).equals(phi + "1/10")
    assert phi.scale("0.5").coeffs == phi.scale(Fraction(1, 2)).coeffs == (0, Fraction(1, 2))
    assert fib_field.rational("0.001").coeffs == (Fraction(1, 1000),)
    assert fib_field.element([1, 2]).equals(phi * 2 + 1)


def test_elements_fields_and_templates_copy_and_pickle(fib):
    """Copies and pickles rebuild elements through the constructor (the
    refusing __setattr__ cannot restore them), and the clones compute."""

    def round_trips(x):
        return copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))

    lam = fib.lam
    for clone in round_trips(lam):
        assert type(clone) is type(lam) and clone.coeffs == lam.coeffs and clone.field == lam.field
        assert (clone * clone - clone - 1).is_zero() and clone.inverse().coeffs == lam.inverse().coeffs
        assert clone.to_decimal(12) == lam.to_decimal(12)
        with pytest.raises(AttributeError):
            clone.coeffs = ()
    assert copy.copy(lam).field is lam.field
    for field in round_trips(fib.field)[1:]:
        assert field == fib.field and field.zero.field is field and field.one.field is field
        assert field.lam().to_decimal(12) == lam.to_decimal(12)
    e = fib.verticals[1]
    for clone in round_trips(e):
        assert type(clone) is type(e) and (clone.index, clone.src, clone.rng, clone.pos) == (e.index, e.src, e.rng, e.pos)
        assert clone.coeff.coeffs == e.coeff.coeffs and clone.coeff.field == e.coeff.field
    assert export_json(pickle.loads(pickle.dumps(fib))) == export_json(copy.deepcopy(fib)) == export_json(fib)
