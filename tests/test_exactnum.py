from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli.errors import FieldMismatch, NoRootAboveOne
from bratteli.exactnum import (
    field_from_charpoly,
    lambda_pow,
    parse_algebraic,
)

from oracles import bisect_root

GOLDEN = [-1, -1, 1]  # x^2 - x - 1


@pytest.fixture(scope="module")
def fib_field():
    return field_from_charpoly(GOLDEN)


def test_field_from_golden_charpoly(fib_field):
    assert [c for c in fib_field.modulus] == [Fraction(-1), Fraction(-1), Fraction(1)]
    assert fib_field.lo == 1 and fib_field.hi == 2
    assert fib_field.lam().to_decimal(6) in ("1.618033", "1.618034")


def test_field_from_reducible_charpoly():
    # (x-1)(x-2): square-free already, modulus kept whole, largest root isolated
    f = field_from_charpoly([2, -3, 1])
    assert [c for c in f.modulus] == [Fraction(2), Fraction(-3), Fraction(1)]
    assert f.lam().equals(2)
    assert f.lo < 2 <= f.hi


def test_field_degree_one():
    f = field_from_charpoly([-2, 1])
    assert f.lo == 1 and f.hi == 3
    assert f.lam().equals(2)


def test_field_from_cubic_with_root_at_one():
    # (x-1)(x^2-x-1): deflation at the lower endpoint plus reduced modulus
    f = field_from_charpoly([1, 0, -2, 1])
    assert f.lam().to_decimal(6) in ("1.618033", "1.618034")
    assert (f.lam() * f.lam() - f.lam() - 1).is_zero()


def test_no_root_above_one():
    with pytest.raises(NoRootAboveOne):
        field_from_charpoly([1, 1])  # root -1
    with pytest.raises(NoRootAboveOne):
        field_from_charpoly([1, 0, 1])  # no real roots


def test_squarefree_part_taken():
    # (x-1)^2 reduces to x-1, whose only root is not above 1
    with pytest.raises(NoRootAboveOne):
        field_from_charpoly([1, -2, 1])
    # (x^2-x-1)^2 reduces to the golden modulus
    sq = [1, 2, -1, -2, 1]
    f = field_from_charpoly(sq)
    assert [c for c in f.modulus] == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_golden_identities(fib_field):
    phi = fib_field.lam()
    assert (phi * phi).coeffs == (Fraction(1), Fraction(1))  # phi^2 = 1 + phi
    assert (lambda_pow(fib_field, 2) - (phi + 1)).is_zero()
    assert (lambda_pow(fib_field, 3) - (2 * phi + 1)).is_zero()


def test_scale_and_decimal(fib_field):
    phi = fib_field.lam()
    half_phi = phi.scale(Fraction(1, 2))
    oracle = bisect_root(GOLDEN, 1, 2, 8) / 2
    got = half_phi.to_decimal(6)
    assert got in ("0.809016", "0.809017")
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
    assert phi.to_decimal(6) in ("1.618033", "1.618034")
    assert (-phi).to_decimal(6) in ("-1.618034", "-1.618033")
    assert fib_field.rational(Fraction(1, 2)).to_decimal(3) == "0.500"
    assert fib_field.rational(Fraction(-1, 2)).to_decimal(3) == "-0.500"
    assert fib_field.rational(3).to_decimal(0) == "3"


def test_field_mismatch(fib_field):
    other = field_from_charpoly([-2, 1])
    with pytest.raises(FieldMismatch):
        fib_field.lam() + other.lam()


def test_division_with_zero_divisors():
    # modulus (x-1)(x-2) has zero divisors; values at lambda=2 still divide
    f = field_from_charpoly([2, -3, 1])
    lam = f.lam()
    inv = f.one / (lam - 1)  # (lambda - 1) = 1 at lambda = 2
    assert inv.equals(1)
    third = f.one / (lam + 1)
    assert (third * (lam + 1)).equals(1)
    with pytest.raises(ZeroDivisionError):
        f.one / (lam - 2)


def test_render_and_parse(fib_field):
    phi = fib_field.lam()
    val = (phi + 1).scale(Fraction(1, 2))
    assert val.render() == "1/2 + 1/2*L"
    assert parse_algebraic(fib_field, "1/2 + 1/2*L").equals(val)
    assert parse_algebraic(fib_field, "-L").equals(-phi)
    assert parse_algebraic(fib_field, "2 - 3/2*L").equals(fib_field.rational(2) - phi.scale(Fraction(3, 2)))
    assert fib_field.zero.render() == "0"
    cubic = field_from_charpoly([1, 0, -2, 1])
    v = cubic.element([0, 0, Fraction(1, 3)])
    assert parse_algebraic(cubic, v.render()).equals(v)


rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)


def elements(field):
    deg = len(field.modulus) - 1
    return st.lists(rationals, min_size=1, max_size=deg).map(field.element)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    f = field_from_charpoly([1, 0, -2, 1])  # degree-2 reduced modulus
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
    f = field_from_charpoly(GOLDEN)
    a = data.draw(elements(f))
    b = data.draw(elements(f))
    assert (a * b).sign() == a.sign() * b.sign()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_absorbs_in_sum(data):
    f = field_from_charpoly(GOLDEN)
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

    f = field_from_charpoly(GOLDEN)
    a = data.draw(elements(f))
    phi = f.lam()
    z = a * (phi * phi - phi - 1)  # annihilate: z is zero at lambda
    for k in range(0, 12, 3):
        lo, hi = f.refined(k)
        vlo, vhi = rp.eval_interval(list(z.coeffs), lo, hi)
        assert vlo <= 0 <= vhi
    if not a.is_zero():
        k = 0
        while True:
            lo, hi = f.refined(k)
            vlo, vhi = rp.eval_interval(list(a.coeffs), lo, hi)
            if vlo > 0 or vhi < 0:
                break
            k += 1
            assert k < 200


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decimal_monotone(data):
    f = field_from_charpoly(GOLDEN)
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

# (x^2 - x - 1)(x^2 - 2): lambda = phi, and the quotient ring has zero divisors
GOLDEN_TIMES_SQRT2 = [2, 2, -3, -1, 1]


def reference_sign(a) -> int:
    """The sign decided without the field's level: gcd + Sturm certificate
    for zero, then bisection from level 0."""
    from bratteli import ratpoly as rp

    f = a.field
    p = list(a.coeffs)
    if not p:
        return 0
    g = rp.gcd(p, f._reduced)
    if rp.degree(g) >= 1 and rp.count_roots_halfopen(g, f.lo, f.hi) >= 1:
        return 0
    k = 0
    while True:
        vlo, vhi = rp.eval_interval(p, *f.refined(k))
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
    f = field_from_charpoly(GOLDEN_TIMES_SQRT2)
    assert len(f.modulus) == 5  # kept whole: no rational roots to strip
    lam = f.lam()
    assert lam.to_decimal(6) in ("1.618033", "1.618034")
    sqrt2_factor = lam * lam - 2
    assert sqrt2_factor.coeffs and sqrt2_factor.sign() == 1  # phi^2 - 2 > 0
    inv = sqrt2_factor.inverse()
    assert (inv * sqrt2_factor).equals(1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reducible_modulus_annihilator(data):
    from bratteli import ratpoly as rp

    f = field_from_charpoly(GOLDEN_TIMES_SQRT2)
    lam = f.lam()
    a = data.draw(elements(f))
    z = (lam * lam - lam - 1) * a
    assert z.is_zero() and z.sign() == 0
    # the representative vanishes only when (x^2 - 2) divides a
    assert bool(z.coeffs) == bool(rp.rem(list(a.coeffs), rp.poly([-2, 0, 1])))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decisions_after_hard_sign_match_reference(data):
    charpoly = data.draw(st.sampled_from([GOLDEN, GOLDEN_TIMES_SQRT2]))
    f = field_from_charpoly(charpoly)
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
        expected = reference_sign(x)
        assert x.is_zero() == (expected == 0)
        assert x.sign() == expected
