from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bratteli import ratpoly as rp
from bratteli import substitution
from bratteli.errors import (
    EmptyRule,
    NotPrimitive,
    ParseError,
    PeriodicDetected,
    SingularSystem,
    UnknownLetter,
)
from bratteli.exactnum import AlgebraicNumber, field_from_charpoly
from bratteli.fixtures import DOUBLING_SPEC, FIXTURES, doubling, load_fixture
from bratteli.ratpoly import charpoly
from bratteli.substitution import (
    Letter,
    Substitution,
    aperiodicity_screen,
    collar_alphabet,
    collared_substitution,
    legal_words,
    parse_spec,
    perron_lengths,
    primitivity_index,
)

from conftest import GOLDEN_TIMES_SQRT2, RAND3_SPEC, REDUCIBLE_MODULUS_SPECS
from oracles import (
    charpoly_by_fractions,
    expand_word,
    legal_words_fixed_point,
    mat_mul,
    perron_lengths_by_elimination,
    perron_lengths_by_fractions,
    primitivity_by_powers,
    screen_by_factors,
    string_factors,
)

FIB_RULES = {"0": "01", "1": "0"}
TM_RULES = {"0": "01", "1": "10"}


def words_str(sub, n):
    return {sub.word_name(w) for w in legal_words(sub, n)}


def test_parse_fibonacci():
    sub = load_fixture("fibonacci")
    assert [a.name for a in sub.alphabet] == ["0", "1"]
    phi = sub.field.lam()
    assert (phi * phi - phi - 1).is_zero()
    assert sub.lengths[0].equals(1)
    assert sub.lengths[1].equals(phi - 1)  # 1/phi


def test_parse_thue_morse():
    sub = load_fixture("thue-morse")
    assert sub.field.lam().equals(2)
    assert sub.lengths[0].equals(1) and sub.lengths[1].equals(1)


def test_parse_single_letter():
    sub = doubling()
    assert sub.field.lam().equals(2)
    assert sub.lengths[0].equals(1)


def test_periodic_detected():
    text = "letters: 0 1\nrule 0: 0 1\nrule 1: 0 1"
    with pytest.raises(PeriodicDetected):
        parse_spec(text)
    # same text passes with the screen off (it is primitive)
    sub = parse_spec(text, check_aperiodicity=False)
    assert sub.field.lam().equals(2)


def test_single_letter_screen():
    with pytest.raises(PeriodicDetected):
        parse_spec("letters: 0\nrule 0: 0 0")


def test_parse_errors():
    with pytest.raises(UnknownLetter):
        parse_spec("letters: 0 1\nrule 0: 0 2\nrule 1: 0")
    with pytest.raises(EmptyRule):
        parse_spec("letters: 0 1\nrule 0:\nrule 1: 0")
    with pytest.raises(ParseError):
        parse_spec("letters: 0 0\nrule 0: 0")
    with pytest.raises(ParseError):
        parse_spec("letters: 0 1\nrule 0: 0 1")  # missing rule for 1
    with pytest.raises(ParseError):
        parse_spec("letters: 0 1\nnonsense here\nrule 0: 0 1\nrule 1: 0")
    err = None
    try:
        parse_spec("letters: 0 1\nrule 0: 0 x\nrule 1: 0")
    except UnknownLetter as exc:
        err = exc
    assert err is not None and err.line == 2 and err.column is not None


def test_not_primitive():
    with pytest.raises(NotPrimitive):
        parse_spec("letters: 0 1\nrule 0: 0\nrule 1: 1", check_aperiodicity=False)


def test_comments_and_blank_lines():
    sub = parse_spec("# comment\nletters: 0 1\n\nrule 0: 0 1  # inline\nrule 1: 0\n")
    assert len(sub.alphabet) == 2


# nonnegative n x n matrices, n = 1..7, sparse enough that many are
# imprimitive or reducible
square_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=150, deadline=None)
@given(square_matrices)
@example([[1, 1], [1, 0]])
@example([[1, 0], [0, 1]])
@example(collared_substitution(load_fixture("fibonacci")).collared_abelianization)
def test_primitivity_index_oracle(m):
    expected = primitivity_by_powers(m, (len(m) - 1) ** 2 + 1)  # None: not primitive
    if expected is None:
        with pytest.raises(NotPrimitive):
            primitivity_index(m)
    else:
        assert primitivity_index(m) == expected


primitive_matrices = square_matrices.filter(lambda m: primitivity_by_powers(m, (len(m) - 1) ** 2 + 1))


def substitution_of(m):
    """The substitution whose rule for x lists the letter y M[x][y] times."""
    n = len(m)
    rules = {x: tuple(y for y in range(n) for _ in range(m[x][y])) for x in range(n)}
    return Substitution([Letter(id=x, name=str(x)) for x in range(n)], rules)


@settings(max_examples=60, deadline=None)
@given(primitive_matrices)
@example([[1, 1], [1, 0]])
@example([[2]])
@example(collared_substitution(load_fixture("thue-morse")).collared_abelianization)
def test_charpoly_and_adjugate_match_fraction_oracle(m):
    n = len(m)
    coeffs, adjugate = charpoly(m)
    assert coeffs == charpoly_by_fractions(m)
    assert all(type(c) is int for c in coeffs)
    # (xI - M) adj(xI - M) = det(xI - M) I, power by power of x:
    # B_0 = I, B_k - M B_(k-1) = c_(n-k) I for k < n, and -M B_(n-1) = c_0 I
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    assert len(adjugate) == n and adjugate[0] == ident
    for k in range(1, n + 1):
        b = adjugate[k] if k < n else [[0] * n for _ in range(n)]
        mb = mat_mul(m, adjugate[k - 1])
        assert [[b[i][j] - mb[i][j] for j in range(n)] for i in range(n)] == [
            [coeffs[n - k] * e for e in row] for row in ident
        ]
    if n > 1 or m[0][0] > 1:  # a Perron root above 1
        sub = substitution_of(m)
        expected = perron_lengths_by_elimination(sub)
        assert all(sub.lengths[x].equals(expected[x]) for x in range(n))


def test_perron_lengths_match_elimination_oracle(all_diagrams, random_specs):
    subs = [d.csub.base for d in all_diagrams.values()] + [parse_spec(t) for t in random_specs]
    for sub in subs:
        expected = perron_lengths_by_elimination(sub)
        assert sub.lengths[0].coeffs == (1,)
        assert all(sub.lengths[x].equals(expected[x]) for x in range(len(sub.alphabet)))


# Rule 0 is symmetric about its middle tile, so that tile's vertical is 0.
LONG_RULE_SPEC = "letters: 0 1\nrule 0: 0 0 1 0 1 0 0\nrule 1: 0"


def test_split_bisects_and_zero_verticals_need_no_gcd(monkeypatch):
    """On fibonacci, thue-morse and a spec with a 7-letter rule (where a scan
    up to the first negative vertical would make 5 signs), computing split
    makes at most ceil(log2(|sigma(x)| + 1)) signs of letter x's verticals,
    and deciding a zero vertical (a tile centred in its supertile, such as
    fibonacci's bd) makes no gcd: its representative is empty."""
    gcds = []
    signs = []  # (element, gcds made while deciding its sign)
    gcd, sign = rp.gcd, AlgebraicNumber.sign
    monkeypatch.setattr(rp, "gcd", lambda *a: gcds.append(a) or gcd(*a))

    def recording_sign(self):
        before = len(gcds)
        out = sign(self)
        signs.append((self, len(gcds) - before))
        return out

    monkeypatch.setattr(AlgebraicNumber, "sign", recording_sign)
    zeros = 0
    for name in ("fibonacci", "thue-morse", LONG_RULE_SPEC):
        sub = load_fixture(name) if name in FIXTURES else parse_spec(name)
        signs.clear()
        _, layouts, _ = perron_lengths(sub)
        for x, layout in layouts.items():
            mine = [(c, g) for c, g in signs if any(c is v for v in layout.vertical)]
            assert len(mine) <= math.ceil(math.log2(len(sub.rules[x]) + 1)), (name, x)
            for c in layout.vertical:
                if c.is_zero():
                    zeros += 1
                    assert c.coeffs == ()
                    assert all(g == 0 for e, g in mine if e is c)
                    before = len(gcds)
                    assert c.sign() == 0 and len(gcds) == before
    assert zeros == 3  # fibonacci's bd, the 7-letter rule's middle tile, and that spec's rule 1: 0


def test_perron_lengths_zero_pivot_is_singular():
    sub = load_fixture("fibonacci")
    vanishing = SimpleNamespace(
        field=sub.field, alphabet=sub.alphabet, rules=sub.rules, adjugate=[[[0, 0], [0, 0]]] * 2
    )
    with pytest.raises(SingularSystem):
        perron_lengths(vanishing)


def test_perron_lengths_store_the_element_arithmetic_representatives(
    all_diagrams, random_diagrams, reducible_diagrams
):
    """Integer vectors over one denominator give the very coefficient tuples
    (not just equal values) that Fraction-element sums, products and halvings
    gave, for lengths, left, right, vertical and split: on the fixtures, the
    random family and the 6 reducible moduli, where a value has many
    representatives."""
    for d in (*all_diagrams.values(), *random_diagrams, *reducible_diagrams):
        sub = d.csub.base
        lengths, layouts, (den, _) = perron_lengths(sub)
        want_lengths, want_layouts = perron_lengths_by_fractions(sub)
        assert {x: c.coeffs for x, c in lengths.items()} == {x: c.coeffs for x, c in want_lengths.items()}
        assert layouts.keys() == want_layouts.keys()
        for x, want in want_layouts.items():
            got = layouts[x]
            assert got.split == want.split
            for part in ("left", "right"):
                got_ends = [sub.field.over(v, den).coeffs for v in getattr(got, part)]
                assert got_ends == [c.coeffs for c in getattr(want, part)], (x, part)
            assert [c.coeffs for c in got.vertical] == [c.coeffs for c in want.vertical], x


def test_perron_lengths_make_no_element_arithmetic(monkeypatch, all_diagrams, reducible_diagrams):
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "scale"):
        op = getattr(AlgebraicNumber, name)
        monkeypatch.setattr(AlgebraicNumber, name, lambda self, other, _op=op, _name=name: calls.append(_name) or _op(self, other))
    for d in (*all_diagrams.values(), *reducible_diagrams):
        perron_lengths(d.csub.base)
    assert calls == []
    perron_lengths_by_fractions(all_diagrams["fibonacci"].csub.base)  # the counter does count
    assert {"__add__", "__sub__", "__mul__", "scale"} <= set(calls)


@pytest.mark.parametrize("c1, consistent", [([-1, 1, 0], True), ([-2, 0, 1], True), ([-1, 0, 1], False)])
def test_perron_lengths_decide_a_nonzero_residual_vector_exactly(monkeypatch, c1, consistent):
    """Letters 1 and 2 have length c1 (the first letter's is 1) under
    fibonacci-like rules in a reducible modulus.  With c1 = x^2 - 2, phi - 1
    at lambda but not x - 1 as a vector, the residuals are nonzero vectors
    that vanish at lambda and the exact zero test accepts them; c1 = x^2 - 1
    is phi at lambda and is refused."""
    f = field_from_charpoly(GOLDEN_TIMES_SQRT2)
    columns = [[1, 0, 0], c1, c1]  # entry j of column x is B_(n-1-j)[x][0]
    fake = SimpleNamespace(
        field=f,
        alphabet=[None] * 3,
        rules={0: (0, 1), 1: (0,), 2: (0,)},
        adjugate=[[[col[2 - k]] for col in columns] for k in range(3)],
    )
    if not consistent:
        with pytest.raises(SingularSystem, match="residual"):
            perron_lengths(fake)
        return
    tested = []
    is_zero = AlgebraicNumber.is_zero
    monkeypatch.setattr(AlgebraicNumber, "is_zero", lambda self: tested.append(self.coeffs) or is_zero(self))
    lengths, layouts, (den, _) = perron_lengths(fake)
    assert ((-1, -1, 1) in tested) == (c1 == [-2, 0, 1])  # letter 0's residual x^2 - x - 1
    assert lengths[1].coeffs == tuple(rp.poly(c1)) and lengths[1].equals(f.lam() - 1)
    assert f.over(layouts[0].right[0], den).coeffs == tuple(rp.poly(c1))  # total - ends[1], not lambda l(0) - 1
    assert [c.coeffs for c in layouts[0].vertical] == [c.coeffs for c in perron_lengths_by_fractions(fake)[1][0].vertical]


def test_irrational_lambda_skips_the_screen(monkeypatch, random_specs):
    calls = []
    screen = substitution.aperiodicity_screen
    monkeypatch.setattr(substitution, "aperiodicity_screen", lambda sub: calls.append(sub) or screen(sub))
    irrational = 0
    for text in [*FIXTURES.values(), RAND3_SPEC, *random_specs]:
        calls.clear()
        sub = parse_spec(text)
        if sub.field.rational_root is None:
            irrational += 1
            assert screen(sub) is None and calls == [], text
        else:
            assert calls == [sub], text
    assert irrational >= 10  # fibonacci, rand3 and most of the random family
    calls.clear()
    with pytest.raises(PeriodicDetected):
        parse_spec(DOUBLING_SPEC)  # integer lambda: still screened
    assert len(calls) == 1


def test_legal_words_fibonacci():
    sub = load_fixture("fibonacci")
    oracle = string_factors(expand_word(FIB_RULES, "0", 8), 2)
    assert words_str(sub, 2) == oracle == {"00", "01", "10"}
    assert words_str(sub, 1) == {"0", "1"}
    assert words_str(sub, 3) == string_factors(expand_word(FIB_RULES, "0", 10), 3)


def test_legal_words_thue_morse():
    sub = load_fixture("thue-morse")
    oracle = string_factors(expand_word(TM_RULES, "0", 6), 3)
    got = words_str(sub, 3)
    assert got == oracle
    assert len(got) == 6 and "000" not in got and "111" not in got


def test_legal_words_truncation_invariant():
    for name in ("fibonacci", "thue-morse"):
        sub = load_fixture(name)
        for n in (1, 2, 3):
            bigger = legal_words(sub, n + 1)
            truncated = {w[i : i + n] for w in bigger for i in range(2)}
            assert truncated == legal_words(sub, n)


def test_legal_words_close_the_legal_2_words_once(monkeypatch):
    factors = substitution._factors
    pair_calls = []  # one per rule image and one per sigma(xy), xy legal, in one closure
    monkeypatch.setattr(substitution, "_factors", lambda w, n: pair_calls.extend([w] * (n == 2)) or factors(w, n))
    sub = parse_spec(FIXTURES["thue-morse"])  # lambda = 2: the screen reads the legal 12-words
    words = [legal_words(sub, n) for n in (3, 4, 12)]  # collaring, horizontals, screen
    pairs = {(0, 0), (0, 1), (1, 0), (1, 1)}  # the legal 2-words of Thue-Morse
    assert len(pair_calls) == len(sub.alphabet) + len(pairs)
    assert sub.legal_pairs == legal_words(sub, 2) == pairs
    assert [len(w) for w in words] == [6, 10, 36]  # the factor complexity of Thue-Morse


def test_legal_words_match_fixed_point_on_random_family(random_specs):
    for text in random_specs:
        sub = parse_spec(text)
        for n in (1, 2, 3, 4, 5, 6, 12):
            assert legal_words(sub, n) == legal_words_fixed_point(sub, n), (text, n)


def test_aperiodicity_screen_values():
    assert aperiodicity_screen(load_fixture("fibonacci")) is None
    assert aperiodicity_screen(load_fixture("thue-morse")) is None
    periodic = parse_spec("letters: 0 1\nrule 0: 0 1\nrule 1: 0 1", check_aperiodicity=False)
    assert aperiodicity_screen(periodic) == 2


def test_aperiodicity_screen_counts_prefixes_as_the_factor_oracle(random_specs):
    period_13 = "letters: 0 1\nrule 0: " + "0 " * 12 + "1\nrule 1: " + "0 " * 12 + "1"
    periodic = "letters: 0 1\nrule 0: 0 1\nrule 1: 0 1"
    texts = [*FIXTURES.values(), DOUBLING_SPEC, RAND3_SPEC, *random_specs, *REDUCIBLE_MODULUS_SPECS, period_13, periodic]
    got = {}
    for text in texts:
        sub = parse_spec(text, check_aperiodicity=False)
        got[text] = aperiodicity_screen(sub)
        assert got[text] == screen_by_factors(sub), text
    assert got[period_13] is None and got[periodic] == 2  # period 13 passes a screen up to 12


def test_fibonacci_complexity_is_n_plus_one():
    sub = load_fixture("fibonacci")
    for n in range(1, 9):
        assert len(legal_words(sub, n)) == n + 1


def test_collar_alphabet_fibonacci():
    sub = load_fixture("fibonacci")
    triples = {
        cl.name: tuple(sub.alphabet[x].name for x in cl.triple())
        for cl in collar_alphabet(sub)
    }
    assert triples == {
        "a": ("0", "0", "1"),
        "b": ("1", "0", "0"),
        "c": ("1", "0", "1"),
        "d": ("0", "1", "0"),
    }


def test_collar_alphabet_thue_morse():
    sub = load_fixture("thue-morse")
    letters = collar_alphabet(sub)
    assert len(letters) == 6
    triples = {
        cl.name: tuple(sub.alphabet[x].name for x in cl.triple()) for cl in letters
    }
    assert triples == {
        "a": ("1", "0", "0"),
        "b": ("0", "0", "1"),
        "c": ("0", "1", "1"),
        "d": ("1", "1", "0"),
        "e": ("1", "0", "1"),
        "f": ("0", "1", "0"),
    }


def test_collar_alphabet_single_letter():
    sub = doubling()
    letters = collar_alphabet(sub)
    assert len(letters) == 1
    assert letters[0].triple() == (0, 0, 0)


def test_collared_substitution_fibonacci():
    csub = collared_substitution(load_fixture("fibonacci"))
    rules = {csub.name_of(i): csub.rule_name(i) for i in range(4)}
    assert rules == {"a": "cd", "b": "ad", "c": "ad", "d": "b"}


def test_collared_substitution_thue_morse():
    csub = collared_substitution(load_fixture("thue-morse"))
    rules = {csub.name_of(i): csub.rule_name(i) for i in range(6)}
    assert rules == {"a": "bf", "b": "ec", "c": "de", "d": "fa", "e": "bc", "f": "da"}


def test_collared_substitution_single_letter():
    csub = collared_substitution(doubling())
    assert csub.rule_name(0) == csub.name_of(0) * 2


def test_collared_projection(fib, tm, rand3):
    for diagram in (fib, tm, rand3):
        csub = diagram.csub
        for i, rule in csub.collared_rules.items():
            projected = tuple(csub.core_of(y) for y in rule)
            assert projected == csub.base.rules[csub.core_of(i)]


def test_eigen_equation_exact(fib, tm, rand3, dyadic):
    for diagram in (fib, tm, rand3, dyadic):
        sub = diagram.csub.base
        lam = sub.field.lam()
        for x, rule in sub.rules.items():
            total = sub.field.zero
            for y in rule:
                total = total + sub.lengths[y]
            assert (total - lam * sub.lengths[x]).is_zero()
        csub = diagram.csub
        for i, rule in csub.collared_rules.items():
            total = sub.field.zero
            for y in rule:
                total = total + csub.base.lengths[csub.core_of(y)]
            assert (total - lam * csub.base.lengths[csub.core_of(i)]).is_zero()


def test_collared_pairs_project_to_legal_4words(fib, tm, rand3):
    for diagram in (fib, tm, rand3):
        csub = diagram.csub
        legal4 = legal_words(csub.base, 4)
        for rule in csub.collared_rules.values():
            for t, u in zip(rule, rule[1:]):
                ct, cu = csub.collared_alphabet[t], csub.collared_alphabet[u]
                word = (ct.left, ct.core, cu.core, cu.right)
                assert word in legal4


def test_collar_names_length_check():
    text = "letters: 0 1\nrule 0: 0 1\nrule 1: 0\ncollar-names: a b"
    sub = parse_spec(text)
    with pytest.raises(ParseError):
        collar_alphabet(sub)


@pytest.mark.parametrize("name", ["a(", "a)", ";a", "a|b", "a>b"])
def test_collar_names_refuse_path_delimiters(name):
    # '#' never reaches a name: it starts a comment
    text = f"letters: 0 1\nrule 0: 0 1\nrule 1: 0\ncollar-names: d {name} b c\n"
    with pytest.raises(ParseError, match="path delimiter") as exc:
        parse_spec(text)
    assert (exc.value.line, exc.value.column) == (4, len("collar-names: d ") + 1)


def test_perron_lengths_positive(rand3):
    sub = rand3.csub.base
    for y in range(len(sub.alphabet)):
        assert sub.lengths[y].sign() == 1
