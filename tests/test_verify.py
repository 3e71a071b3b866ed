"""The verify-paper battery is not vacuous, and the package keeps its
arithmetic exact."""

from __future__ import annotations

import ast
from copy import copy
from itertools import zip_longest
from pathlib import Path

import oracles
import pytest

from bratteli import verify
from bratteli.cli import main
from bratteli.diagram import HorizontalTemplate, VerticalTemplate
from bratteli.exactnum import AlgebraicNumber, ModulusField

SRC = Path(__file__).resolve().parents[1] / "src" / "bratteli"


def spoil(value):
    """The expected value with its first entry changed."""
    if isinstance(value, AlgebraicNumber):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: spoil(value[key])}
    first, *rest = value
    return type(value)([spoil(first), *rest])


@pytest.mark.parametrize("fixture", sorted(verify.EXPECTED))
def test_each_spoiled_value_fails_exactly_its_check(fixture, fib, tm, monkeypatch, capsys):
    original = verify.EXPECTED[fixture]
    table = original({"fibonacci": fib, "thue-morse": tm}[fixture])
    assert table
    for name, parts in table.items():
        for check in parts:

            def spoiled(diagram, name=name, check=check):
                t = original(diagram)
                return {**t, name: {**t[name], check: spoil(t[name][check])}}

            monkeypatch.setitem(verify.EXPECTED, fixture, spoiled)
            code = main(["verify-paper", fixture])
            fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
            assert code == 1, (name, check.__name__)
            assert len(fails) == 1 and fails[0].startswith(f"FAIL  {name}  ["), (name, check.__name__, fails)
            assert fails[0].endswith("]") and len(fails[0]) > len(f"FAIL  {name}  []"), fails
    monkeypatch.setitem(verify.EXPECTED, fixture, original)
    assert main(["verify-paper", fixture]) == 0


def test_no_floats_and_fractions_only_in_the_exact_layer():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), f"{where}: float literal"
            is_float_call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            assert not is_float_call, f"{where}: float() call"
            if isinstance(node, ast.Import):
                modules = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module.split(".")[0]]
            else:
                continue
            if "fractions" in modules:
                assert path.stem in ("exactnum", "ratpoly"), f"{where}: fractions imported outside exactnum/ratpoly"


def test_exact_arithmetic_stays_in_exactnum_and_ratpoly():
    """Only exactnum.py and ratpoly.py import fractions or read an element's
    stored form (.coeffs, .numerator, .denominator), and only exactnum.py
    calls the AlgebraicNumber constructor: every other module makes elements
    through the field's factories and the ring operations."""
    importers, constructors, readers = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names):
                importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "fractions":
                importers.add(path.name)
            elif isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "AlgebraicNumber":
                    constructors.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr in ("coeffs", "numerator", "denominator"):
                readers.add(path.name)
    assert importers == {"exactnum.py", "ratpoly.py"}
    assert readers == {"exactnum.py", "ratpoly.py"}
    assert constructors == {"exactnum.py"}


SQUARE_CHECKS = (verify._residuals, verify._opposites, oracles.residuals_by_elements, oracles.opposites_by_elements)


def verdicts(diagram) -> list[bool]:
    """Whether each of SQUARE_CHECKS passes: the integer checks, then their element references."""
    out = []
    for check in SQUARE_CHECKS:
        try:
            check(diagram)
            out.append(True)
        except AssertionError:
            out.append(False)
    return out


def shifted(diagram, vertical: int | None = None, horizontal: int | None = None, by=(1,)):
    """A shallow copy of the diagram with one template's coefficient plus the
    integer polynomial `by` (lowest degree first): its vector plus den * by."""

    def plus(c):
        return tuple(a + diagram.den * b for a, b in zip_longest(c, by, fillvalue=0))

    out = copy(diagram)
    if vertical is not None:
        e = diagram.verticals[vertical]
        out.verticals = list(diagram.verticals)
        out.verticals[vertical] = VerticalTemplate(e.index, e.src, e.rng, e.pos, plus(e.coeff))
    if horizontal is not None:
        h = diagram.horizontals[horizontal]
        out.horizontals = list(diagram.horizontals)
        out.horizontals[horizontal] = HorizontalTemplate(h.index, h.src, h.rng, plus(h.coeff), h.trivial, h.opposite)
    return out


def test_integer_square_checks_agree_with_element_reference(all_diagrams, random_diagrams, reducible_diagrams):
    diagrams = (*all_diagrams.values(), *random_diagrams, *reducible_diagrams)
    assert len(diagrams) == 30
    for d in diagrams:
        assert verdicts(d) == [True] * 4
        s = next(s for s in d.squares if s.e_left != s.e_right)  # not a tail square, so h_top is nontrivial
        assert not d.horizontals[s.h_top].trivial
        assert verdicts(shifted(d, vertical=s.e_left)) == [False, True, False, True]
        assert verdicts(shifted(d, horizontal=s.h_top)) == [False] * 4


def test_nonzero_representative_of_zero_goes_to_the_exact_test(reducible_diagrams, monkeypatch):
    d = reducible_diagrams[0]
    f = d.field
    assert f._reduced == [-1, -1, 0, -1, 1]  # (x^2 - x - 1)(x^2 + 1), and lambda = phi
    zero = f.element([-1, -1, 1])  # x^2 - x - 1: a nonzero representative of 0
    assert zero.coeffs and zero.is_zero()
    s = next(s for s in d.squares if s.e_left != s.e_right)
    spoiled = shifted(d, vertical=s.e_left, by=(-1, -1, 1))
    exact = []
    vanishes = ModulusField._vanishes
    monkeypatch.setattr(ModulusField, "_vanishes", lambda field, p: exact.append(vanishes(field, p)) or exact[-1])
    verify._residuals(spoiled)
    assert any(zero for zero, _ in exact)  # the residual vector was nonzero, so the certificate decided it
    assert verdicts(spoiled) == [True] * 4


def test_square_checks_form_no_element(all_diagrams, monkeypatch):
    """Each vector of the two square checks goes to the field's sign routine
    as integers: neither check builds an AlgebraicNumber."""
    for d in all_diagrams.values():
        d.squares  # the census is formed outside the spy
    made = []
    init = AlgebraicNumber.__init__
    monkeypatch.setattr(AlgebraicNumber, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    for d in all_diagrams.values():
        verify._residuals(d)
        verify._opposites(d)
    assert made == []
    all_diagrams["fibonacci"].field.over([1, 1], 2)
    assert made  # the spy does count


def test_square_checks_do_no_element_arithmetic(all_diagrams, monkeypatch):
    for d in all_diagrams.values():
        d.squares  # the census is formed outside the spy
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        op = getattr(AlgebraicNumber, name)
        monkeypatch.setattr(AlgebraicNumber, name, lambda *args, op=op, name=name: calls.append(name) or op(*args))
    d = all_diagrams["fibonacci"]
    d.lam * d.lam - d.lam + 1
    assert calls == ["__mul__", "__sub__", "__add__"]  # the spy sees the operators
    calls.clear()
    for d in all_diagrams.values():
        verify._residuals(d)
        verify._opposites(d)
    assert calls == []
