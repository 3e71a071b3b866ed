"""The verify-paper battery is not vacuous, and the package keeps its
arithmetic exact."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from bratteli import verify
from bratteli.cli import main
from bratteli.exactnum import AlgebraicNumber

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
