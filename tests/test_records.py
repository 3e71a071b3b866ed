"""The library's small records: construction by position and by keyword
with their defaults, value equality, hashing (by value on the frozen ones,
refused on the mutable ones), refused assignment on the frozen ones, the
keyword repr, and copy and pickle round trips."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from bratteli.analysis import GapProfile, GFVerdict
from bratteli.diagram import BratteliDiagram, DiagramTemplate, HorizontalTemplate, VerticalTemplate
from bratteli.errors import ParseError
from bratteli.paths import DecodedPatch, Pairing, PatchTile, RbWitness, parse_path
from bratteli.substitution import CollaredLetter, Letter, LetterLayout
from bratteli.verify import CheckResult

HALF = Fraction(1, 2)

# (class, field values in constructor order, whether frozen, the repr); the
# values are plain data, so that equal records stay equal through pickle
RECORDS = [
    (GapProfile, {"gaps": [(0, 0), (1, HALF)]}, False, "GapProfile(gaps=[(0, 0), (1, Fraction(1, 2))])"),
    (GFVerdict, {"kind": "G", "side": None, "witness": (0, 1)}, False, "GFVerdict(kind='G', side=None, witness=(0, 1))"),
    (
        VerticalTemplate,
        {"index": 3, "src": 1, "rng": 2, "pos": 0, "coeff": HALF},
        True,
        "VerticalTemplate(index=3, src=1, rng=2, pos=0, coeff=Fraction(1, 2))",
    ),
    (
        HorizontalTemplate,
        {"index": 4, "src": 0, "rng": 1, "coeff": Fraction(3, 2), "trivial": False, "opposite": 5},
        True,
        "HorizontalTemplate(index=4, src=0, rng=1, coeff=Fraction(3, 2), trivial=False, opposite=5)",
    ),
    (
        DiagramTemplate,
        {"h_top": 7, "e_left": 1, "e_right": 2, "h_bot": 8, "kind": "cyclic", "canonical": False},
        True,
        "DiagramTemplate(h_top=7, e_left=1, e_right=2, h_bot=8, kind='cyclic', canonical=False)",
    ),
    (
        PatchTile,
        {"name": "ab", "base": "a", "collared": True, "left": 0, "right": HALF},
        True,
        "PatchTile(name='ab', base='a', collared=True, left=0, right=Fraction(1, 2))",
    ),
    (
        DecodedPatch,
        {"tiles": ["t"], "puncture_index": 0, "offset": HALF, "top_vertex": 2, "depth": 3, "left": -1, "right": 1},
        False,
        "DecodedPatch(tiles=['t'], puncture_index=0, offset=Fraction(1, 2), top_vertex=2, depth=3, left=-1, right=1)",
    ),
    (Pairing, {"pairs": [("x", "y")]}, False, "Pairing(pairs=[('x', 'y')])"),
    (RbWitness, {"n0": 2, "chain": (1, 3), "translation": HALF}, False, "RbWitness(n0=2, chain=(1, 3), translation=Fraction(1, 2))"),
    (Letter, {"id": 0, "name": "a"}, True, "Letter(id=0, name='a')"),
    (
        CollaredLetter,
        {"index": 5, "left": 1, "core": 0, "right": 1, "name": "b_a_b"},
        True,
        "CollaredLetter(index=5, left=1, core=0, right=1, name='b_a_b')",
    ),
    (
        LetterLayout,
        {"split": 1, "left": (0, 1), "right": (1, 0), "vertical": (HALF, -HALF)},
        True,
        "LetterLayout(split=1, left=(0, 1), right=(1, 0), vertical=(Fraction(1, 2), Fraction(-1, 2)))",
    ),
    (CheckResult, {"name": "squares", "ok": False, "detail": "no"}, False, "CheckResult(name='squares', ok=False, detail='no')"),
]


def other_value(value):
    return value + "?" if isinstance(value, str) else (value,)


@pytest.mark.parametrize("cls, fields, frozen, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, frozen, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value and getattr(by_keyword, name) == value

    # value equality, field by field, and only with the same class
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position is not by_keyword
    for name in fields:
        changed = cls(**{**fields, name: other_value(fields[name])})
        assert changed != by_position and not changed == by_position, name
    assert by_position != tuple(fields.values())

    if frozen:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(by_position, name, fields[name])
            with pytest.raises(AttributeError):
                delattr(by_position, name)
        assert by_position == by_keyword
    else:
        with pytest.raises(TypeError):
            hash(by_position)
        name = next(iter(fields))
        setattr(by_position, name, other_value(fields[name]))
        assert getattr(by_position, name) == other_value(fields[name]) and by_position != by_keyword
        setattr(by_position, name, fields[name])
        assert by_position == by_keyword

    assert repr(by_keyword) == text

    for clone in (copy.copy(by_keyword), copy.deepcopy(by_keyword), pickle.loads(pickle.dumps(by_keyword))):
        assert type(clone) is cls and clone == by_keyword and clone is not by_keyword
        assert repr(clone) == text


def test_record_defaults():
    assert DiagramTemplate(7, 1, 2, 8, "af") == DiagramTemplate(7, 1, 2, 8, "af", True)
    assert DiagramTemplate(h_top=7, e_left=1, e_right=2, h_bot=8, kind="af").canonical is True
    assert CheckResult("squares", True) == CheckResult("squares", True, "")
    assert CheckResult(name="squares", ok=True).detail == ""
    with pytest.raises(TypeError):
        Letter(0)
    with pytest.raises(TypeError):
        Letter(0, "a", "b")
    with pytest.raises(TypeError):
        Letter(id=0, label="a")


def test_records_of_a_built_diagram_compare_by_value(fib):
    """Templates and letters rebuilt from the same rules equal the stored
    ones where their fields are equal: the shared coefficient objects."""
    for h in fib.horizontals:
        assert HorizontalTemplate(h.index, h.src, h.rng, h.coeff, h.trivial, h.opposite) == h
    for cl in fib.csub.collared_alphabet:
        assert CollaredLetter(cl.index, cl.left, cl.core, cl.right, cl.name) == cl
        assert hash(CollaredLetter(cl.index, cl.left, cl.core, cl.right, cl.name)) == hash(cl)
    assert len(set(fib.squares)) == len({s.key() for s in fib.squares}) == len(fib.squares)


def test_paths_are_frozen_values(fib):
    """A path holds its diagram, so it is not plain data for RECORDS: two
    parses of one literal are equal and hash alike on the same diagram
    object only, every field refuses assignment and deletion, a copy
    rebuilds through the constructor, and the constructor is the one
    composability check of a parsed literal."""
    other = BratteliDiagram(fib.csub)
    for literal in ("root=a; ac ca ab", "root=d; dc (ca ac)"):
        p, q = parse_path(fib, literal), parse_path(fib, literal)
        assert p == q and p is not q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != parse_path(other, literal) and not p == parse_path(other, literal)
        for name in type(p).__slots__:
            with pytest.raises(AttributeError):
                setattr(p, name, getattr(q, name))
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == q
        clone = copy.copy(p)
        assert type(clone) is type(p) and clone == p and clone is not p and clone.diagram is fib
    with pytest.raises(ParseError, match="edge ca at generation 3"):
        parse_path(fib, "root=a; ab ca")
