"""Mutation fuzz of the four text parsers: whatever a user can type into
them, only a BratteliError (exit 2 at the CLI) may come out."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bratteli.diagram import build_diagram, diagram_from_json, export_json
from bratteli.errors import BratteliError
from bratteli.exactnum import ModulusField, parse_algebraic
from bratteli.fixtures import DOUBLING_SPEC, FIBONACCI_SPEC, THUE_MORSE_SPEC
from bratteli.paths import parse_path
from bratteli.substitution import parse_spec

from conftest import RAND3_SPEC

# ASCII that the grammars use, whitespace, and non-ASCII digits and letters
# that str.isdigit / str.split / int() treat in their own ways
NOISE = "0123456789abcd#()|;:=>+-*/^L. \n\t²٣ é"

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutated(draw, seeds):
    """A seed with one to four slices replaced by short noise."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        text = text[:i] + draw(st.text(NOISE, max_size=6)) + text[j:]
    return text


def only_bratteli_errors(parse, text):
    try:
        parse(text)
    except BratteliError:
        pass


@pytest.fixture(scope="module")
def golden():
    return ModulusField([-1, -1, 1])


@FUZZ
@given(mutated([FIBONACCI_SPEC, THUE_MORSE_SPEC, DOUBLING_SPEC, RAND3_SPEC]))
def test_parse_spec_fuzz(text):
    only_bratteli_errors(parse_spec, text)


@FUZZ
@example(text="root=a; aa#\u00b2 (aa#1)")  # a digit to str.isdigit, not to int()
@example(text="root=a; ac#" + "9" * 5000)  # a position past int()'s digit limit
@given(text=mutated(["root=a; ac ca ab", "root=d; dc (ca ac)", "root=a; ab | (bd db)", "root=a; aa#0 (aa#1)"]))
def test_parse_path_fuzz(fib, dyadic, text):
    for diagram in (fib, dyadic):
        only_bratteli_errors(lambda t: parse_path(diagram, t), text)


@FUZZ
@given(text=mutated(["1/2 + 1/2*L", "-1 + L", "3/4*L - 2", "0"]))
def test_parse_algebraic_fuzz(golden, text):
    only_bratteli_errors(lambda t: parse_algebraic(golden, t), text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(NOISE, max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(NOISE, max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_json(draw, payload):
    """The payload with one node, picked by a walk from the top, replaced by
    a small JSON value or removed."""
    payload = json.loads(json.dumps(payload))
    node, key = None, None
    obj = payload
    while isinstance(obj, (dict, list)) and obj and draw(st.booleans()):
        node = obj
        key = draw(st.sampled_from(sorted(obj) if isinstance(obj, dict) else range(len(obj))))
        obj = obj[key]
    if node is None:
        return json.dumps(draw(json_values))
    if draw(st.booleans()):
        node[key] = draw(json_values)
    else:
        del node[key]
    return json.dumps(payload)


FIB_JSON = json.loads(export_json(build_diagram(parse_spec(FIBONACCI_SPEC))))


@FUZZ
@example("[" * 10**5)  # nested past the recursion limit
@example('{"spec": ' + "9" * 5000 + "}")  # a number past int()'s digit limit
@given(mutated_json(FIB_JSON) | mutated([json.dumps(FIB_JSON)]))
def test_diagram_from_json_fuzz(text):
    only_bratteli_errors(diagram_from_json, text)
