"""Mutation fuzz of the two text parsers: whatever a user can type into
them, only a BratteliError (exit 2 at the CLI) may come out."""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bratteli.errors import BratteliError
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
