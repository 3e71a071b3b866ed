from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from bratteli.diagram import build_diagram
from bratteli.errors import BratteliError
from bratteli.fixtures import doubling, load_fixture
from bratteli.paths import enumerate_paths
from bratteli.substitution import parse_spec

# Deterministic "random primitive 3-letter substitution": first success of a
# seeded draw (letters 0 1 2, rule lengths 1..3).  The text is frozen so a
# drift in the generator cannot silently change the fixture.
RAND3_SEED = 1200
RAND3_SPEC = "letters: 0 1 2\nrule 0: 2 1\nrule 1: 2\nrule 2: 0 0 2"


def draw_random_spec(seed: int) -> str:
    rng = random.Random(seed)
    while True:
        lines = ["letters: 0 1 2"]
        for a in "012":
            k = rng.randint(1, 3)
            lines.append(f"rule {a}: " + " ".join(rng.choice("012") for _ in range(k)))
        text = "\n".join(lines)
        try:
            parse_spec(text)
        except BratteliError:
            continue
        return text


# (x^2 - x - 1)(x^2 - 2): lambda = phi, and the quotient ring has zero
# divisors; phi - 1 is represented by x - 1 and also by x^2 - 2.
GOLDEN_TIMES_SQRT2 = [2, 2, -3, -1, 1]

# The frozen benchmark specs whose modulus is reducible over Q: there a value
# at lambda has many representatives, so another route to the same value (a
# sum of lengths in place of lambda times a length) could store another one.
REDUCIBLE_MODULUS_SPECS = [
    "letters: 0 1 2 3\nrule 0: 2\nrule 1: 0\nrule 2: 2 1 3\nrule 3: 1",
    "letters: 0 1 2 3\nrule 0: 2 1\nrule 1: 0 1 0\nrule 2: 2 3 2\nrule 3: 0",
    "letters: 0 1 2 3\nrule 0: 0 3\nrule 1: 0 2\nrule 2: 0 1 3\nrule 3: 2 0 0",
    "letters: 0 1 2 3 4\nrule 0: 2 4\nrule 1: 3\nrule 2: 1 2\nrule 3: 2 0 3\nrule 4: 4 4 1",
    "letters: 0 1 2 3 4\nrule 0: 1 3\nrule 1: 1 2\nrule 2: 4 1 3\nrule 3: 2\nrule 4: 2 0 4",
    "letters: 0 1 2 3 4 5\nrule 0: 2\nrule 1: 5 3 3\nrule 2: 5 4 2\nrule 3: 0 4\nrule 4: 2 1\nrule 5: 3 5",
]


# The benchmark's frozen inputs (read only): 196 specs with their export digests.
FROZEN_BENCH = Path(__file__).resolve().parents[1] / "bench" / "frozen.json"


def frozen_bench_specs() -> list[dict]:
    frozen = json.loads(FROZEN_BENCH.read_text(encoding="utf-8"))
    return frozen["fixed"] + frozen["pool"]


# Seeds of the random family that the properties below are also checked on.
RANDOM_FAMILY_SEEDS = range(20)


def nonempty_paths(diagram, pre_limit: int, cycle_limit: int = 2):
    """enumerate_paths with the cycle bound raised to the shortest vertex
    cycle where that is longer, so that no diagram's sample is empty (a
    primitive diagram has a cycle through every vertex)."""
    while not (paths := enumerate_paths(diagram, pre_limit, cycle_limit)):
        cycle_limit += 1
    return paths


@pytest.fixture(scope="session")
def random_specs():
    return [draw_random_spec(seed) for seed in RANDOM_FAMILY_SEEDS]


@pytest.fixture(scope="session")
def random_diagrams(random_specs):
    return [build_diagram(parse_spec(text)) for text in random_specs]


@pytest.fixture(scope="session")
def reducible_diagrams():
    return [build_diagram(parse_spec(text)) for text in REDUCIBLE_MODULUS_SPECS]


@pytest.fixture(scope="session")
def spec_pool(random_specs):
    """Substitutions of the random family, the reducible-modulus specs,
    doubling, rand3 and the 196 frozen bench specs."""
    texts = [(text, True) for text in (*random_specs, *REDUCIBLE_MODULUS_SPECS, RAND3_SPEC)]
    texts += [(spec["text"], spec.get("check_aperiodicity", True)) for spec in frozen_bench_specs()]
    return [doubling()] + [parse_spec(text, check_aperiodicity=screen) for text, screen in texts]


@pytest.fixture(scope="session")
def fib():
    return build_diagram(load_fixture("fibonacci"))


@pytest.fixture(scope="session")
def tm():
    return build_diagram(load_fixture("thue-morse"))


@pytest.fixture(scope="session")
def dyadic():
    return build_diagram(doubling())


@pytest.fixture(scope="session")
def rand3():
    text = draw_random_spec(RAND3_SEED)
    assert text == RAND3_SPEC, "seeded draw drifted; update the frozen spec"
    return build_diagram(parse_spec(text))


@pytest.fixture(scope="session")
def all_diagrams(fib, tm, dyadic, rand3):
    return {"fibonacci": fib, "thue-morse": tm, "doubling": dyadic, "rand3": rand3}
