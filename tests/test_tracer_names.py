"""The benchmark tracer rebinds library attributes by name; a renamed or
deleted function would break only traced benchmark runs, so check here
that every name it wraps still resolves."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from bratteli.diagram import BratteliDiagram, enumerate_squares

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = load_tracer()
    names = tracer.SPANS + tracer.COUNTERS
    assert names
    for metric, module_name, attribute in names:
        obj = importlib.import_module(module_name)
        for part in attribute.split("."):
            assert hasattr(obj, part), f"{metric}: {module_name}.{attribute} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), f"{metric}: {module_name}.{attribute} is not callable"


def test_traced_census_counts_and_frozen_fields(all_diagrams):
    """The tracer's squares note counts len(enumerate_squares(...)), and
    bench/freeze.py reads out_edges, squares and field._reduced."""
    for name, fixture in all_diagrams.items():
        d = BratteliDiagram(fixture.csub)  # a fresh build, as the tracer times it
        assert len(enumerate_squares(d)) == len(d.squares) > 0, name
        assert d.out_edges and d.field._reduced, name
