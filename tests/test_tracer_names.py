"""The benchmark tracer rebinds library attributes by name; a renamed or
deleted function would break only traced benchmark runs, so check here
that every name it wraps still resolves."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
