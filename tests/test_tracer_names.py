"""The benchmark tracer rebinds library attributes by name; a renamed or
deleted function would break only traced benchmark runs, so check here
that every name it wraps still resolves."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from bratteli.diagram import BratteliDiagram, enumerate_squares

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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
    """The tracer's squares note counts len(enumerate_squares(...)), the
    canonical squares, and bench/freeze.py reads out_edges, squares and
    field._reduced."""
    for name, fixture in all_diagrams.items():
        d = BratteliDiagram(fixture.csub)  # a fresh build, as the tracer times it
        assert len(enumerate_squares(d)) == len(d.canonical_squares) > 0, name
        assert d.out_edges and d.squares and d.field._reduced, name


def library_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name == "bratteli" or name.startswith("bratteli.")}


def test_tracer_plans_on_a_fresh_import_as_the_harness_makes_it():
    """bench/run.py drops the bratteli modules, imports bratteli and
    bratteli.cli afresh and hands sys.modules to Tracer.plan, which reads
    every traced module out of it by name: a module the package loads only
    lazily would be missing there.  plan prepares wrappers and rebinds
    nothing."""
    tracer = load_tracer()
    saved = library_modules()
    try:
        for name in saved:
            del sys.modules[name]
        importlib.import_module("bratteli")
        importlib.import_module("bratteli.cli")
        fresh = library_modules()
        assert all(m is not saved.get(name) for name, m in fresh.items())
        planned = tracer.Tracer()
        planned.plan(sys.modules)
        owners = {id(owner) for owner, *_ in planned.patches}
        assert {id(fresh[module]) for _, module, attr in tracer.SPANS + tracer.COUNTERS if "." not in attr} <= owners
        for owner, attr, original, wrapper in planned.patches:
            assert vars(owner)[attr] is original and wrapper is not original, attr
    finally:
        for name in library_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_fresh_interpreter_imports_no_dataclasses_and_every_traced_module():
    """The CLI's import loads neither `dataclasses` nor `json`, and it loads every
    module the tracer wraps."""
    modules = sorted({module for _, module, _ in load_tracer().SPANS})
    code = "import sys, bratteli.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "dataclasses" not in loaded
    assert "json" not in loaded
    assert set(modules) <= loaded, set(modules) - loaded
