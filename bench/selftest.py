"""Self-test of the benchmark: short runs of every workload.

    python3 bench/selftest.py

Checks that a short run emits exactly the metrics BENCHMARK.json names,
that a deliberately corrupted output is counted as a failed operation,
that the build-family and the pool of specs still draw as frozen, that the
traced self times add up, and that the command fails without printing a
result when the library's sources are absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import freeze
import run
from workloads import DEFAULT_SEED, OUT_DIR, WORKLOADS

SHORT_OPS = 12  # operations per pass in the in-process runs


def short_run(name: str, **kwargs) -> run.Run:
    r = run.Run(WORKLOADS[name], run.load_frozen(), DEFAULT_SEED, seconds=0.0, **kwargs)
    r.ops = r.ops[:SHORT_OPS]
    return r


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END, "end_to_end metrics differ from BENCHMARK.json"
    assert per_layer == run.PER_LAYER, "per_layer metrics differ from BENCHMARK.json"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

    for name in WORKLOADS:
        r = short_run(name)
        values = r.end_to_end()
        assert not r.failures and not r.errors, (name, r.failures, r.errors)
        assert all(values[m] > 0 for m in end_to_end), (name, values)

        r = short_run(name)
        values = r.traced(None)
        assert not r.failures and not r.errors, (name, r.failures, r.errors)
        assert set(per_layer) <= set(values), (name, set(per_layer) - set(values))
        assert values["trace.self_sum_error_s"] < 1e-9, (name, values["trace.self_sum_error_s"])

        r = short_run(name, corrupt=True)
        r.end_to_end()
        assert len(r.failures) == 1 and r.attempted == len(r.ops), (name, r.failures)
        print(f"ok {name}: metrics emitted, corrupted output counted as failed ({r.failures[0][:60]}...)")

    errors = freeze.check_pool(run.import_library(), run.load_frozen(), 1)
    assert not errors, errors
    print("ok pool: the family and the first spec of each size draw as frozen")

    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-session", "--seconds", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    line = json.loads(result.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"] and line["correct"], line
    assert {k: v["unit"] for k, v in line["metrics"].items()} == end_to_end, line
    print("ok command: last line is the result object")

    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-session", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert result.returncode != 0 and '"metrics"' not in result.stdout, result
    print("ok bare: without the library's sources the command fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
