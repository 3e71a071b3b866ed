from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from bratteli.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_collar_fibonacci(capsys):
    code, out, _ = run(capsys, "collar", "--fixture", "fibonacci")
    assert code == 0
    assert "sigma(a) = cd" in out
    assert "a = 0 0̇ 1" in out


def test_collar_periodic_spec_exits_2(capsys, tmp_path):
    spec = tmp_path / "period.sub"
    spec.write_text("letters: 0 1\nrule 0: 0 1\nrule 1: 0 1\n")
    code, _, err = run(capsys, "collar", "--spec", str(spec))
    assert code == 2
    assert "periodic" in err


def test_diagram_json_counts(capsys):
    code, out, _ = run(capsys, "diagram", "--fixture", "fibonacci", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["verticals"]) == 7
    assert sum(1 for h in payload["horizontals"] if not h["trivial"]) == 10
    assert sum(1 for d in payload["diagrams"] if d["kind"] == "cyclic") == 2


def test_diagram_dot_depth(capsys):
    code, out, _ = run(capsys, "diagram", "--fixture", "fibonacci", "--depth", "3", "--format", "dot")
    assert code == 0
    assert out.count("rank=same") == 3
    assert out.startswith("digraph")


def test_diagram_out_file(capsys, tmp_path):
    target = tmp_path / "d.json"
    code, out, _ = run(capsys, "diagram", "--fixture", "thue-morse", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["vertices"] == ["a", "b", "c", "d", "e", "f"]


def test_diagram_out_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "diagram", "--fixture", "fibonacci", "--format", "json", "--out", str(tmp_path))
    assert code == 3
    assert "io error" in err


def test_determinism(capsys):
    _, out1, _ = run(capsys, "diagram", "--fixture", "thue-morse", "--format", "json")
    _, out2, _ = run(capsys, "diagram", "--fixture", "thue-morse", "--format", "json")
    assert out1 == out2


def test_decode_fibonacci(capsys):
    code, out, _ = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a; ac ca ab")
    assert code == 0
    assert "ȧdbad" in out
    assert "puncture index: 0" in out


def test_decode_thue_morse(capsys):
    code, out, _ = run(capsys, "decode", "--fixture", "thue-morse", "--x", "root=a; ad dc cb")
    assert code == 0
    assert "ecdefȧbc" in out


def test_decode_root_only(capsys):
    code, out, _ = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a;")
    assert code == 0
    assert "word: ȧ" in out


def test_decode_collared(capsys):
    code, out, _ = run(capsys, "decode", "--fixture", "fibonacci", "--collared", "--x", "root=a;")
    assert code == 0
    assert "word: 0ȧ1" in out


def test_decode_bad_literal_exits_2(capsys):
    code, _, err = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a; zz")
    assert code == 2 and "error" in err


def test_decode_too_deep_exits_2(capsys):
    code, out, err = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)", "--depth", "40")
    assert code == 2 and out == ""
    assert err == "error: decode at depth 40 would produce 165580141 tiles, above the limit of 1000000\n"


def test_python_m_bratteli(capsys):
    argv = ["decode", "--fixture", "fibonacci", "--x", "root=a; ac ca ab"]
    _, expected, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", *argv], env=env, capture_output=True, encoding="utf-8", timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_extremes(capsys):
    code, out, _ = run(capsys, "extremes", "--fixture", "fibonacci")
    assert code == 0
    assert "root=a; (ac ca)" in out
    assert "root=b; (bd db)  ->  root=a; (ac ca)" in out


def test_vershik_psi_jump(capsys):
    code, out, _ = run(capsys, "vershik", "--fixture", "fibonacci", "--x", "root=b; (bd db)", "--steps", "1")
    assert code == 0
    assert "[psi]" in out
    assert "root=a; (ac ca)" in out


def test_rb_witness(capsys):
    code, out, _ = run(
        capsys, "rb", "--fixture", "fibonacci", "--x", "root=a; (ac ca)", "--y", "root=b; (bd db)"
    )
    assert code == 0
    assert "equivalent" in out
    assert "translation a(x,y): 1 = 1.000000" in out


def test_rb_none(capsys):
    code, out, _ = run(
        capsys, "rb", "--fixture", "fibonacci", "--x", "root=a; (ac ca)", "--y", "root=c; (ca ac)"
    )
    assert code == 0
    assert "None" in out


def test_analyze_verdicts(capsys):
    code, out, _ = run(capsys, "analyze", "--fixture", "fibonacci", "--x", "root=a; (ac ca)")
    assert code == 0
    assert "verdict: F" in out
    code, out, _ = run(capsys, "analyze", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)")
    assert "verdict: G" in out
    code, out, _ = run(capsys, "analyze", "--fixture", "fibonacci", "--x", "root=a; ac ca")
    assert "no tail verdict" in out


def test_verify_paper(capsys):
    for fixture in ("fibonacci", "thue-morse"):
        code, out, _ = run(capsys, "verify-paper", fixture)
        assert code == 0
        assert "FAIL" not in out


def test_verify_paper_unknown_fixture(capsys):
    code, _, err = run(capsys, "verify-paper", "penrose")
    assert code == 2
    assert "unknown fixture" in err


def test_spec_file_roundtrip(capsys, tmp_path):
    spec = tmp_path / "fib.sub"
    spec.write_text("letters: 0 1\nrule 0: 0 1\nrule 1: 0\ncollar-names: a d b c\n")
    code, out, _ = run(capsys, "collar", "--spec", str(spec))
    assert code == 0 and "sigma(a) = cd" in out
