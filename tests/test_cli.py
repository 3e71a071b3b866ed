from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

from bratteli import cli
from bratteli.cli import main
from bratteli.diagram import MAX_DOT_LINES, dot_line_count, export_dot
from bratteli.fixtures import FIBONACCI_SPEC

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

# SHA-256 of the stdout of every README command (and of the file that --out
# writes), recorded before the pair-sum census, the one-pass add/sub and the
# bounded legal words replaced the code they run.
README_SHA256 = {
    "bratteli collar --fixture fibonacci": "39c772d596f9a25624c7f640871f6bffc63caf32fa91c4d27854615c9ca4aa92",
    "bratteli diagram --fixture fibonacci --format json": "0cb1e8b59ec63342c375771c400891fde351d06fa0bbdddc3877d5d9f8224b32",
    "bratteli diagram --fixture thue-morse --depth 3 --format dot --out tm.dot": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        " 121fa48dd4a84c73289724b984a746f4937a92a3680db0b4317cc077ae6fcc1c"
    ),
    'bratteli decode --fixture fibonacci --x "root=a; ac ca ab"': "7a4f335c6597caeb60725502177a342e09a959bee78b23d59ecac2c0786d0bae",
    'bratteli decode --fixture fibonacci --collared --x "root=a;"': "fb046f966b02689881281bc0f842ac18da76136834b30349192b026787ee4dd6",
    "bratteli extremes --fixture fibonacci": "4fdb9656cd4d0a5abc0a2a2cdfef54d24c6e7add7d00376f4dc1d557ead5ca94",
    'bratteli vershik --fixture fibonacci --x "root=b; (bd db)" --steps 5': "fae7e0164dae23964cbc57e0fc811eda5bab661f852d6681ca35d4406764351a",
    'bratteli rb --fixture fibonacci --x "root=a; (ac ca)" --y "root=b; (bd db)"': "af0d2a4114ea4792349acf4f5f1d324aec7e8a4755c747df2bd3a99920bb52c0",
    'bratteli analyze --fixture fibonacci --x "root=a; (ab bd da)"': "a798ce74a9b79ea6d66236084fe0c15f41ffdc505a91ae75a6db0b0e000bbb27",
    "bratteli verify-paper fibonacci": "98934a6937f892def2f3ad7acdafb3c27581c208b4b2e0afc0e1d17b7c8443ef",
    "bratteli verify-paper thue-morse": "e5b1d57947098aa2e9af0626ad52e64c804df969a4b1ded007e57ab42611febc",
}


# The deepest refinements of the benchmark's cli-session, pinned to the stdout
# digests bench/frozen.json records for them (read only).
FROZEN_BENCH = SRC.parent / "bench" / "frozen.json"
DEEP_CLI_SESSION = [
    ["decode", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)", "--depth", "8"],
    ["decode", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)", "--depth", "10"],
    ["analyze", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)", "--depth", "12"],
    ["vershik", "--fixture", "fibonacci", "--x", "root=b; (bd db)", "--steps", "40"],
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_commands() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("  #")[0].strip() for line in block.strip().splitlines()]


def test_readme_commands_byte_identical(capsys, tmp_path):
    commands = readme_commands()
    assert sorted(commands) == sorted(README_SHA256)
    for command in commands:
        argv = shlex.split(command)[1:]
        out_file = None
        if "--out" in argv:
            i = argv.index("--out") + 1
            out_file = argv[i] = str(tmp_path / argv[i])
        code, out, _ = run(capsys, *argv)
        digest = sha256(out.encode()).hexdigest()
        if out_file:
            digest += " " + sha256(Path(out_file).read_bytes()).hexdigest()
        assert (code, digest) == (0, README_SHA256[command]), command


def test_deep_cli_session_commands_match_frozen_bench_digests(capsys):
    digests = {tuple(c["argv"]): c["stdout_sha256"] for c in json.loads(FROZEN_BENCH.read_text(encoding="utf-8"))["cli"]}
    for argv in DEEP_CLI_SESSION:
        code, out, _ = run(capsys, *argv)
        assert (code, sha256(out.encode()).hexdigest()) == (0, digests[tuple(argv)]), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decode", "--x", "root=a; (ab bd da)", "--depth", "-3"], "--depth must be at least 1, got -3"),
        (["decode", "--x", "root=a; (ab bd da)", "--depth", "0"], "--depth must be at least 1, got 0"),
        (["analyze", "--x", "root=a; (ab bd da)", "--depth", "0"], "--depth must be at least 1, got 0"),
        (["diagram", "--format", "dot", "--depth", "0"], "--depth must be at least 1, got 0"),
        (["vershik", "--x", "root=b; (bd db)", "--steps", "-1"], "--steps must be at least 0, got -1"),
        (["decode", "--x", "root=a; ac ca ab", "--depth", "3"], "--depth 3 differs from the length 4 of the finite prefix"),
        (["analyze", "--x", "root=a; ac ca ab", "--depth", "9"], "--depth 9 differs from the length 4 of the finite prefix"),
    ],
)
def test_bad_depth_or_steps_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--fixture", "fibonacci")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_finite_prefix_accepts_its_own_length_as_depth(capsys):
    for command in ("decode", "analyze"):
        argv = [command, "--fixture", "fibonacci", "--x", "root=a; ac ca ab"]
        with_depth = run(capsys, *argv, "--depth", "4")
        assert with_depth == run(capsys, *argv) and with_depth[0] == 0 and "path: root=a; ac ca ab\n" in with_depth[1]


def test_smallest_depth_and_steps(capsys):
    code, out, _ = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)", "--depth", "1")
    assert code == 0 and "word: a\u0307\n" in out
    code, out, _ = run(capsys, "vershik", "--fixture", "fibonacci", "--x", "root=b; (bd db)", "--steps", "0")
    assert code == 0 and out == "start: root=b; (bd db)\n"


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


def test_non_utf8_spec_exits_2(capsys, tmp_path):
    spec = tmp_path / "latin1.sub"
    spec.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "collar", "--spec", str(spec))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {spec} is not UTF-8") and "Traceback" not in err


def test_spec_with_byte_order_mark_reads_as_without(capsys, tmp_path):
    plain, marked = tmp_path / "plain.sub", tmp_path / "marked.sub"
    plain.write_bytes(FIBONACCI_SPEC.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + FIBONACCI_SPEC.encode("utf-8"))  # the UTF-8 byte-order mark
    outputs = [run(capsys, "collar", "--spec", str(spec)) for spec in (plain, marked)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][2] == ""


def test_diagram_json_counts(capsys):
    code, out, _ = run(capsys, "diagram", "--fixture", "fibonacci", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["verticals"]) == 7
    assert sum(1 for h in payload["horizontals"] if not h["trivial"]) == 10
    assert sum(1 for d in payload["diagrams"] if d["kind"] == "cyclic") == 2


@pytest.mark.parametrize(
    "fixture, vertices, counts",
    [("fibonacci", "a b c d", (7, 10, 23, 2)), ("thue-morse", "a b c d e f", (12, 20, 44, 4))],
)
def test_diagram_default_text(capsys, fixture, vertices, counts):
    code, out, _ = run(capsys, "diagram", "--fixture", fixture)
    assert code == 0
    assert out == (
        f"vertices: {vertices}\n"
        "vertical templates: {}\n"
        "nontrivial horizontal templates: {}\n"
        "commutative squares: {}\n"
        "recurrent commutative diagrams: {}\n".format(*counts)
    )


def test_diagram_dot_depth(capsys):
    code, out, _ = run(capsys, "diagram", "--fixture", "fibonacci", "--depth", "3", "--format", "dot")
    assert code == 0
    assert out.count("rank=same") == 3
    assert out.startswith("digraph")


def test_dot_line_count(all_diagrams):
    for diagram in all_diagrams.values():
        for depth in (1, 2, 5):
            assert dot_line_count(diagram, depth) == export_dot(diagram, depth).count("\n")


def test_diagram_dot_too_deep_exits_2(capsys):
    code, out, err = run(capsys, "diagram", "--fixture", "fibonacci", "--depth", str(10**9), "--format", "dot")
    assert code == 2 and out == ""
    assert err == (
        f"error: dot export at depth 1000000000 would have 18000000001 lines, above the limit of {MAX_DOT_LINES}\n"
    )


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


@pytest.mark.parametrize("depth", ["30000", "1000000000"])
def test_decode_huge_depth_exits_2_at_once(capsys, depth):
    # the count stops at its ceiling, and no prefix is built
    code, out, err = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)", "--depth", depth)
    assert (code, out) == (2, "")
    assert err == f"error: decode at depth {depth} would produce more than 1000000000000 tiles, above the limit of 1000000\n"


def test_analyze_unprintable_depth_exits_2_at_once(capsys, tmp_path):
    spec = tmp_path / "wide.sub"  # lambda = (9 + sqrt(85))/2, about 9.1
    spec.write_text("letters: 0 1\nrule 0: 0 0 0 0 0 0 0 0 0 1\nrule 1: 0\n")
    argv = ["analyze", "--spec", str(spec), "--x", "root=a; (aa#1 aa#2)", "--depth"]
    code, out, err = run(capsys, *argv, "4700")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: analyze at depth 4700 would print numbers of up to \d+ digits, above the limit of \d+\n", err)
    code, out, _ = run(capsys, *argv, "3")
    assert code == 0 and "verdict:" in out


def test_analyze_total_output_bound(capsys, tmp_path, monkeypatch):
    argv = ["analyze", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)", "--depth", "12"]
    code, out, _ = run(capsys, *argv)
    assert (code, sha256(out.encode()).hexdigest()) == (0, "1c0c2a1d7dc99f6bc8959a828f2134cf8cb11aef49a44a369fca0ae898a49191")
    spec = tmp_path / "wide.sub"  # lambda about 9.1: each number fits, the whole output would not
    spec.write_text("letters: 0 1\nrule 0: 0 0 0 0 0 0 0 0 0 1\nrule 1: 0\n")
    monkeypatch.setattr(cli, "gap_profile", None)  # refused before any gap is computed
    code, out, err = run(capsys, "analyze", "--spec", str(spec), "--x", "root=a; (aa#1 aa#2)", "--depth", "2000")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: analyze at depth 2000 would print up to \d+ digits in all, above the limit of 1000000\n", err)


def test_python_m_bratteli(capsys):
    argv = ["decode", "--fixture", "fibonacci", "--x", "root=a; ac ca ab"]
    _, expected, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", *argv], env=env, capture_output=True, encoding="utf-8", timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_decode_huge_edge_position_exits_2(capsys):
    code, out, err = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a; ac#" + "1" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1  # one message, no traceback


def test_decode_empty_cycle_exits_2(capsys):
    code, out, err = run(capsys, "decode", "--fixture", "fibonacci", "--x", "root=a; ab ()")
    assert code == 2 and out == ""
    assert err == "error: path literal has an empty cycle '()'\n"


def run_alone(argv) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", *argv], env=env, capture_output=True, encoding="utf-8", timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["vershik", "--x", "root=a; ac ca"], "vershik needs an eventually periodic path (add a cycle)"),
        (["rb", "--x", "root=a; ac ca", "--y", "root=b; (bd db)"], "rb needs eventually periodic paths (add cycles)"),
        (["rb", "--x", "root=b; (bd db)", "--y", "root=a; ac"], "rb needs eventually periodic paths (add cycles)"),
        (["decode", "--x", "root=a; (ac ca) ab"], "unexpected text after the cycle"),
    ],
)
def test_bad_path_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--fixture", "fibonacci")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_one_parser_for_a_sequence_of_calls(capsys):
    # main() reuses one parser per process; a call must not see an earlier one
    x = ["decode", "--fixture", "fibonacci", "--x", "root=a; (ab bd da)"]
    calls = [x + ["--depth", "8"], x, x[:-1] + ["root=a; ()"], x + ["--depth", "eight"]]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the call
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == run_alone(argv), argv
        codes.append(code)
    assert codes == [0, 0, 2, 2]


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
