import contextlib
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbar import cli, pe_simulator, query_circuits
from xbar.array_builder import build
from xbar.cli import main
from xbar.pe_simulator import SortTrace

from oracles import (
    brute_cycles, build_csv_reference, build_json_reference, build_text_reference,
    perm_text_reference, validate_reference,
)
from test_golden_bytes import TRACE_DIGESTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_import_skips_dataclasses_and_fractions():
    # Every command pays for what `import xbar.cli` loads; -S keeps site-packages
    # (and whatever they import) out, so only xbar's own imports count.
    probe = ("import sys, xbar.cli; "
             "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'json', 'argparse'}"
             " & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _modules_after(argv):
    """The xbar modules, and json and argparse if loaded, after `main(argv)`, sorted.

    A fresh -S process, as above, since this session has imported every module already.
    """
    probe = ("import sys; from xbar.cli import main\n"
             "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
             "print(*sorted(m for m in sys.modules"
             " if m.startswith('xbar.') or m in ('json', 'argparse')),"
             " file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout, done.stderr
    return done.stderr.split()


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], ["argparse"]),
    (["build", "--n", "5"], ["array_builder", "cyclic_perm"]),
    (["validate", "--n", "5"], ["array_builder", "cyclic_perm"]),
    (["perm", "--n", "6"], ["cyclic_perm"]),
    (["sort", "--n", "5"], ["array_builder", "cyclic_perm", "pe_simulator"]),
    (["rank", "--n", "5", "--r", "1"],
     ["array_builder", "cyclic_perm", "netlist", "pe_simulator", "query_circuits"]),
    (["search", "--n", "5", "--key", "3"], ["netlist", "query_circuits"]),
    (["depth", "--circuit", "adder-tree", "--n", "8", "--fanin", "2"],
     ["netlist", "query_circuits"]),
    (["build", "--n=5"], ["argparse", "array_builder", "cyclic_perm"]),
])
def test_commands_load_only_their_layers(argv, loaded):
    # Each handler imports its own layers, so e.g. build starts no simulator or
    # netlist code and depth no layout or simulator code.  A well-formed command
    # line is read without argparse; help and any other form (--n=5) load it.
    got = [m for m in _modules_after(argv) if m != "json"]
    assert got == sorted(["xbar.cli", *(m if m == "argparse" else "xbar." + m for m in loaded)])


@pytest.mark.parametrize("argv, wants_json", [
    (["--help"], False),
    (["build", "--n", "5"], False),
    (["build", "--n", "5", "--format", "json"], False),
    (["build", "--n", "5", "--format", "csv"], False),
    (["validate", "--n", "5"], False),
    (["perm", "--n", "6"], False),
    (["depth", "--circuit", "min", "--n", "8"], False),
    (["validate", "--layout", "{layout}"], True),
    (["sort", "--n", "5"], False),
    (["rank", "--n", "5", "--r", "1", "--format", "json"], False),
    (["sort", "--n", "5", "--format", "json"], False),
    (["sort", "--n", "5", "--format", "csv"], False),
    (["sort", "--n", "5", "--trace", "{trace}"], False),
    (["min", "--n", "5", "--format", "json"], False),
    (["max", "--n", "5", "--format", "json"], False),
    (["search", "--n", "5", "--key", "3", "--format", "json"], False),
])
def test_only_json_handlers_load_json(argv, wants_json, tmp_path):
    # build, sort and the index queries write their JSON through % templates, and
    # the trace writer quotes its names itself, so only _emit_json and
    # validate --layout import json.
    layout = tmp_path / "layout.json"
    layout.write_text('{"n": 2, "slots": [0, 1]}')
    paths = {"{layout}": str(layout), "{trace}": str(tmp_path / "t.jsonl")}
    argv = [paths.get(a, a) for a in argv]
    assert ("json" in _modules_after(argv)) == wants_json


def test_build_text(capsys):
    code, out = run(capsys, "build", "--n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0-1-2-3-4-5-0-2-4-0-3-6-1-3-5-1-4-6-2-5-6-0"
    assert lines[1] == "22 PEs, 21 crosspoints"


def test_build_json_schema(capsys):
    code, out = run(capsys, "build", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "slots", "provenance"}
    assert doc["n"] == 5 and len(doc["slots"]) == 11


def test_build_csv(capsys):
    code, out = run(capsys, "build", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "slot,class,provenance"
    assert len(out.strip().splitlines()) == 5


def test_sort_json_golden(capsys):
    code, out = run(capsys, "sort", "--n", "5", "--input", "8,6,9,5,7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ranks"] == [3, 1, 4, 0, 2]
    assert doc["order"] == [3, 1, 4, 0, 2]
    assert doc["phase_count"] == 7
    assert doc["conflicts"] == []


def test_sort_json_matrix_and_order(capsys):
    # Ranks 1 2 3 0 are not their own inverse, so order must invert them.
    code, out = run(capsys, "sort", "--n", "4", "--input", "6,7,8,5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == [[0, 0, 0, 1], [1, 0, 0, 1], [1, 1, 0, 1], [0, 0, 0, 0]]
    assert (doc["ranks"], doc["order"]) == ([1, 2, 3, 0], [3, 0, 1, 2])


def test_sort_text_even_case(capsys):
    code, out = run(capsys, "sort", "--n", "4", "--input", "6,7,8,5")
    assert code == 0
    assert out == ("0001\n1001\n1101\n0000\n"
                   "R: 1 2 3 0\n"
                   "sorted: 5 6 7 8\n"
                   "phases: 7\n"
                   "conflict: T[2][1] slots 2,5\n")


def test_sort_text_conflict_slots_in_trace_order(capsys):
    code, out = run(capsys, "sort", "--n", "10", "--seed", "3")
    assert code == 0
    assert "conflict: T[5][1] slots 38,31" in out


def test_sort_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code, _ = run(capsys, "sort", "--n", "4", "--input", "6,7,8,5", "--trace", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert docs[0]["phase"] == "clear"
    assert docs[-1]["phase"] == "rank"


def test_sort_trace_file_bytes_match_golden(tmp_path, capsys):
    # The n=9 pin of test_golden_bytes, reached the way `sort --trace` writes it.
    values, _, jsonl_digest, _ = TRACE_DIGESTS[-1]
    path = tmp_path / "trace.jsonl"
    code, _ = run(capsys, "sort", "--n", "9", "--input", ",".join(map(str, values)),
                  "--trace", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == jsonl_digest


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("where", ["missing dir", "a directory"])
def test_sort_unopenable_trace_exits_two(tmp_path, capsys, fmt, where):
    path = tmp_path / "missing" / "t.jsonl" if where == "missing dir" else tmp_path
    code = main(["sort", "--n", "4", "--trace", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write trace to {path}: [Errno ")
    assert captured.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_sort_failed_trace_write_exits_two(capsys, fmt):
    # /dev/full opens, but every write to it fails.  The trace is written before
    # stdout, so in every format stdout stays empty.
    code = main(["sort", "--n", "4", "--trace", "/dev/full", "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: cannot write trace to /dev/full: [Errno 28] No space left on device\n")
    assert captured.out == ""


def test_sort_csv_walks_the_trace_once_per_sink_without_a_conflict_scan(tmp_path, capsys,
                                                                        monkeypatch):
    # csv prints no conflicts; the trace file and stdout each take one walk.
    calls = []
    blocks = SortTrace._blocks
    monkeypatch.setattr(SortTrace, "_blocks",
                        lambda trace, *args: calls.append("walk") or blocks(trace, *args))
    monkeypatch.setattr(pe_simulator, "detect_write_conflicts", calls.append)
    path = tmp_path / "t.jsonl"
    code, out = run(capsys, "sort", "--n", "6", "--format", "csv", "--trace", str(path))
    assert code == 0
    assert calls == ["walk", "walk"]
    assert out.count("\r\n") == path.read_text().count("\n") + 1  # the header


@pytest.mark.parametrize("n", [9, 66, 256])
@pytest.mark.parametrize("keys", ["tied", "wide"])
def test_sort_csv_with_trace_matches_each_single_sink_run(tmp_path, capsys, n, keys):
    # --trace F --format csv writes the file, then the CSV: its stdout is that of
    # --format csv alone, and its file that of --trace F --format json.
    values = [i % 3 for i in range(n)] if keys == "tied" else [
        (-1) ** i * 10 ** 21 + i % 7 for i in range(n)]
    args = ["sort", "--n", str(n), "--input=" + ",".join(map(str, values))]
    both, json_trace = tmp_path / "both.jsonl", tmp_path / "json.jsonl"
    code, out = run(capsys, *args, "--format", "csv", "--trace", str(both))
    assert (code, out) == run(capsys, *args, "--format", "csv")
    assert run(capsys, *args, "--format", "json", "--trace", str(json_trace))[0] == 0
    assert both.read_bytes() == json_trace.read_bytes()


def test_write_trace_writes_the_sink_bytes_in_binary(tmp_path):
    # The sink takes bytes, which only a file opened in binary accepts, and on
    # every platform the file holds exactly those bytes.
    _, _, trace = pe_simulator.sort(build(65), [(-1) ** i * 10 ** 21 + i % 7 for i in range(65)])
    path = tmp_path / "t.jsonl"
    cli._write_trace(trace, str(path))
    pieces = []
    trace.write(jsonl=pieces.append)
    with open(path, "rb") as fh:
        assert fh.read() == b"".join(pieces)


def test_sort_csv_in_process_matches_a_subprocess_run(tmp_path):
    # How the bench runs a command in process: stdout is a StringIO, so the CSV
    # reaches it as str while the trace file takes bytes.
    argv = ["sort", "--n", "65", "--format", "csv", "--trace"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, str(tmp_path / "in.jsonl")])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "xbar.cli", *argv, str(tmp_path / "sub.jsonl")],
                          capture_output=True, env=env, timeout=60)
    assert (code, done.returncode, done.stderr) == (0, 0, b"")
    assert out.getvalue().encode() == done.stdout
    assert (tmp_path / "in.jsonl").read_bytes() == (tmp_path / "sub.jsonl").read_bytes()


def test_sort_csv_is_trace(capsys):
    code, out = run(capsys, "sort", "--n", "3", "--input", "2,1,3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "phase,slot,action,value,row,col"


def test_sort_input_file(tmp_path, capsys):
    path = tmp_path / "vals.txt"
    path.write_text("8\n6\n9\n5\n7\n")
    code, out = run(capsys, "sort", "--n", "5", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["ranks"] == [3, 1, 4, 0, 2]


def test_sort_inline_input_starting_negative_needs_equals(capsys):
    # argparse takes "-5,3" after a space for an option; "--input=-5,3" binds it.
    code, out = run(capsys, "sort", "--n", "2", "--input=-5,3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == [-5, 3] and doc["ranks"] == [0, 1]


def _close_after_10_bytes(argv, unbuffered):
    """Run `xbar *argv`, read 10 bytes, close the pipe; (exit code, stderr)."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONUNBUFFERED", "XBAR_SEED")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "xbar.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    return proc.wait(timeout=60), err


# Every case prints far more than a pipe holds at n=512 (the sort's text grid
# alone is 262,656 bytes), so the child is still writing when the pipe closes.
def _sort_512(fmt):
    return ["sort", "--n", "512", "--seed", "0", "--format", fmt]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_sort_reader_closing_stdout_early_exits_141_quietly(fmt):
    assert _close_after_10_bytes(_sort_512(fmt), unbuffered=False) == (141, b"")


# Unbuffered stdout hands a whole document to one os.write; the CLI buffers it
# again so that a pipe closed mid-write raises instead of cutting it short.
@pytest.mark.parametrize("argv", [_sort_512("json"), ["build", "--n", "512", "--format", "csv"]],
                         ids=["sort-json", "build-csv"])
def test_sort_reader_closing_unbuffered_stdout_early_exits_141(argv):
    assert _close_after_10_bytes(argv, unbuffered=True) == (141, b"")


def test_main_hands_back_an_unbuffered_stdout_open_on_every_exit(tmp_path, capsys, monkeypatch):
    # Over a raw file (python -u), main writes through a buffered wrapper of its own.
    # After main, on each exit path, the caller's stream is back in place, and once
    # the wrapper is collected the raw file is still open and holds the command's bytes.
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "slots": [0, 1, 2, 3]}')
    cases = [["build", "--n", "4"], ["validate", "--layout", str(bad)], ["perm", "--n", "1", "--j", "1"]]
    expected = [run(capsys, *argv) for argv in cases]
    assert [code for code, _ in expected] == [0, 1, 2]
    for i, (argv, (code, text)) in enumerate(zip(cases, expected)):
        path = tmp_path / f"out{i}.txt"
        out = io.TextIOWrapper(io.FileIO(path, "w"), "utf-8")
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == code
        assert sys.stdout is out
        gc.collect()
        out.write("end\n")
        out.close()
        assert path.read_text() == text + "end\n"
    out = io.TextIOWrapper(io.FileIO(tmp_path / "usage.txt", "w"), "utf-8")
    monkeypatch.setattr(sys, "stdout", out)
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--circuit", "nope", "--n", "8"])
    assert (exc.value.code, sys.stdout) == (2, out)
    out.close()


def test_main_hands_back_an_unbuffered_stdout_after_a_closed_pipe(monkeypatch):
    # Exit 141 points the file descriptor at devnull; the caller's stream stays usable.
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    out = io.TextIOWrapper(io.FileIO(write_fd, "w"), "utf-8")
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["build", "--n", "4"]) == 141
    assert sys.stdout is out
    gc.collect()
    out.write("end\n")
    out.close()


def test_sort_bad_input_file(tmp_path, capsys):
    path = tmp_path / "vals.txt"
    path.write_text("8\nnope\n")
    code, _ = run(capsys, "sort", "--n", "2", "--input", str(path))
    err = capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", [["sort"], ["search", "--key", "1"]])
def test_unreadable_input_file_exits_two(tmp_path, capsys, command):
    # A directory exists, so it is taken for a file, but opening it fails.
    code = main([*command, "--n", "3", "--input", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read --input {tmp_path}: [Errno ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_sort_length_mismatch(capsys):
    code, _ = run(capsys, "sort", "--n", "4", "--input", "1,2,3")
    assert code == 2


def test_min_max_rank_search(capsys):
    code, out = run(capsys, "min", "--n", "4", "--input", "6,7,8,5")
    assert (code, out.strip()) == (0, "index 3")
    code, out = run(capsys, "max", "--n", "5", "--input", "8,6,9,5,7")
    assert (code, out.strip()) == (0, "index 2")
    code, out = run(capsys, "rank", "--n", "5", "--input", "8,6,9,5,7", "--r", "2")
    assert (code, out.strip()) == (0, "index 4")
    code, out = run(capsys, "search", "--n", "5", "--input", "8,6,9,5,7", "--key", "9")
    assert (code, out.strip()) == (0, "index 2")
    code, out = run(capsys, "search", "--n", "5", "--input", "8,6,9,5,7", "--key", "4",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {"index": None, "exact": True}


@pytest.mark.parametrize("n", [*range(2, 67, 2), 255, 256])
def test_sort_json_bytes_match_json_dumps(capsys, n):
    # Even n doubles n/2 - 1 pairs, so `conflicts` goes through its template that often.
    code, out = run(capsys, "sort", "--n", str(n), "--seed", str(n), "--format", "json")
    doc = json.loads(out)
    assert code == 0 and out == json.dumps(doc) + "\n"
    assert len(doc["conflicts"]) == (n // 2 - 1 if n % 2 == 0 else 0)


@pytest.mark.parametrize("argv", [
    ["min", "--n", "4", "--input", "6,7,8,5"],
    ["min", "--n", "3", "--input", "1,2,3"],
    ["max", "--n", "5", "--input", "8,6,9,5,7"],
    ["max", "--n", "256", "--seed", "3"],
    ["rank", "--n", "5", "--input", "8,6,9,5,7", "--r", "2"],
    ["rank", "--n", "128", "--seed", "5", "--r", "77"],
    ["search", "--n", "5", "--input", "8,6,9,5,7", "--key", "9"],
    ["search", "--n", "5", "--input", "8,6,9,5,7", "--key", "4"],
    ["search", "--n", "256", "--seed", "1", "--key", "-1"],
])
def test_index_json_bytes_match_json_dumps(capsys, argv):
    # The index document is a % template: json.dumps bytes, the text's index, null when absent.
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == json.dumps(json.loads(out)) + "\n"
    text = run(capsys, *argv)[1]
    index = None if text == "index none\n" else int(text.removeprefix("index "))
    assert json.loads(out) == {"index": index, "exact": True}


def _readme_cli_block():
    """The lines of README's `## CLI` ```sh block, each as (argv after `xbar`, `# -> ` result)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = []
    for line in block.splitlines():
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "xbar", line
        result = re.search(r"# -> (.*?)(?: \(|$)", line)
        lines.append((argv, result and result.group(1)))
    return lines


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # Every line exits 0 from a fresh directory; `validate --layout layout.json`
    # reads the document the `build --n 12 --format json` line wrote there.
    monkeypatch.chdir(tmp_path)
    checked = {}
    for argv, result in _readme_cli_block():
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if argv == ["build", "--n", "12", "--format", "json"]:
            (tmp_path / "layout.json").write_text(out)
        if result:
            assert out.strip() == result, argv
            checked[argv[0]] = result
    assert checked == {"min": "index 3", "max": "index 2", "rank": "index 4"}
    assert (tmp_path / "t.jsonl").stat().st_size > 0


def test_validate_clean_and_violations(tmp_path, capsys):
    code, out = run(capsys, "validate", "--n", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "slots": [0, 0], "provenance": ["", ""]}))
    code, out = run(capsys, "validate", "--layout", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"]


@pytest.mark.parametrize("doc, expected", [
    ({"n": 10**6, "slots": [0, 1]},
     f"violation: {10**6 * (10**6 - 1) // 2 - 1} class pairs never adjacent"),
    ({"n": 10**12, "slots": [0, 1]},
     f"violation: {10**12 * (10**12 - 1) // 2 - 1} class pairs never adjacent"),
    ({"n": 10**12, "slots": []}, "violation: layout has no slots"),
], ids=["n-1e6", "n-1e12", "no-slots"])
def test_validate_bounded_by_slot_count_not_declared_n(tmp_path, capsys, doc, expected):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "validate", "--layout", str(path))
    assert time.perf_counter() - start < 5
    assert code == 1
    violations = [line for line in out.splitlines() if line.startswith("violation: ")]
    assert 0 < len(violations) <= 20
    assert expected in out


def test_validate_json_rejects_n_above_slot_count(tmp_path, capsys):
    # --format json lists one count per declared class, so n must be bounded.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**9, "slots": [0, 1]}))
    start = time.perf_counter()
    code = main(["validate", "--layout", str(path), "--format", "json"])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{10**9}" in captured.err and "2 slots" in captured.err


def test_validate_json_keeps_report_when_n_fits_slot_count(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 5, "slots": [0, 1, 2, 0, 1]}))
    code, out = run(capsys, "validate", "--layout", str(path), "--format", "json")
    assert code == 1
    assert out == (
        '{"n": 5, "pe_count": 5, "expected_pe_count": 11, "pair_coverage": '
        '{"0-1": 2, "0-2": 1, "1-2": 1}, "redundant_pairs": [[0, 1]], '
        '"replicate_counts": [2, 2, 1, 0, 0], "end_classes": [0, 1], "violations": '
        '["pe count 5 != minimal 11", "7 class pairs never adjacent, e.g. [(0, 3), (0, 4), '
        '(1, 3), (1, 4), (2, 3)]", "odd n: pairs adjacent more than once: [(0, 1)]", '
        '"class 0 has 2 slots, below its lower bound 3", "class 1 has 2 slots, below its '
        'lower bound 3", "class 2 has 1 slots, below its lower bound 2", "class 3 has 0 '
        'slots, below its lower bound 2", "class 4 has 0 slots, below its lower bound 2"]}\n'
    )


@pytest.mark.parametrize("n", [2, 7, 12, 65])
def test_validate_csv_lists_each_pairs_crosspoints(capsys, n):
    coverage = validate_reference(build(n)).pair_coverage
    rows = "".join(f"{lo}-{hi},{count}\n" for (lo, hi), count in sorted(coverage.items()))
    assert run(capsys, "validate", "--n", str(n), "--format", "csv") == (0, "pair,count\n" + rows)


def test_validate_roundtrip_through_build(tmp_path, capsys):
    code, out = run(capsys, "build", "--n", "9", "--format", "json")
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(out)
    code, out = run(capsys, "validate", "--layout", str(layout_file))
    assert code == 0
    assert "ok" in out


def test_depth_json(capsys):
    # The whole line: a null max_threshold_fanin for min, a width for threshold-rank.
    assert run(capsys, "depth", "--circuit", "min", "--n", "16", "--fanin", "2",
               "--format", "json") == (0, '{"fanin_limit": 2, "depth": 7, "gate_count": 252, '
                                          '"max_threshold_fanin": null}\n')
    assert run(capsys, "depth", "--circuit", "threshold-rank", "--n", "8", "--fanin", "2",
               "--format", "json") == (0, '{"fanin_limit": 2, "depth": 5, "gate_count": 312, '
                                          '"max_threshold_fanin": 8}\n')


def test_depth_unbounded_text(capsys):
    code, out = run(capsys, "depth", "--circuit", "threshold-rank", "--n", "8")
    assert code == 0
    assert out.startswith("depth 4 ")


@pytest.mark.parametrize("circuit", ["min", "max", "threshold-rank"])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_depth_needs_two_classes(capsys, circuit, n):
    code = main(["depth", "--circuit", circuit, "--n", str(n)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: need n >= 2, got {n}\n"


@pytest.mark.parametrize("circuit, n, message", [
    ("adder-tree", 0, "need n >= 1, got 0"),
    ("encoder", 1, "encoder needs n >= 2, got 1"),
    ("priority-encoder", 1, "encoder needs n >= 2, got 1"),
    ("ones-counter", 1, "need n >= 2, got 1"),
])
def test_depth_refuses_n_below_each_builders_floor(capsys, circuit, n, message):
    code = main(["depth", "--circuit", circuit, "--n", str(n)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_depth_adder_tree_over_one_bit_has_no_gates(capsys):
    # One bit is its own count: the tree the 2 x 2 matrix's rows rank with.
    assert run(capsys, "depth", "--circuit", "adder-tree", "--n", "1") == (
        0, "depth 0 (fanin unbounded, 0 gates)\n")


def test_circuit_table_holds_the_builders_themselves(capsys, monkeypatch):
    # perfbench reads the table, then wraps both `query_circuits` and each table value
    # under the builder's name; a value that looked its builder up per call would reach
    # the wrapped one, and each `depth` build would be spanned twice.
    for name, attr in cli._CIRCUIT_BUILDERS.items():
        assert cli._CIRCUITS[name] is getattr(query_circuits, attr), name
    expected = run(capsys, "depth", "--circuit", "adder-tree", "--n", "8")
    monkeypatch.setattr(query_circuits, "build_popcount_tree", None)
    assert run(capsys, "depth", "--circuit", "adder-tree", "--n", "8") == expected


def test_depth_runs_the_builder_the_table_holds_now(capsys, monkeypatch):
    calls = []
    adder_tree = cli._CIRCUITS["adder-tree"]
    monkeypatch.setitem(cli._CIRCUITS, "min", lambda n: calls.append(n) or adder_tree(n))
    assert run(capsys, "depth", "--circuit", "min", "--n", "8") == run(
        capsys, "depth", "--circuit", "adder-tree", "--n", "8")
    assert calls == [8]


def test_perm_commands(capsys):
    code, out = run(capsys, "perm", "--n", "12", "--j", "5")
    assert (code, out.strip()) == (0, "(0,5,10,3,8,1,6,11,4,9,2,7)")
    code, out = run(capsys, "perm", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"][2] == [[2, 5]]
    code, _ = run(capsys, "perm", "--n", "7")
    assert code == 2  # partition needs even n


LISTING_NS = [2, 3, 4, 5, 8, 13, 64, 65, 255, 256, 511, 512]


@pytest.mark.parametrize("n", LISTING_NS)
def test_build_json_bytes_match_json_dumps(capsys, n):
    # The golden digests stop at n=16; the joined slots and tags must match json.dumps at
    # every size.
    assert run(capsys, "build", "--n", str(n), "--format", "json") == (0, build_json_reference(n))


@pytest.mark.parametrize("n", LISTING_NS)
def test_build_csv_bytes_match_csv_writer(capsys, n):
    assert run(capsys, "build", "--n", str(n), "--format", "csv") == (0, build_csv_reference(n))


@pytest.mark.parametrize("n", LISTING_NS)
def test_build_text_bytes_match_dash_join(capsys, n):
    assert run(capsys, "build", "--n", str(n)) == (0, build_text_reference(n))


@pytest.mark.parametrize("n", [n for n in LISTING_NS if n % 2 == 0 and n >= 4])
def test_perm_text_bytes_match_per_cycle_rendering(capsys, n):
    assert run(capsys, "perm", "--n", str(n)) == (0, perm_text_reference(n))


@pytest.mark.parametrize("n, j", [
    (n, j) for n in LISTING_NS for j in sorted({1, 2, n // 2, n - 1, n})])
def test_perm_j_text_matches_brute_force_cycles(capsys, n, j):
    # perm --j prints each cycle's ids from the CLI's string table; j = n is n 1-cycles.
    cycles = "".join("(" + ",".join(map(str, c)) + ")" for c in brute_cycles(n, j))
    assert run(capsys, "perm", "--n", str(n), "--j", str(j)) == (0, cycles + "\n")


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_perm_rejects_fewer_than_two_classes_before_parity(capsys, n):
    # The parity error's hint, pass --j, would only fail next on n itself.
    code = main(["perm", "--n", str(n)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: need at least 2 classes, got n={n}\n"


def test_seeded_runs_are_byte_identical(capsys, monkeypatch):
    monkeypatch.delenv("XBAR_SEED", raising=False)
    _, first = run(capsys, "sort", "--n", "9", "--seed", "42", "--format", "json")
    _, second = run(capsys, "sort", "--n", "9", "--seed", "42", "--format", "json")
    assert first == second
    _, other = run(capsys, "sort", "--n", "9", "--seed", "43", "--format", "json")
    assert json.loads(other)["input"] != json.loads(first)["input"]


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("XBAR_SEED", "42")
    _, via_env = run(capsys, "sort", "--n", "9", "--format", "json")
    monkeypatch.delenv("XBAR_SEED")
    _, via_flag = run(capsys, "sort", "--n", "9", "--seed", "42", "--format", "json")
    assert via_env == via_flag


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--n", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--circuit", "min", "--n", "8", "--fanin", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["build"], ["validate"], ["sort"], ["min"], ["max"], ["rank", "--r", "0"],
    ["search", "--key", "0"], ["depth", "--circuit", "min"], ["perm"],
], ids=lambda argv: argv[0])
def test_n_above_the_bound_is_a_usage_error(capsys, monkeypatch, argv):
    # Refused by argparse before any layout, matrix or netlist is made; were it
    # dispatched, the stand-in handler fails the test instead of allocating.
    for name in [name for name in vars(cli) if name.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda args: pytest.fail("--n was not refused"))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "100000000"])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(f"error: argument --n: at most {cli.MAX_N} classes, "
                                 "got 100000000\n")


def test_n_at_the_bound_runs_and_a_non_int_n_is_argparses_error(capsys):
    code, out = run(capsys, "perm", "--n", str(cli.MAX_N))
    assert (code, len(out.splitlines())) == (0, cli.MAX_N // 2)
    with pytest.raises(SystemExit) as exc:
        main(["perm", "--n", str(cli.MAX_N + 1)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build", "--n", "many"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --n: invalid int value: 'many'\n")


@pytest.mark.parametrize("argv, message", [
    (["--n", "7", "--layout", "l.json"], "argument --layout: not allowed with argument --n"),
    ([], "one of the arguments --n --layout is required"),
], ids=["both", "neither"])
def test_validate_needs_exactly_one_source(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["validate", *argv])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(f"error: {message}\n")


# Values the exact reader takes: no leading "-", and each passes its option's type.
_INTS = st.integers(0, 10**30).map(str)
_TEXT = st.text().filter(lambda text: not text.startswith("-"))
_ARG_VALUES = {
    "--n": st.one_of(st.integers(0, cli.MAX_N).map(str),
                     st.sampled_from([" 7", "+7", "0_7", "٧"])),
    "--fanin": st.one_of(st.just("unbounded"), st.integers(2, 64).map(str)),
    **dict.fromkeys(("--seed", "--r", "--key", "--j"), _INTS),
    **dict.fromkeys(("--input", "--layout", "--trace"), _TEXT),
}


@st.composite
def _canonical_argv(draw):
    """`command (--flag value)*` in any order: every required flag, some optional ones."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    grouped = [flag for flag, kw in options if "group" in kw]
    flags = [flag for flag, kw in options
             if kw.get("required") or "group" not in kw and draw(st.booleans())]
    if grouped:
        flags.append(draw(st.sampled_from(grouped)))
    kws = dict(options)
    pairs = [(flag, draw(st.sampled_from(kws[flag]["choices"]) if "choices" in kws[flag]
                         else _ARG_VALUES[flag])) for flag in flags]
    return [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]


@settings(max_examples=300, deadline=None)
@given(_canonical_argv())
def test_exact_reader_matches_argparse_on_canonical_argv(argv):
    args = cli._parse_exact(argv)
    assert args is not None, argv
    assert vars(args) == vars(cli._build_parser().parse_args(argv))


_TOKENS = st.one_of(
    st.sampled_from(sorted({flag for _, _, options in cli._COMMANDS.values()
                            for flag, _ in options} | {"-h", "--help", "--", "--form", "--n=5"})),
    st.sampled_from(["5", "0", "-5", "-5,3", "json", "csv", "min", "unbounded", "1,2", "x"]),
    st.text(max_size=3))


@st.composite
def _edited_argv(draw):
    """A canonical argv with up to two tokens replaced, inserted or deleted."""
    argv = draw(_canonical_argv())
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        argv[i:i + (edit != "insert")] = [] if edit == "delete" else [draw(_TOKENS)]
    return argv


@settings(max_examples=500, deadline=None)
@given(_edited_argv())
def test_exact_reader_accepts_only_what_argparse_parses_alike(argv):
    args = cli._parse_exact(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            expected = None
    assert args is None or vars(args) == expected, argv


@pytest.mark.parametrize("argv", [
    ["build", "--n=5"], ["sort", "--n", "2", "--input=-5,3"],
    ["build", "--n", "5", "--form", "json"], ["build", "--n", "5", "--n", "6"],
    ["-h"], ["--help"], ["build", "-h"], ["build", "--help"], ["build", "--n", "5", "-h"],
    ["search", "--n", "5", "--key", "-5"], ["sort", "--n", "2", "--input", "-5,3"],
    ["build", "--n", "5", "--bogus", "1"], ["build", "--n", "5", "bogus"],
    ["build"], ["rank", "--n", "5"], ["depth", "--n", "8"], ["build", "--n"],
    ["build", "--n", str(cli.MAX_N + 1)], ["build", "--n", "many"],
    ["min", "--n", "5", "--format", "csv"], ["build", "--n", "5", "--format", "xml"],
    ["depth", "--circuit", "nope", "--n", "8"], ["depth", "--n", "8", "--circuit", "min",
                                                  "--fanin", "1"],
    ["validate", "--n", "7", "--layout", "l.json"], ["validate"], ["validate", "--format", "json"],
    [], ["bogus", "--n", "5"],
])
def test_exact_reader_declines_every_other_form(argv):
    # argparse parses these: its help, its usage errors, and the forms it alone reads.
    assert cli._parse_exact(argv) is None


def test_exact_reader_dispatches_the_handler_in_the_module_now(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_build", lambda args: 7)
    assert main(["build", "--n", "5"]) == 7


def test_rank_out_of_range(capsys):
    code, _ = run(capsys, "rank", "--n", "5", "--input", "8,6,9,5,7", "--r", "5")
    assert code == 2


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"n": 4, "slots": 5},
    {"n": 3, "slots": [0, 1, 2, 0], "provenance": ["a", "b"]},
    {"n": None, "slots": [0, 1]},
    {"n": 2, "slots": [[0], 1]},
    {"n": 2.9, "slots": [0, 1]},
    {"n": 2, "slots": [0, True]},
    {"n": 2, "slots": [0, 1], "provenance": None},
], ids=["top-level-list", "slots-not-a-list", "provenance-length", "n-null", "slot-is-a-list",
        "n-float", "slot-bool", "provenance-null"])
def test_validate_malformed_layout_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", "--layout", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read layout")


def test_validate_deeply_nested_layout_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["validate", "--layout", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read layout")
