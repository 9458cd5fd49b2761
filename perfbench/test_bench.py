"""Self-test of the benchmark: every workload passes at tiny n, and the
oracle checks fire when one output is corrupted.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{workload: [(command, exit code, stdout)]} from tiny subprocess runs."""
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    try:
        result = {}
        for name in workloads.NAMES:
            workdir = str(tmp_path_factory.mktemp(name))
            commands = workloads.make_commands(name, 7, workdir, tiny=True)
            workloads.write_inputs(commands)
            rows = []
            for i, cmd in enumerate(commands):
                out_path = os.path.join(workdir, f"{i}.out")
                code, stdout, _, _ = run.run_child(cmd.argv, out_path, run.child_env())
                if cmd.save_stdout:
                    shutil.copy(out_path, cmd.save_stdout)
                rows.append((cmd, code, stdout))
            result[name] = rows
        return result
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes(outputs, name):
    for cmd, code, stdout in outputs[name]:
        assert oracles.check(cmd, code, stdout) == [], cmd.line()


def _first(outputs, name, check):
    return next((c, s) for c, _, s in outputs[name] if c.check == check)


def _edit_json(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc).encode()


def _swap_ranks(doc):
    doc["ranks"][0], doc["ranks"][1] = doc["ranks"][1], doc["ranks"][0]


def _flip_cell(doc):
    doc["t"][0][1] ^= 1


def _bump_index(doc):
    doc["index"] = 0 if doc["index"] is None else doc["index"] + 1


JSON_CORRUPTIONS = [
    ("sort", "sort_json", _swap_ranks),
    ("sort", "sort_json", _flip_cell),
    ("sort", "sort_json", lambda d: d.update(phase_count=6)),
    ("sort", "sort_json", lambda d: d.update(order=d["order"][::-1])),
    ("query", "min", _bump_index),
    ("query", "max", _bump_index),
    ("query", "rank", _bump_index),
    ("query", "search", _bump_index),
    ("structure", "build", lambda d: d["slots"].__setitem__(1, d["slots"][0])),
]


@pytest.mark.parametrize("name,check,edit", JSON_CORRUPTIONS)
def test_corrupted_json_is_caught(outputs, name, check, edit):
    cmd, stdout = _first(outputs, name, check)
    assert oracles.check(cmd, 0, stdout) == []
    assert oracles.check(cmd, 0, _edit_json(stdout, edit)) != []


def test_conflict_count_is_checked(outputs):
    even = next(c for c, _, _ in outputs["sort"] if c.n % 2 == 0)
    stdout = next(s for c, _, s in outputs["sort"] if c is even)
    assert oracles.check(even, 0, _edit_json(stdout, lambda d: d["conflicts"].pop())) != []


def test_absent_key_is_checked(outputs):
    rows = [(c, s) for c, _, s in outputs["query"] if c.check == "search"]
    (present, present_out), (absent, absent_out) = rows
    assert json.loads(absent_out)["index"] is None
    assert oracles.check(absent, 0, present_out.replace(b"null", b"0")) != []


def test_dropped_trace_line_is_caught(outputs, tmp_path):
    cmd, stdout = _first(outputs, "trace", "sort_json")
    with open(cmd.trace) as fh:
        lines = fh.readlines()
    for victim in (0, next(i for i, l in enumerate(lines) if '"twrite"' in l)):
        short = tmp_path / f"drop{victim}.jsonl"
        short.write_text("".join(lines[:victim] + lines[victim + 1:]))
        assert oracles.check(dataclasses.replace(cmd, trace=str(short)), 0, stdout) != []


def test_wrong_twrite_cell_is_caught(outputs, tmp_path):
    cmd, stdout = _first(outputs, "trace", "sort_json")
    with open(cmd.trace) as fh:
        lines = fh.readlines()
    i = next(i for i, l in enumerate(lines) if '"twrite"' in l)
    ev = json.loads(lines[i])
    ev["row"], ev["col"] = ev["col"], ev["row"]
    lines[i] = json.dumps(ev) + "\n"
    bad = tmp_path / "swapped.jsonl"
    bad.write_text("".join(lines))
    assert oracles.check(dataclasses.replace(cmd, trace=str(bad)), 0, stdout) != []


def test_dropped_csv_row_is_caught(outputs):
    cmd, stdout = _first(outputs, "trace", "sort_csv")
    rows = stdout.splitlines(keepends=True)
    assert oracles.check(cmd, 0, b"".join(rows[:-1])) != []


@pytest.mark.parametrize("check", ["perm", "depth", "validate"])
def test_corrupted_text_is_caught(outputs, check):
    cmd, stdout = _first(outputs, "structure", check)
    assert oracles.check(cmd, 0, stdout[:-2] + b"9\n") != []


def test_unexpected_exit_code_is_caught(outputs):
    cmd, stdout = _first(outputs, "structure", "validate")
    assert oracles.check(cmd, 1, stdout) != []


def test_traced_counts_reproduce(outputs, tmp_path):
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    try:
        counts = []
        for attempt in range(2):
            commands = workloads.make_commands("sort", 3, str(tmp_path), tiny=True)
            workloads.write_inputs(commands)
            metrics, ledger, _ = run.traced_run(commands, 0, str(tmp_path / "spans.jsonl"))
            assert ledger.failed == 0, ledger.problems
            counts.append({k: metrics[k] for k in layers.COUNT_NAMES})
    finally:
        os.chdir(cwd)
    assert counts[0] == counts[1]
    assert counts[0]["pe_simulator.phases"] == 2 * oracles.PHASES * 2
    assert counts[0]["pe_simulator.conflicts"] == 2 * (4 // 2 - 1)


def test_timed_run_reports_wall_relative_to_reference(tmp_path):
    assert reference.checksum() == reference.CHECKSUM
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    try:
        commands = workloads.make_commands("query", 3, str(tmp_path), tiny=True)
        workloads.write_inputs(commands)
        metrics, ledger, notes = run.timed_run(commands, 0, str(tmp_path))
    finally:
        os.chdir(cwd)
    assert ledger.failed == 0, ledger.problems
    assert set(metrics) == {"wall_rel", "peak_rss_mb", "setup_s"}
    assert all(v > 0 for v in metrics.values())
    assert any(note.startswith("wall_s (raw") for note in notes)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
