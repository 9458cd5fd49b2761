"""Seeded end-to-end and per-layer benchmark of the xbar CLI.

    python3 perfbench/run.py --workload sort --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

Run from anywhere inside an xbar checkout; the benchmark works from the
checkout root and needs no install: the program runs as
``python -m xbar.cli`` with ``PYTHONPATH=src``.

``--trace 0`` measures end-to-end host metrics.  One closed-loop client
runs the workload's command list (see workloads.py) one command at a time
as child processes, pass after pass, until ``--seconds`` have elapsed:

* ``wall_rel``: median over passes of the summed command wall times
  divided by the time of reference.py, which runs as a child before
  and after each command; each command is paired with the mean of the
  two reference runs around it.  The host's speed drifts by tens of
  percent within minutes and both sides drift together, so the ratio
  is steady where the raw time is not; the raw ``wall_s`` and the
  reference's time are printed as notes;
* ``peak_rss_mb``: median over passes of the largest child max-RSS, read
  per child from ``os.wait4`` (``RUSAGE_CHILDREN`` would carry one
  workload's peak into the next);
* ``setup_s``: median wall time of ``python -m xbar.cli --help``, which
  every command pays (interpreter start, every xbar import, argparse).

``--trace 1`` replays the same commands in process, alternating untraced
passes with passes that record a span around each public call into the
``src/xbar`` modules (layers.py), and reports per-layer medians and
exact counts.

Every command's output is checked against oracles.py; a command that
exits with an unexpected code, times out, disagrees with the oracle, or
whose output or counts differ between passes at one seed counts as
failed.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import oracles
import reference
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench_work"
COMMAND_TIMEOUT_S = 60
SETUP_RUNS_FIRST, SETUP_RUNS_PER_PASS = 3, 2
XBAR_MODULES = ("cli", "cyclic_perm", "array_builder", "pe_simulator", "netlist",
                "query_circuits")


class Ledger:
    """Commands attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[int, tuple[str, list[str]]] = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def verify(self, index: int, cmd, code, stdout: bytes) -> None:
        """Check command `index` of the list; every pass at one seed must match.

        The oracle runs on the first output of each command.  A later pass
        whose exit code, stdout and trace file are byte-identical reuses
        that verdict; any other output is a failure.
        """
        digest = hashlib.sha256(stdout)
        if cmd.trace:
            with open(cmd.trace, "rb") as fh:
                digest.update(fh.read())
        key = f"{code}:{digest.hexdigest()}"
        first = self._verdicts.get(index)
        if first is None:
            problems = [f"timed out after {COMMAND_TIMEOUT_S} s"] if code is None else \
                oracles.check(cmd, code, stdout)
            self._verdicts[index] = (key, problems)
        elif first[0] == key:
            problems = first[1]
        else:
            problems = ["output differs from an earlier pass at the same seed"]
        self.record(cmd.line(), problems)


def child_env() -> dict:
    """The program's environment: this checkout's sources, a fixed hash seed."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    env.pop("XBAR_SEED", None)
    return env


def run_child(argv, out_path: str, env: dict, program=("-m", "xbar.cli")):
    """Run ``python <program> argv``, killing it after COMMAND_TIMEOUT_S.

    Returns (exit code or None on timeout, stdout, wall s, max RSS MB).
    """
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program, *argv],
                                stdout=out, stderr=subprocess.DEVNULL, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    code = None if wall >= COMMAND_TIMEOUT_S else proc.returncode
    return code, stdout, wall, usage.ru_maxrss / 1024


def timed_run(commands, seconds: float, workdir: str):
    """Subprocess passes until `seconds` elapse; returns (metrics, ledger, notes)."""
    env = child_env()
    ledger = Ledger()
    help_out = os.path.join(workdir, "help.txt")

    def setup_sample() -> float:
        code, stdout, wall, _ = run_child(["--help"], help_out, env)
        ok = code == 0 and stdout.startswith(oracles.HELP_PREFIX)
        ledger.record("--help", [] if ok else [f"--help exited {code}"])
        return wall

    ref_program = (os.path.join("perfbench", "reference.py"),)
    ref_out = os.path.join(workdir, "reference.txt")

    def reference_sample() -> float:
        code, stdout, wall, _ = run_child((), ref_out, env, ref_program)
        if code != 0 or stdout.strip() != str(reference.CHECKSUM).encode():
            raise RuntimeError(f"reference.py exited {code} with {stdout[:80]!r}")
        return wall

    setup_sample()  # warm-up: compiles bytecode on a fresh checkout
    reference_sample()
    setups = [setup_sample() for _ in range(SETUP_RUNS_FIRST)]
    walls, refs, peaks = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wall = peak = 0.0
        around = [reference_sample()]
        for i, cmd in enumerate(commands):
            out_path = os.path.join(workdir, f"{i:02d}-stdout")
            code, stdout, elapsed, rss = run_child(cmd.argv, out_path, env)
            wall += elapsed
            peak = max(peak, rss)
            ledger.verify(i, cmd, code, stdout)
            around.append(reference_sample())
            if code is None:
                break
            if cmd.save_stdout:
                os.replace(out_path, cmd.save_stdout)
        walls.append(wall)
        refs.append(sum(around) - (around[0] + around[-1]) / 2)
        peaks.append(peak)
        setups += [setup_sample() for _ in range(SETUP_RUNS_PER_PASS)]
        if code is None or not room_for_another(start, pass_start, seconds):
            break
    ratios = [w / r for w, r in zip(walls, refs)]
    metrics = {
        "wall_rel": statistics.median(ratios),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"wall_rel: median of {len(ratios)} passes of wall_s / reference_s; passes: "
        + " ".join(f"{q:.4f}" for q in ratios),
        f"wall_s (raw, host-dependent): median {statistics.median(walls):.4f} s; "
        f"{tail_note(walls)}; passes: " + " ".join(f"{w:.4f}" for w in walls),
        f"reference_s: median {statistics.median(refs):.4f} s per pass "
        f"({len(commands) + 1} runs of perfbench/reference.py, the outer two at half weight)",
        f"peak_rss_mb: median of {len(peaks)} per-pass maxima",
        f"setup_s: median of {len(setups)} runs of --help",
    ]
    return metrics, ledger, notes


def room_for_another(start: float, pass_start: float, seconds: float) -> bool:
    """Whether a pass as long as the last one would end within `seconds` of `start`."""
    now = time.perf_counter()
    return 2 * now - start - pass_start <= seconds


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return "no percentile has 10 samples beyond it"
    value = sorted(samples)[n - 11]
    return f"p{100 * (n - 10) / n:.1f} = {value:.4f} s"


def import_xbar() -> dict:
    sys.path.insert(0, os.path.abspath("src"))
    mods = {name: importlib.import_module(f"xbar.{name}") for name in XBAR_MODULES}
    where = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if where != os.path.abspath(os.path.join("src", "xbar")):
        raise ImportError(f"imported xbar from {where}, not from this checkout's src/xbar")
    return mods


def in_process_pass(main, commands, ledger: Ledger, tracer=None):
    """Run every command through `main`; returns (summed wall s, stdout bytes)."""
    wall, out_bytes = 0.0, 0
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command_id += 1
        t0 = time.perf_counter()
        code, stdout = layers.run_in_process(main, cmd.argv)
        wall += time.perf_counter() - t0
        out_bytes += len(stdout)
        ledger.verify(i, cmd, code, stdout)
        if cmd.save_stdout:
            with open(cmd.save_stdout, "wb") as fh:
                fh.write(stdout)
    return wall, out_bytes


def traced_run(commands, seconds: float, spans_path: str):
    """In-process untraced and traced passes; returns (metrics, ledger, notes)."""
    mods = import_xbar()
    ledger = Ledger()
    peak_mb = layers.sort_peak_mb(mods, commands)
    tracer = layers.Tracer()
    untraced, per_pass, counts = [], [], None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wall, _ = in_process_pass(mods["cli"].main, commands, ledger)
        untraced.append(wall)
        first = tracer.new_pass()
        with tracer.installed(mods):
            wall, out_bytes = in_process_pass(mods["cli"].main, commands, ledger, tracer)
        tracer.counts["cli.stdout_bytes"] = out_bytes
        if counts is None:
            counts = tracer.counts
        elif tracer.counts != counts:
            moved = sorted(k for k in counts if counts[k] != tracer.counts[k])
            ledger.record("traced pass counts", [f"counts moved between passes: {moved}"])
        per_pass.append({**tracer.pass_metrics(first), "bench.traced_wall_s": wall})
        if not room_for_another(start, pass_start, seconds):
            break
    tracer.write_spans(spans_path)
    comparisons = counts["pe_simulator.comparisons"]
    metrics = {
        **layers.medians(per_pass),
        **counts,
        "bench.untraced_wall_s": statistics.median(untraced),
        "pe_simulator.sort.peak_mb": peak_mb,
        "pe_simulator.dup_write_ratio":
            counts["pe_simulator.conflicts"] / comparisons if comparisons else 0.0,
    }
    notes = [
        f"{len(per_pass)} traced and {len(untraced)} untraced in-process passes",
        f"tracing overhead: traced {metrics['bench.traced_wall_s']:.4f} s vs untraced "
        f"{metrics['bench.untraced_wall_s']:.4f} s per pass",
        f"named layer spans cover {metrics['bench.span_coverage']:.1%} of cli.main.s; "
        f"cli.self.s is the rest",
        f"spans written to {spans_path}",
    ]
    return metrics, ledger, notes


def load_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != [(name, unit) for name, unit, _, _ in layers.LAYER_METRICS]:
        raise ValueError("BENCHMARK.json per_layer differs from layers.LAYER_METRICS")
    return spec


def print_list(spec: dict) -> None:
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, bound {m['bound']:.0%}")
    print("per-layer metrics (--trace 1): name [unit] -> moves ... on workloads")
    for name, unit, moves, where in layers.LAYER_METRICS:
        print(f"  {name} [{unit}] -> {moves} on {where}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric with its unit, then exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "xbar", "cli.py")):
        print(f"error: {ROOT} holds no src/xbar/cli.py to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.list:
        print_list(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        commands = workloads.make_commands(args.workload, args.seed, workdir)
        workloads.write_inputs(commands)
        if args.trace:
            spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, ledger, notes = traced_run(commands, args.seconds, spans)
            wanted = spec["per_layer"]
        else:
            metrics, ledger, notes = timed_run(commands, args.seconds, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(f"# workload {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {why}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()}; one closed-loop client, one command at a time")
    for cmd in commands:
        print(f"# command: PYTHONPATH=src PYTHONHASHSEED=0 {cmd.line()}")
    for note in notes:
        print(f"# {note}")
    print(f"# fail_ratio: {ledger.failed}/{ledger.attempted} commands failed")
    for problem in ledger.problems:
        print(f"# FAILED {problem}")
    for m in wanted:
        print(f"# {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
