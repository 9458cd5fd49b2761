"""In-process replay of a command list with a span around every layer call.

The layers are the modules of ``src/xbar``.  `Tracer.installed()` swaps
each public function listed in `SPANS` for a wrapper that records a span
(name, start, end, parent span, command id) and the deterministic counts
read off the call's arguments and result, then puts the originals back.
Spans stay in memory until the run writes them out.

`LAYER_METRICS` names every per-layer metric, with the end-to-end metric
and workloads it should move; ``run.py --list`` prints it.
"""

import contextlib
import io
import json
import statistics
import time
import tracemalloc

# (module, attribute or "Class.method", span name).  A function that other
# modules imported by name is patched there too, or those callers bypass it.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "partition_Q", "cyclic_perm.partition_Q"),
    ("cyclic_perm", "partition_Q", "cyclic_perm.partition_Q"),
    ("array_builder", "build", "array_builder.build"),
    ("array_builder", "validate", "array_builder.validate"),
    ("pe_simulator", "sort", "pe_simulator.sort"),
    ("pe_simulator", "load_phase", "pe_simulator.load_phase"),
    ("pe_simulator", "compare_phase", "pe_simulator.compare_phase"),
    ("pe_simulator", "rank_phase", "pe_simulator.rank_phase"),
    ("pe_simulator", "detect_write_conflicts", "pe_simulator.detect_write_conflicts"),
    ("pe_simulator", "SortTrace.to_jsonl", "pe_simulator.to_jsonl"),
    ("pe_simulator", "SortTrace.to_csv", "pe_simulator.to_csv"),
    ("query_circuits", "build_min_circuit", "query_circuits.build_min_circuit"),
    ("query_circuits", "build_max_circuit", "query_circuits.build_max_circuit"),
    ("query_circuits", "build_priority_encoder", "query_circuits.build_priority_encoder"),
    ("query_circuits", "build_popcount_tree", "query_circuits.build_popcount_tree"),
    ("query_circuits", "build_rank_circuit_threshold",
     "query_circuits.build_rank_circuit_threshold"),
    ("query_circuits", "select_rank", "query_circuits.select_rank"),
    ("query_circuits", "min_index", "query_circuits.min_index"),
    ("query_circuits", "max_index", "query_circuits.max_index"),
    ("query_circuits", "search", "query_circuits.search"),
    ("query_circuits", "evaluate", "netlist.evaluate"),
    ("query_circuits", "depth", "netlist.depth"),
    ("query_circuits", "legalize", "netlist.legalize"),
    ("netlist", "evaluate", "netlist.evaluate"),
    ("netlist", "legalize", "netlist.legalize"),
    ("netlist", "depth", "netlist.depth"),
    ("cli", "depth", "netlist.depth"),
)

# Per-layer metrics: (name, unit, end-to-end metric it should move, workloads).
LAYER_METRICS = (
    ("cyclic_perm.partition_Q.s", "s", "wall_rel", "structure"),
    ("array_builder.build.s", "s", "wall_rel", "structure (small share elsewhere)"),
    ("array_builder.validate.s", "s", "wall_rel", "structure"),
    ("array_builder.slots", "count", "none: must not move", "all"),
    ("pe_simulator.sort.s", "s", "wall_rel", "sort, trace, query"),
    ("pe_simulator.load_phase.s", "s", "wall_rel", "sort, trace (15% of query)"),
    ("pe_simulator.compare_phase.s", "s", "wall_rel, peak_rss_mb", "sort, trace (15% of query)"),
    ("pe_simulator.rank_phase.s", "s", "wall_rel", "sort, trace (15% of query)"),
    ("pe_simulator.detect_write_conflicts.s", "s", "wall_rel", "sort, trace"),
    ("pe_simulator.sort.peak_mb", "MB", "peak_rss_mb", "sort, trace, query"),
    ("pe_simulator.to_jsonl.s", "s", "wall_rel", "trace only"),
    ("pe_simulator.to_csv.s", "s", "wall_rel", "trace only"),
    ("pe_simulator.trace_bytes", "bytes", "none: must not move", "trace"),
    ("pe_simulator.comparisons", "count", "none: must not move", "all"),
    ("pe_simulator.trace_events", "count", "none: must not move", "all"),
    ("pe_simulator.phases", "count", "none: must not move", "all"),
    ("pe_simulator.conflicts", "count", "none: must not move", "all"),
    ("pe_simulator.dup_write_ratio", "ratio", "none: must not move", "all"),
    ("query_circuits.build_min_circuit.s", "s", "wall_rel", "query, structure (via depth)"),
    ("query_circuits.build_max_circuit.s", "s", "wall_rel", "query"),
    ("query_circuits.build_priority_encoder.s", "s", "wall_rel", "query"),
    ("query_circuits.build_popcount_tree.s", "s", "wall_rel", "structure (via depth)"),
    ("query_circuits.build_rank_circuit_threshold.s", "s", "wall_rel", "structure (via depth)"),
    ("query_circuits.select_rank.s", "s", "wall_rel", "query"),
    ("query_circuits.min_index.s", "s", "wall_rel", "query"),
    ("query_circuits.max_index.s", "s", "wall_rel", "query"),
    ("query_circuits.search.s", "s", "wall_rel", "query"),
    ("netlist.evaluate.s", "s", "wall_rel", "query; an evaluate-only change leaves structure flat"),
    ("netlist.legalize.s", "s", "wall_rel", "structure"),
    ("netlist.depth.s", "s", "wall_rel", "structure"),
    ("netlist.gates", "count", "none: must not move", "query, structure"),
    ("netlist.legal_gates", "count", "none: must not move", "structure"),
    ("netlist.depth_levels", "count", "none: must not move", "structure"),
    ("cli.main.s", "s", "wall_rel", "all (parse/format glue plus the layers)"),
    ("cli.self.s", "s", "wall_rel", "all (cli.main.s minus the layer spans under it)"),
    ("cli.stdout_bytes", "bytes", "none: must not move", "all"),
    ("bench.untraced_wall_s", "s", "tracing overhead baseline", "all"),
    ("bench.traced_wall_s", "s", "tracing overhead", "all"),
    ("bench.span_coverage", "ratio", "share of cli.main.s under named layer spans", "all"),
)

# Counts taken per pass; every pass over one seed must reproduce them exactly.
COUNT_NAMES = tuple(name for name, unit, _, _ in LAYER_METRICS if unit in ("count", "bytes"))


def _sort_counts(args, result):
    trace = result[2]
    actions = [ev.action for _, ev in trace.events()]
    return {"pe_simulator.phases": len(trace.phases),
            "pe_simulator.trace_events": len(actions),
            "pe_simulator.comparisons": actions.count("twrite")}


def _trace_bytes(args, result):
    return {"pe_simulator.trace_bytes": len(result.encode())}


def _depth_counts(args, result):
    return {"netlist.gates": len(args[0].gates), "netlist.depth_levels": result.depth}


# Span name -> function of (call arguments, result) giving count increments.
COUNTERS = {
    "array_builder.build": lambda args, r: {"array_builder.slots": len(r.slots)},
    "pe_simulator.sort": _sort_counts,
    "pe_simulator.detect_write_conflicts": lambda args, r: {"pe_simulator.conflicts": len(r)},
    "pe_simulator.to_jsonl": _trace_bytes,
    "pe_simulator.to_csv": _trace_bytes,
    "netlist.evaluate": lambda args, r: {"netlist.gates": len(args[0].gates)},
    "netlist.depth": _depth_counts,
    "netlist.legalize": lambda args, r: {"netlist.legal_gates": len(r.gates)},
}


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        self.command_id = 0
        self._stack: list[int] = []

    def new_pass(self) -> int:
        """Zero the counts for a new pass; returns the index of its first span."""
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        return len(self.spans)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = {"name": name, "command": self.command_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                for key, inc in counter(args, result).items():
                    self.counts[key] += inc
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, xbar_modules: dict):
        """Patch every function of `SPANS` that exists; restore on exit."""
        cli = xbar_modules["cli"]
        circuits = dict(cli._CIRCUITS)
        saved = []
        try:
            for module, attr, name in SPANS:
                owner = xbar_modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            for key, fn in circuits.items():
                cli._CIRCUITS[key] = self.wrap(f"query_circuits.{fn.__name__}", fn)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            cli._CIRCUITS.update(circuits)

    def pass_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer seconds summed over the spans recorded since `first_span`."""
        spans = self.spans[first_span:]
        totals = {name: 0.0 for name, _, _, _ in LAYER_METRICS if name.endswith(".s")}
        for span in spans:
            key = span["name"] + ".s"
            if key in totals:
                totals[key] += (span["end"] - span["start"]) / 1e9
        mains = {first_span + i for i, s in enumerate(spans) if s["name"] == "cli.main"}
        covered = sum(
            (s["end"] - s["start"]) / 1e9 for s in spans if s["parent"] in mains
        )
        totals["cli.self.s"] = totals["cli.main.s"] - covered
        totals["bench.span_coverage"] = (
            covered / totals["cli.main.s"] if totals["cli.main.s"] else 0.0
        )
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")


def run_in_process(main, argv) -> tuple[int, bytes]:
    """Call `main(argv)` with stdout captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode()


# Commands whose CLI handler runs `pe_simulator.sort` on the input values.
SORTING_CHECKS = ("sort_json", "sort_csv", "min", "max", "rank")


def sort_peak_mb(xbar_modules: dict, commands) -> float:
    """Peak traced memory of one `pe_simulator.sort` on the largest sorted input.

    Runs in a pass of its own because tracemalloc slows the sort about 3x.
    Workloads without a sort report 0.
    """
    sorted_inputs = [c for c in commands if c.check in SORTING_CHECKS]
    if not sorted_inputs:
        return 0.0
    cmd = max(sorted_inputs, key=lambda c: c.n)
    layout = xbar_modules["array_builder"].build(cmd.n)
    tracemalloc.start()
    try:
        xbar_modules["pe_simulator"].sort(layout, list(cmd.values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def medians(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
