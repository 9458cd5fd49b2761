"""Hypothesis properties of the sort, its trace, the query circuits and
the `validate` command.

Every layout from `build(n)` has crosspoints whose greater class sits on
the right and others whose greater class sits on the left, so arbitrary
inputs at every n in 2..12 exercise both exchange/reply directions.
"""

import contextlib
import csv
import io
import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbar import query_circuits
from xbar.array_builder import Layout, build, min_pe_count, validate
from xbar.cli import main
from xbar.netlist import depth, evaluate, legalize, series_depth
from xbar.pe_simulator import compare_phase, detect_write_conflicts, load_phase, sort
from xbar.trace_text import TraceEvent

from oracles import (build_max_circuit, build_min_circuit, build_rank_circuit_threshold,
                     cone_floors, csv_reference, euler_layout, evaluate_reference,
                     events_reference, jsonl_reference, oracle_ranks, twrite_conflicts,
                     validate_reference, written)

# Negatives, duplicates (small range) and values well past 2**64.
keys = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**80), max_value=2**80),
)
value_lists = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.lists(keys, min_size=n, max_size=n)
)


@settings(max_examples=200, deadline=None)
@given(value_lists)
def test_sort_matches_oracle_and_tie_rule(values):
    _, ranks, trace = sort(build(len(values)), values)
    assert list(ranks) == oracle_ranks(values)
    for _, ev in trace.events():
        if ev.action == "twrite":
            row, col = ev.row, ev.col
            # Row `row` records that element `col` lost: strictly
            # smaller, or equal with the smaller index.
            assert values[col] < values[row] or (
                values[col] == values[row] and col < row
            )


int_lists = st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.lists(st.integers(), min_size=n, max_size=n))


def _fixed_values(n: int, wide: bool) -> list[int]:
    rng = random.Random(2 * n + wide)
    return [rng.randrange(-10**21, 10**21) if wide else rng.randrange(3) for _ in range(n)]


# Fixed cases past the n <= 24 that Hypothesis draws: from n = 64 on, a phase
# block has more groups than one render chunk.  Tied keys (0..2), then keys of
# up to 70 bits.
FIXED_VALUES = [_fixed_values(n, wide) for n in (64, 65, 128, 255, 256) for wide in (False, True)]


def with_fixed_values(*leading):
    """Add one explicit example per FIXED_VALUES list, after the `leading` arguments."""
    def add_examples(test):
        for values in FIXED_VALUES:
            test = example(*leading, values)(test)
        return test
    return add_examples


@settings(max_examples=100, deadline=None)
@given(int_lists)
@with_fixed_values()
def test_conflicts_match_twrite_scan(values):
    _, _, trace = sort(build(len(values)), values)
    assert detect_write_conflicts(trace) == twrite_conflicts(trace)


tied_lists = st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.lists(keys, min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(tied_lists, st.randoms(use_true_random=False))
def test_euler_layouts_validate_sort_and_match_twrite_scan(values, rng):
    # A random Euler trail over K_n: its doubled pairs (even n) sit at random
    # places, where `build(n)` always doubles the same ones.
    layout = euler_layout(len(values), rng)
    assert validate(layout).ok
    assert len(layout.slots) == min_pe_count(layout.n)
    _, ranks, trace = sort(layout, values)
    assert list(ranks) == oracle_ranks(values)
    assert detect_write_conflicts(trace) == twrite_conflicts(trace)
    # The renderers, with the doubled pairs' crosspoints where `build(n)` never puts them.
    assert list(trace.events()) == list(events_reference(trace))
    assert written(trace, "jsonl") == jsonl_reference(trace)
    assert written(trace, "csv") == csv_reference(trace)


@settings(max_examples=50, deadline=None)
@given(tied_lists)
def test_select_rank_matches_sorted_order(values):
    bits, ranks, _ = sort(build(len(values)), values)
    order = sorted(range(len(values)), key=lambda i: (values[i], i))  # stable sort
    for r in range(len(values)):
        assert query_circuits.select_rank(bits, r) == order[r]
    assert query_circuits.min_index(bits) == order[0]
    assert query_circuits.max_index(bits) == order[-1]
    assert query_circuits.rank_via_adder_tree(bits) == ranks


# The library's netlist builders, plus the n-row reference netlists.
BUILDERS = {name: fn for name, fn in vars(query_circuits).items() if name.startswith("build_")}
BUILDERS.update(build_min_circuit=build_min_circuit, build_max_circuit=build_max_circuit,
                build_rank_circuit_threshold=build_rank_circuit_threshold)


def test_builders_are_the_library_four_and_the_references():
    assert sorted(BUILDERS) == [
        "build_encoder", "build_max_circuit", "build_min_circuit", "build_ones_counter",
        "build_popcount_tree", "build_priority_encoder", "build_rank_circuit_threshold"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(min_value=2, max_value=9),
       st.integers(min_value=1, max_value=70), st.data())
def test_packed_lanes_match_reference_per_lane(builder, n, lanes, data):
    # Bit i of every packed input and output is lane i, one vector each.
    net = BUILDERS[builder](n)
    packed = data.draw(st.lists(st.integers(0, (1 << lanes) - 1), min_size=len(net.inputs),
                                max_size=len(net.inputs)))
    assignment = dict(zip(net.inputs, packed))
    out = evaluate(net, assignment, lanes=lanes)
    for i in range(lanes):
        want = evaluate_reference(net, {w: (v >> i) & 1 for w, v in assignment.items()})
        assert {o: (v >> i) & 1 for o, v in out.items()} == want, (i, builder, n)


# The netlists without THRESHOLD gates, which `legalize` leaves wide: the library's
# and the references', plus the row and encoder netlists of `min_stages`/`max_stages`.
FLOORED = {name: BUILDERS[name] for name in (
    "build_encoder", "build_max_circuit", "build_min_circuit", "build_popcount_tree",
    "build_priority_encoder")}
FLOORED.update(min_row=lambda n: query_circuits.min_stages(n)[0][0],
               max_row=lambda n: query_circuits.max_stages(n)[0][0],
               row_encoder=lambda n: query_circuits.min_stages(n)[1][0])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FLOORED)), st.integers(min_value=2, max_value=64),
       st.integers(min_value=2, max_value=4))
def test_depth_is_at_least_the_fanin_cone_floor(name, n, b):
    net = FLOORED[name](n)
    assert not any(g.kind == "THRESHOLD" for g in net.gates)
    assert depth(net, b).depth >= max(cone_floors(net, b).values()), (name, n, b)


def test_fanin_2_depth_over_cone_floor_for_n_a_power_of_two():
    # Balanced trees meet the floor; the priority encoder's prefix NOR and its
    # encoder OR are each a full tree, so it takes twice the floor.
    for n in (4, 8, 16, 32, 64):
        for name in FLOORED.keys() - {"build_popcount_tree"}:
            net = FLOORED[name](n)
            ratio = 2 if name == "build_priority_encoder" else 1
            assert depth(net, 2).depth == ratio * max(cone_floors(net, 2).values()), (name, n)


LEGALIZED_BUILDERS = ("build_min_circuit", "build_max_circuit", "build_priority_encoder",
                      "build_popcount_tree", "build_ones_counter")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LEGALIZED_BUILDERS), st.integers(min_value=2, max_value=9),
       st.integers(min_value=2, max_value=5), st.data())
def test_legalize_preserves_outputs(builder, n, b, data):
    net = BUILDERS[builder](n)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(net.inputs),
                              max_size=len(net.inputs)))
    assignment = dict(zip(net.inputs, bits))
    assert evaluate(legalize(net, b), assignment) == evaluate(net, assignment)


# `xbar depth`'s stage lists and the n-row netlists they stand for.
STAGED = {
    "min": (query_circuits.min_stages, build_min_circuit),
    "max": (query_circuits.max_stages, build_max_circuit),
    "threshold-rank": (query_circuits.threshold_rank_stages, build_rank_circuit_threshold),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(STAGED)), st.integers(min_value=2, max_value=40),
       st.sampled_from(["unbounded", *range(2, 9)]))
def test_series_depth_matches_n_row_reference(circuit, n, fanin):
    stages, reference = STAGED[circuit]
    assert series_depth(stages(n), fanin) == depth(reference(n), fanin)


@st.composite
def mutated_layouts(draw):
    """`build(n)` for n 2..40 after a few swaps, overwrites, deletions,
    insertions, shifts of every id or a new declared n; sometimes with no
    slots at all.  A shift puts whole runs of adjacent ids out of range."""
    n = draw(st.integers(min_value=2, max_value=40))
    slots = list(build(n).slots)
    ids = st.integers(min_value=-3, max_value=n + 3)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        edit = draw(st.sampled_from(("swap", "overwrite", "delete", "insert", "shift", "declare")))
        if edit == "shift":
            k = draw(st.integers(min_value=-3, max_value=3))
            slots = [c + k for c in slots]
        elif edit == "declare":
            n = draw(st.integers(min_value=-2, max_value=n + 3))
        elif edit == "insert":
            slots.insert(draw(st.integers(0, len(slots))), draw(ids))
        elif slots:
            i = draw(st.integers(0, len(slots) - 1))
            if edit == "swap":
                j = draw(st.integers(0, len(slots) - 1))
                slots[i], slots[j] = slots[j], slots[i]
            elif edit == "overwrite":
                slots[i] = draw(ids)
            else:
                del slots[i]
    if draw(st.integers(0, 19)) == 0:
        slots = []
    return Layout(n, tuple(slots))


# build(5) ends ..., 3, 4, 0.  validate skips its same-class scan when every
# crosspoint joins two classes, and its repeated-pair scan when no pair code
# counts twice; each example below needs the scan that the guard must not skip.
_SLOTS_5 = build(5).slots


@settings(max_examples=400, deadline=None)
@given(mutated_layouts())
@example(Layout(5, _SLOTS_5 + (4,)))  # odd n, (0, 4) doubled, no same-class crosspoint
@example(Layout(5, _SLOTS_5 + (0,)))  # same-class pair at the last crosspoint
@example(Layout(5, _SLOTS_5 + (4, 4)))  # (0, 4) doubled and a same-class crosspoint
@example(Layout(5, _SLOTS_5 + (7, 0)))  # out-of-range 7 in the doubled pair (0, 7)
def test_validate_matches_reference(layout):
    got, want = validate(layout), validate_reference(layout)
    for name in ("violations", "ok", "pe_count", "expected_pe_count",
                 "redundant_pairs", "replicate_counts", "end_classes"):
        assert getattr(got, name) == getattr(want, name), name
    los, his, counts = got.pair_columns()
    assert dict(zip(zip(los, his), counts)) == want.pair_coverage
    if layout.n <= len(layout.slots):
        # Serialised, so the key order of the CLI's JSON is compared too.
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


@settings(max_examples=150, deadline=None)
@given(mutated_layouts())
@example(Layout(5, _SLOTS_5 + (7, 0)))  # out-of-range 7 in the doubled pair (0, 7)
@example(Layout(4, (-2, 0, 1, 2, 3, -1, 0)))  # negative ids at the start and inside
def test_validate_csv_lists_reference_pair_coverage(tmp_path_factory, layout):
    path = tmp_path_factory.getbasetemp() / "csv-layout.json"
    path.write_text(json.dumps({"n": layout.n, "slots": list(layout.slots)}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--layout", str(path), "--format", "csv"])
    want = validate_reference(layout)
    assert code == (1 if want.violations else 0)
    assert out.getvalue() == "pair,count\n" + "".join(
        f"{lo}-{hi},{count}\n" for (lo, hi), count in sorted(want.pair_coverage.items()))


def test_built_layouts_round_trip_through_validate(tmp_path):
    path = tmp_path / "layout.json"
    for n in range(2, 65):
        path.write_text(json.dumps({"n": n, "slots": list(build(n).slots)}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate", "--layout", str(path)])
        assert code == 0, n
        assert out.getvalue().splitlines()[-1] == "ok", n


@settings(max_examples=50, deadline=None)
@given(int_lists)
def test_csv_rows_match_jsonl_objects(values):
    _, _, trace = sort(build(len(values)), values)
    header, *rows = csv.reader(io.StringIO(written(trace, "csv")))
    objects = [json.loads(line) for line in written(trace, "jsonl").splitlines()]
    assert header == ["phase", "slot", "action", "value", "row", "col"]
    assert len(rows) == len(objects)
    for row, obj in zip(rows, objects):
        assert list(obj) == [k for k in header if k in obj]
        assert row == [str(obj.get(k, "")) for k in header]


def _cli_stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.lists(keys, min_size=n, max_size=n)))
# The sizes the benchmark sorts: signed keys up to 10**21 at odd n, tied keys at even
# n, whose doubled pairs give `conflicts` entries.
@example(_fixed_values(255, wide=True))
@example(_fixed_values(256, wide=False))
def test_sort_stdout_matches_json_dumps_of_reference_doc(values):
    n = len(values)
    layout = build(n)
    _, _, trace = sort(layout, values)
    # The matrix from its definition: row i holds a 1 for every k that sorts before i.
    t = [[int(values[k] < values[i] or (values[k] == values[i] and k < i)) for k in range(n)]
         for i in range(n)]
    doc = {
        "n": n,
        "slots": list(layout.slots),
        "input": values,
        "t": t,
        "ranks": oracle_ranks(values),
        "order": sorted(range(n), key=lambda i: (values[i], i)),
        "phase_count": 7,
        "conflicts": [{"row": row, "col": col, "slots": list(slots)}
                      for row, col, slots in twrite_conflicts(trace)],
    }
    # "--input=" binds a list that starts with a negative value.
    argv = ("sort", "--n", str(n), "--input=" + ",".join(map(str, values)))
    assert _cli_stdout(*argv, "--format", "json") == json.dumps(doc) + "\n"
    grid = _cli_stdout(*argv).splitlines()[:n]
    assert grid == ["".join(map(str, row)) for row in t]


STAGES = {
    "load": load_phase,
    "compare": lambda layout, values: compare_phase(load_phase(layout, values)),
    "sort": lambda layout, values: sort(layout, values)[2],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(STAGES)), int_lists)
@with_fixed_values("sort")
def test_jsonl_templates_match_json_dumps(stage, values):
    # Each stage adds phases, so together they reach every template key.
    trace = STAGES[stage](build(len(values)), values)
    # Bytes, not str: pytest's str diff of a long mismatch is slow to build.
    assert written(trace, "jsonl").encode() == jsonl_reference(trace).encode()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(STAGES)), int_lists)
@with_fixed_values("sort")
def test_events_match_per_event_reference(stage, values):
    trace = STAGES[stage](build(len(values)), values)
    got = list(trace.events())
    assert got == list(events_reference(trace))
    # Equality holds for True == 1 and for any tuple of equal fields, so pin the types.
    assert {type(pair) for pair in got} <= {tuple}
    assert {type(ev) for _, ev in got} <= {TraceEvent}
    assert {type(v) for _, ev in got for v in (ev.slot, ev.value, ev.row, ev.col)
            if v is not None} <= {int}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(STAGES)), int_lists)
@with_fixed_values("sort")
def test_csv_templates_match_csv_writer(stage, values):
    trace = STAGES[stage](build(len(values)), values)
    assert written(trace, "csv").encode() == csv_reference(trace).encode()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10,
)
class_ids = st.integers(min_value=-2, max_value=30) | st.integers(max_value=10**12)
layout_docs = json_values | st.fixed_dictionaries(
    {
        "n": st.integers(min_value=-2, max_value=30) | st.integers(max_value=10**12) | json_values,
        "slots": st.lists(class_ids, max_size=40) | st.lists(json_values, max_size=4) | json_values,
    },
    optional={"provenance": st.lists(st.text(), max_size=40) | json_values},
)


@settings(max_examples=300, deadline=None)
@given(layout_docs)
def test_validate_fuzzed_layout_documents_exit_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-layout.json"
    path.write_text(json.dumps(doc))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["validate", "--layout", str(path)])
    assert code in (0, 1, 2)
