import json
import random

import pytest

from xbar.array_builder import Layout, build
from xbar.pe_simulator import (
    PHASE_NAMES,
    SortTrace,
    compare_phase,
    detect_write_conflicts,
    load_phase,
    phase_count,
    rank_phase,
    sort,
)

from oracles import oracle_ranks, twrite_conflicts, written


def phase_events(trace, name):
    return [ev for phase, ev in trace.events() if phase == name]


def seen_phases(trace):
    """The phase names of `trace.events()`, in first-seen order."""
    return list(dict.fromkeys(phase for phase, _ in trace.events()))


T4 = tuple(map(bytes, ((0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0))))
R4 = (1, 2, 3, 0)
T5 = tuple(map(bytes, ((0, 1, 0, 1, 1), (0, 0, 0, 1, 0), (1, 1, 0, 1, 1), (0, 0, 0, 0, 0),
                       (0, 1, 0, 1, 0))))
R5 = (3, 1, 4, 0, 2)


def test_load_broadcasts_to_every_replicate():
    state = load_phase(build(5), [8, 6, 9, 5, 7])
    loads = phase_events(state, "load")
    class2 = [ev for ev in loads if ev.row == 2]
    assert len(class2) == build(5).slots.count(2)
    assert all(ev.value == 9 for ev in class2)


def test_load_covers_all_slots():
    layout = build(7)
    state = load_phase(layout, list(range(7)))
    loads = phase_events(state, "load")
    assert len(loads) == 22
    assert sum(1 for ev in loads if ev.row == 0) == 4


def test_load_phase_names_and_clear():
    state = load_phase(build(4), [3, 1, 2, 0])
    assert seen_phases(state) == ["clear", "load"]
    assert [ev.row for ev in phase_events(state, "clear")] == [0, 1, 2, 3]
    assert state.bits is None


def test_load_rejects_length_mismatch():
    with pytest.raises(ValueError):
        load_phase(build(5), [1, 2, 3])


def test_golden_four_element_matrix():
    trace = compare_phase(load_phase(build(4), [6, 7, 8, 5]))
    assert trace.bits == T4
    assert seen_phases(trace) == list(PHASE_NAMES[:6])


def test_golden_five_element_matrix():
    assert compare_phase(load_phase(build(5), [8, 6, 9, 5, 7])).bits == T5


def test_all_equal_keys_fall_back_to_index_order():
    trace = compare_phase(load_phase(build(3), [5, 5, 5]))
    assert trace.bits == (bytes((0, 0, 0)), bytes((1, 0, 0)), bytes((1, 1, 0)))


def test_rank_phase_row_sums():
    for values, bits, ranks in (([6, 7, 8, 5], T4, R4), ([8, 6, 9, 5, 7], T5, R5)):
        state = SortTrace(build(len(values)), tuple(values), bits)
        assert rank_phase(state) == state._replace(ranks=ranks)
    assert rank_phase(SortTrace(Layout(1, (0,)), (3,), ((0,),))).ranks == (0,)


def test_sort_golden_runs():
    assert sort(build(4), [6, 7, 8, 5])[1] == R4
    assert sort(build(5), [8, 6, 9, 5, 7])[1] == R5


def test_sort_returns_the_bits_and_ranks_of_its_trace():
    layout, values = build(6), [4, 4, 1, 7, 0, 7]
    bits, ranks, trace = sort(layout, values)
    assert bits is trace.bits and ranks is trace.ranks
    assert trace == rank_phase(compare_phase(load_phase(layout, values)))


def test_sort_with_duplicates():
    assert sort(build(5), [1, 1, 2, 2, 0])[1] == (1, 2, 3, 4, 0)


def test_sort_produces_nondecreasing_output():
    rng = random.Random(7)
    for n in (3, 4, 6, 9, 12):
        layout = build(n)
        values = [rng.randrange(0, 8) for _ in range(n)]
        _, ranks, _ = sort(layout, values)
        ordered = [0] * n
        for value, r in zip(values, ranks):
            ordered[r] = value
        assert ordered == sorted(values)
        assert sorted(ranks) == list(range(n))


def test_phase_count_constant():
    for n in (2, 3, 5, 12, 31):
        _, _, trace = sort(build(n), list(range(n)))
        assert phase_count(trace) == 7
        assert trace.phases == PHASE_NAMES
        # n = 2 has one crosspoint, a left one, so its right sub-phases run without events.
        assert seen_phases(trace) == [p for p in PHASE_NAMES if n > 2 or "right" not in p]


def test_conflicts_even_and_odd():
    _, _, trace4 = sort(build(4), [6, 7, 8, 5])
    assert detect_write_conflicts(trace4) == [(2, 1, (2, 5))]
    _, _, trace7 = sort(build(7), [3, 1, 4, 1, 5, 9, 2])
    assert detect_write_conflicts(trace7) == []
    _, _, trace2 = sort(build(2), [9, 1])
    assert detect_write_conflicts(trace2) == []
    # Before the compare phase no cell is written, so even n reports none.
    assert detect_write_conflicts(load_phase(build(4), [1, 2, 3, 4])) == []


@pytest.mark.parametrize("n", range(2, 65))
def test_conflicts_equal_crosspoints_less_set_cells(n):
    # A crosspoint sets one cell, the same one for every crosspoint of a pair.
    rng = random.Random(n)
    bits, _, trace = sort(build(n), [rng.randrange(-50, 50) for _ in range(n)])
    conflicts = detect_write_conflicts(trace)
    set_cells = sum(map(sum, bits))
    doubled = n // 2 - 1 if n % 2 == 0 else 0
    assert len(trace.layout.slots) - 1 - set_cells == len(conflicts) == doubled
    assert all(len(writers) == 2 for _, _, writers in conflicts)


def test_odd_layout_with_a_doubled_pair_reports_its_conflict():
    # Pair (0, 1) sits on crosspoints 0 and 3; both write T[0][1], as 3 < 5.
    _, _, trace = sort(Layout(3, (0, 1, 2, 0, 1)), [5, 3, 4])
    assert detect_write_conflicts(trace) == twrite_conflicts(trace) == [(0, 1, (0, 3))]
    # More set cells than crosspoints: not a matrix compare_phase wrote, so it is scanned too.
    assert detect_write_conflicts(trace._replace(bits=((1, 1, 1),) * 3)) == [(0, 1, (0, 3))]
    # Pair (0, 1) met three times, on left crosspoints 0 and 2 and right crosspoint 1: its
    # cell lists three writers, the left ones first, whichever class wins.
    for keys, want in (([5, 3, 4], [(0, 1, (0, 2, 2))]), ([3, 5, 4], [(1, 0, (1, 3, 1))])):
        _, _, trace = sort(Layout(3, (0, 1, 0, 1, 2, 0)), keys)
        assert detect_write_conflicts(trace) == twrite_conflicts(trace) == want


def test_conflict_writers_in_trace_order():
    # The left sub-phases commit before the right ones, so T[5][1] lists
    # slot 38 (a left crosspoint) before slot 31 (a right one).
    _, _, trace = sort(build(10), [30, 75, 69, 16, 47, 77, 60, 80, 74, 8])
    assert detect_write_conflicts(trace) == [
        (2, 6, (28, 44)), (5, 1, (38, 31)), (7, 3, (41, 45)), (8, 4, (27, 47)),
    ]


def test_phase_count_matches_phases_after_each_stage():
    # build(n) for n > 2 has crosspoints of both directions, so every phase run has events.
    for n in (3, 4, 5, 8):
        state = load_phase(build(n), list(range(n, 0, -1)))
        compared = compare_phase(state)
        ranked = rank_phase(compared)
        for trace, count in ((state, 2), (compared, 6), (ranked, 7)):
            assert list(trace.phases) == seen_phases(trace) == list(PHASE_NAMES[:count])
            assert phase_count(trace) == count


def test_stages_leave_the_trace_they_are_given_unchanged():
    layout, values = build(6), [4, 4, 1, 7, 0, 7]
    bits, ranks, _ = sort(layout, values)
    state = load_phase(layout, values)
    compared = compare_phase(state)
    ranked = rank_phase(compared)
    assert state == SortTrace(layout, tuple(values))
    assert compared == SortTrace(layout, tuple(values), bits)
    assert ranked == SortTrace(layout, tuple(values), bits, ranks)


def test_comparison_count_equals_crosspoints():
    for n in (4, 5, 8, 11):
        layout = build(n)
        _, _, trace = sort(layout, list(range(n, 0, -1)))
        signals = sum(
            1 for _, ev in trace.events() if ev.action.startswith("signal_send")
        )
        assert signals == len(layout.slots) - 1


def test_trace_writes_match_final_matrix():
    layout = build(6)
    values = [4, 4, 1, 7, 0, 7]
    bits, _, trace = sort(layout, values)
    for _, ev in trace.events():
        if ev.action == "twrite":
            assert bits[ev.row][ev.col] == 1
    # Antisymmetry across every adjacent class pair.
    for a, b in zip(layout.slots, layout.slots[1:]):
        assert bits[a][b] + bits[b][a] == 1


def test_matrix_oracle_equivalence_small():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randrange(3, 12)
        values = [rng.randrange(0, 6) for _ in range(n)]
        _, ranks, _ = sort(build(n), values)
        assert list(ranks) == oracle_ranks(values)


def test_compare_rejects_same_class_adjacency():
    state = load_phase(Layout(2, (0, 0)), [1, 2])
    with pytest.raises(ValueError):
        compare_phase(state)


# (layout, first shared crosspoint, its class), at odd and even n.
SHARED_CLASS_LAYOUTS = [
    # Slots 2,3 (class 2) and 4,5 (class 1) each join two slots of one class.
    (Layout(3, (1, 0, 2, 2, 1, 1, 0)), 2, 2),
    # At the first crosspoint, with a second shared one at the last.
    (Layout(3, (0, 0, 1, 2, 2)), 0, 0),
    (Layout(4, (1, 1, 0, 2, 3, 3)), 0, 1),
    # At the last crosspoint only.
    (Layout(3, (0, 1, 2, 0, 0)), 3, 0),
    (Layout(4, (0, 1, 2, 3, 0, 2, 2)), 5, 2),
    # Right after a doubled pair: (0, 1) and (2, 3) sit on crosspoints 0 and 1.
    (Layout(3, (0, 1, 0, 0, 2, 1)), 2, 0),
    (Layout(4, (2, 3, 2, 2, 0, 1, 3)), 2, 2),
]


@pytest.mark.parametrize(
    "consumer",
    [compare_phase, detect_write_conflicts, lambda trace: written(trace, "jsonl"),
     lambda trace: written(trace, "csv"), lambda trace: list(trace.events())],
    ids=["compare_phase", "detect_write_conflicts", "write_jsonl", "write_csv", "events"])
def test_same_class_adjacency_names_its_first_crosspoint(consumer):
    for layout, first, cls in SHARED_CLASS_LAYOUTS:
        # load_phase checks only the class ids; the shared class is left to the consumers.
        trace = load_phase(layout, list(range(layout.n, 0, -1)))._replace(
            bits=((0,) * layout.n,) * layout.n)
        with pytest.raises(ValueError) as exc:
            consumer(trace)
        assert str(exc.value) == (
            f"adjacent slots {first},{first + 1} share class {cls}; cannot compare")


def test_trace_serializations():
    _, _, trace = sort(build(4), [6, 7, 8, 5])
    lines = written(trace, "jsonl").strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert {d["phase"] for d in docs} == set(PHASE_NAMES)
    assert all({"phase", "slot", "action"} <= d.keys() for d in docs)
    csv_text = written(trace, "csv")
    header, *rows = csv_text.strip().splitlines()
    assert header == "phase,slot,action,value,row,col"
    assert len(rows) == len(docs)


@pytest.mark.parametrize("sinks", [{}, {"jsonl": print, "csv": print}])
def test_write_takes_exactly_one_sink(sinks):
    _, _, trace = sort(build(4), [6, 7, 8, 5])
    with pytest.raises(TypeError, match="one sink"):
        trace.write(**sinks)


def test_sort_rejects_layout_missing_pairs():
    # 0-1-2-3 never compares 0 with 2, 0 with 3 or 1 with 3.
    with pytest.raises(ValueError) as exc:
        sort(Layout(4, (0, 1, 2, 3)), [3, 2, 1, 0])
    assert str(exc.value) == "layout misses 3 of its 6 class pairs"


# The last case is in range but a bool, which the trace would write as an
# int where JSON has `true`.
@pytest.mark.parametrize("slots", [(0, 1, 2, 0, 3), (0, 1, 2, 0, -1), (0, 1, 2, 0, True)])
def test_load_rejects_class_ids_out_of_range(slots):
    with pytest.raises(ValueError) as exc:
        load_phase(Layout(3, slots), [1, 2, 3])
    assert str(exc.value) == f"class id {slots[-1]!r} is not an int in 0..2"


@pytest.mark.parametrize("values", [[1, 2.5, 0], [True, 0, 1]], ids=["float", "bool"])
def test_load_rejects_values_that_are_not_exact_ints(values):
    # The trace writes each value as a JSON integer, which a float or a bool is not.
    with pytest.raises(ValueError, match="not an int"):
        load_phase(build(3), values)
