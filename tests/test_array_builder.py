import json
import tracemalloc

import pytest

from xbar.array_builder import (
    Layout,
    build,
    min_pe_count,
    provenance,
    replicate_lower_bound,
    validate,
)
from xbar.cli import MAX_N
from xbar.cyclic_perm import partition_Q, q_groups

from oracles import layout_reference, pair_counts, shortest_covering_walk


def test_min_pe_count_values():
    assert min_pe_count(5) == 11
    assert min_pe_count(12) == 72
    assert min_pe_count(7) == 22
    assert min_pe_count(2) == 2
    with pytest.raises(ValueError):
        min_pe_count(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_no_covering_walk_is_shorter_than_min_pe_count(n):
    # The postman bound from an exhaustive search, not from the formula under test.
    assert shortest_covering_walk(n) == min_pe_count(n)


def test_replicate_lower_bounds():
    assert replicate_lower_bound(7, 0) == 3
    assert replicate_lower_bound(12, 2) == 7
    assert replicate_lower_bound(12, 1) == 6
    with pytest.raises(ValueError, match=r"^ends must be 0, 1 or 2, got 3$"):
        replicate_lower_bound(7, 3)
    with pytest.raises(ValueError, match=r"^need at least 2 classes, got n=1$"):
        replicate_lower_bound(1)


def test_build_even_four():
    layout = build(4)
    assert layout.slots == (0, 1, 2, 3, 0, 2, 1, 3)
    counts = pair_counts(layout.slots)
    assert len(counts) == 6
    assert sorted(counts.values()).count(2) == 1  # exactly one duplicated pair


def test_build_even_six():
    assert build(6).slots == (0, 1, 2, 3, 4, 5, 0, 2, 4, 0, 3, 1, 3, 5, 1, 4, 2, 5)


def test_build_even_twelve_prefix():
    slots = build(12).slots
    assert len(slots) == 72
    assert slots[:18] == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 2, 4, 6, 8, 10)


def test_build_odd_small():
    assert build(3).slots == (0, 1, 2, 0)
    layout5 = build(5)
    assert len(layout5.slots) == 11
    assert set(pair_counts(layout5.slots).values()) == {1}
    assert "-".join(map(str, build(7).slots)) == "0-1-2-3-4-5-0-2-4-0-3-6-1-3-5-1-4-6-2-5-6-0"


def test_build_rejects_fewer_than_two_classes():
    with pytest.raises(ValueError, match=r"^need at least 2 classes, got n=1$"):
        build(1)


def test_build_dispatch():
    assert build(2).slots == (0, 1)
    # Odd n: the even frame for 4 classes, class 4 between its groups, then 4, 0.
    assert build(5).slots == (0, 1, 2, 3, 0, 2, 4, 1, 3, 4, 0)
    assert build(6).slots == (0, 1, 2, 3, 4, 5, 0, 2, 4, 0, 3, 1, 3, 5, 1, 4, 2, 5)
    # Repeat calls are bit-identical.
    assert build(9).slots == build(9).slots


def test_odd_provenance_tags():
    layout, tags = build(7), provenance(7)
    assert tags[0] == "Q0.c0.e0"
    assert tags.count("odd-fill") == 2
    assert tags[-2:] == ("odd-tail", "odd-tail")
    fills = [s for s, p in zip(layout.slots, tags) if p == "odd-fill"]
    assert fills == [6, 6]


@pytest.mark.parametrize("n", [*range(2, 41), 255, 256, 511, 512])
def test_slots_and_provenance_match_q_partition_walk(n):
    assert (build(n).slots, provenance(n)) == layout_reference(n)


def test_sliced_cycles_match_a_mod_walk_at_the_largest_n():
    # Each cycle is a slice of the class ids repeated m/2 + 1 times.  Too short a
    # list cuts a slice short without an error, and the cycles are longest here.
    m = MAX_N
    walk = [[tuple(e % m for e in cycle) for cycle in group] for group in q_groups(m)]
    assert partition_Q(m) == walk
    assert build(m).slots == tuple(e for group in walk for cycle in group for e in cycle)


def test_provenance_needs_two_classes():
    with pytest.raises(ValueError):
        provenance(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 10, 13, 16, 21, 24, 33])
def test_built_layouts_validate_clean(n):
    layout = build(n)
    report = validate(layout)
    assert report.ok, report.violations
    assert report.pe_count == min_pe_count(n)
    assert len(report.pair_rows) == n  # every built layout takes the table walk
    if n % 2 == 0:
        assert len(report.redundant_pairs) == n // 2 - 1
    else:
        assert report.redundant_pairs == []
    for c in range(n):
        assert report.replicate_counts[c] >= replicate_lower_bound(n, 0)


def test_validate_peak_memory_stays_within_the_pair_table():
    # The table walk holds at most 4 bytes per slot.  A Counter of one int
    # code per crosspoint peaks at about 13 MB here, 100 bytes per slot.
    layout = build(512)
    tracemalloc.start()
    try:
        report = validate(layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, report.violations
    assert peak < 2 * 4 * len(layout.slots)


def test_validate_walks_into_the_table_only_within_4_bytes_per_slot():
    # Ids 0..3 need a 4 x 4 table, which 4 slots hold exactly.
    report = validate(Layout(4, (0, 1, 2, 3)))
    assert len(report.pair_rows) == 4
    assert "3 class pairs never adjacent, e.g. [(0, 2), (0, 3), (1, 3)]" in report.violations
    assert report.pair_columns() == ([0, 1, 2], [1, 2, 3], [1, 1, 1])
    # Ids 0..4 need 5 x 5 bytes, more than 5 slots hold; a negative id is never tabled.
    assert validate(Layout(5, (0, 1, 2, 3, 4))).pair_rows == []
    assert validate(Layout(4, (-1, 0, 1, 2, 3))).pair_rows == []


def test_validate_flags_same_class_adjacency():
    report = validate(Layout(2, (0, 0)))
    assert any("same-class" in v for v in report.violations)


def test_validate_flags_missing_pairs_and_count():
    # 4 classes laid out as a bare chain: right size is 8, this has 4.
    report = validate(Layout(4, (0, 1, 2, 3)))
    assert any("never adjacent" in v for v in report.violations)
    assert any("minimal" in v for v in report.violations)


def test_validate_counts_missing_pairs_and_caps_class_lines():
    # 30 classes, 4 slots: 3 of the 435 pairs covered, 26 classes with no slot.
    report = validate(Layout(30, (0, 1, 2, 3, 4, 30)))
    assert "431 class pairs never adjacent, e.g. [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]" \
        in report.violations
    class_lines = [v for v in report.violations if v.startswith("class ")]
    assert class_lines == [
        f"class {c} has 1 slots, below its lower bound 15" for c in range(5)
    ]
    assert report.violations[-1] == "25 more classes below their slot lower bound"
    # Class 0 meets its bound of 4, so only classes 1-5 (listed) and 6-7 are short.
    report = validate(Layout(8, (1, 0, 2, 0, 3, 0, 4, 0, 5)))
    assert report.violations[-1] == "2 more classes below their slot lower bound"


def test_validate_flags_out_of_range_ids():
    report = validate(Layout(3, (0, 1, 5, 0)))
    assert any("out of range" in v for v in report.violations)


def test_validate_flags_odd_duplicates():
    # Odd n with a doubled pair: coverage complete but not exactly-once.
    report = validate(Layout(3, (0, 1, 2, 0, 1)))
    assert not report.ok


def test_layout_json_roundtrip():
    layout = build(7)
    doc = json.loads(json.dumps({"n": layout.n, "slots": list(layout.slots)}))
    assert doc["n"] == 7
    assert doc["slots"] == list(layout.slots)
    again = Layout.from_json_dict(doc)
    assert again == layout


def test_validation_report_json():
    doc = validate(build(6)).to_json_dict()
    assert doc["pe_count"] == 18
    assert doc["violations"] == []
    assert all(isinstance(k, str) for k in doc["pair_coverage"])
