"""Hypothesis properties of the sort over both compare directions.

Every layout from `build(n)` has crosspoints whose greater class sits on
the right and others whose greater class sits on the left, so arbitrary
inputs at every n in 2..12 exercise both exchange/reply directions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from xbar.array_builder import build
from xbar.pe_simulator import detect_write_conflicts, sort

from oracles import oracle_ranks, twrite_conflicts

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
    assert list(ranks.ranks) == oracle_ranks(values)
    for phase in trace.phases:
        for ev in phase.events:
            if ev.action == "twrite":
                row, col = ev.row, ev.col
                # Row `row` records that element `col` lost: strictly
                # smaller, or equal with the smaller index.
                assert values[col] < values[row] or (
                    values[col] == values[row] and col < row
                )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.lists(st.integers(), min_size=n, max_size=n)))
def test_conflicts_match_twrite_scan(values):
    _, _, trace = sort(build(len(values)), values)
    assert detect_write_conflicts(trace) == twrite_conflicts(trace)
