"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from xbar.array_builder import build, min_pe_count, validate
from xbar.cyclic_perm import cycle_decomposition
from xbar.netlist import depth, evaluate, series_depth
from xbar.pe_simulator import detect_write_conflicts, phase_count, sort
from xbar.query_circuits import (
    build_ones_counter,
    build_popcount_tree,
    max_index,
    max_stages,
    min_index,
    min_stages,
    rank_at_least_probabilistic,
    threshold_rank_stages,
)

from oracles import argmax_index, argmin_index, lane_values, oracle_ranks, pack_lanes

T4 = tuple(map(bytes, ((0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0))))
T5 = tuple(map(bytes, ((0, 1, 0, 1, 1), (0, 0, 0, 1, 0), (1, 1, 0, 1, 1), (0, 0, 0, 0, 0),
                       (0, 1, 0, 1, 0))))


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {label}")
        raise
    print(f"PASS criterion {label}")


def test_criterion_1_golden_traces():
    with criterion("1: golden 4- and 5-element sorts reproduce T and R bit-exactly"):
        start = time.perf_counter()
        t4, r4, _ = sort(build(4), [6, 7, 8, 5])
        t5, r5, _ = sort(build(5), [8, 6, 9, 5, 7])
        elapsed = time.perf_counter() - start
        assert t4 == T4
        assert r4 == (1, 2, 3, 0)
        assert t5 == T5
        assert r5 == (3, 1, 4, 0, 2)
        assert elapsed < 1.0, f"golden sorts took {elapsed:.3f}s"


def test_criterion_2_minimal_slot_counts():
    with criterion("2: builders hit the minimal slot count for every n up to 64"):
        start = time.perf_counter()
        for n in range(3, 64, 2):
            assert len(build(n).slots) == n * (n - 1) // 2 + 1 == min_pe_count(n)
        for n in range(4, 65, 2):
            assert len(build(n).slots) == n * n // 2 == min_pe_count(n)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"size sweep took {elapsed:.3f}s"


def _pair_coverage(report) -> dict:
    los, his, counts = report.pair_columns()
    return dict(zip(zip(los, his), counts))


def test_criterion_3_pair_coverage():
    with criterion("3: odd layouts cover each pair once; even layouts double exactly n/2-1"):
        for n in range(3, 64, 2):
            report = validate(build(n))
            assert report.ok, (n, report.violations)
            coverage = _pair_coverage(report)
            assert len(coverage) == n * (n - 1) // 2
            assert set(coverage.values()) == {1}
        for n in range(4, 65, 2):
            report = validate(build(n))
            assert report.ok, (n, report.violations)
            coverage = _pair_coverage(report)
            assert len(coverage) == n * (n - 1) // 2
            doubled = [p for p, c in coverage.items() if c == 2]
            assert len(doubled) == n // 2 - 1
            assert all(c in (1, 2) for c in coverage.values())


def test_criterion_4_group_properties():
    with criterion("4: cycle counts, spacing, smallest elements, and 2-cycles for n <= 64"):
        for n in range(2, 65):
            for j in range(1, n):
                cycles = cycle_decomposition(n, j)
                g = gcd(n, j)
                assert len(cycles) == g
                for cyc in cycles:
                    assert all((e - cyc[0]) % g == 0 for e in cyc)
            if n % 2 == 0:
                total = 0
                for j in range(1, n // 2 + 1):
                    cycles = cycle_decomposition(n, j)
                    total += sum(len(c) for c in cycles)
                    assert all(c[0] <= n // 2 - 1 for c in cycles)
                    all_two = all(len(c) == 2 for c in cycles)
                    assert all_two == (j == n // 2)
                assert total == n * (n // 2)


def test_criterion_5_sort_oracle_thousand_runs():
    with criterion("5: 1000 seeded random sorts match the counting oracle exactly"):
        rng = random.Random(20260810)
        layouts = {}
        start = time.perf_counter()
        for i in range(1000):
            n = 3 + (i % 31)  # cycles through 3..33
            layout = layouts.setdefault(n, build(n))
            values = [rng.randrange(0, n) for _ in range(n)]  # duplicates guaranteed
            _, ranks, _ = sort(layout, values)
            assert list(ranks) == oracle_ranks(values)
            assert sorted(ranks) == list(range(n))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"1000 sorts took {elapsed:.3f}s"


def test_criterion_6_constant_phases_and_benign_conflicts():
    with criterion("6: phase count is one constant; conflicts only on even n, n/2-1 of them"):
        rng = random.Random(7)
        counts = set()
        for n in range(3, 34):
            values = [rng.randrange(0, n) for _ in range(n)]
            _, _, trace = sort(build(n), values)
            counts.add(phase_count(trace))
            conflicts = detect_write_conflicts(trace)
            if n % 2:
                assert conflicts == []
            else:
                assert len(conflicts) == n // 2 - 1
                for _, _, writers in conflicts:
                    assert len(writers) == 2  # one duplicate comparison per doubled pair
        assert counts == {7}


def test_criterion_7_circuit_oracles():
    with criterion("7: min/max circuits match argmin/argmax; rank counters match popcount"):
        rng = random.Random(123)
        layouts = {}
        for _ in range(500):
            n = rng.randrange(3, 34)
            layout = layouts.setdefault(n, build(n))
            values = [rng.randrange(0, n + 3) for _ in range(n)]
            t, _, _ = sort(layout, values)
            assert min_index(t) == argmin_index(values)
            assert max_index(t) == argmax_index(values)

        # Exhaustive popcount check, pattern p in lane p. The all-ones row is
        # excluded: count n has no detector by construction and no matrix row
        # reaches it (zero diagonal).
        for n in range(2, 13):
            net = build_ones_counter(n)
            patterns = range(2 ** n - 1)
            out = evaluate(net, pack_lanes(patterns, n), lanes=len(patterns))
            nbits = max(1, (n - 1).bit_length())
            got = lane_values(out, nbits, len(patterns))
            want = [bin(v).count("1") for v in patterns]
            assert got == want, f"popcount mismatch at n={n}"

        rng64 = random.Random(20260810)
        rows = [rng64.getrandbits(64) for _ in range(10_000)]
        out = evaluate(build_ones_counter(64), pack_lanes(rows, 64), lanes=len(rows))
        got = lane_values(out, 6, len(rows))
        assert got == [bin(row).count("1") for row in rows]


# Per-adder depth margin of the carry-prefix cell structure, measured once
# on the built popcount trees: depth(tree for n inputs) never exceeds
# ceil(lg n) * (2 * ceil(lg ceil(lg n)) + this constant).
ADDER_TREE_DEPTH_MARGIN = 2


def test_criterion_8_depth_claims():
    with criterion("8: constant unbounded depths; exact fan-in-2 formula; adder-tree bound"):
        min_unbounded = set()
        max_unbounded = set()
        rank_unbounded = set()
        # Min, max and threshold-rank as `xbar depth` reports them: n row
        # copies, then the encoder (test_properties checks these reports
        # against the n-row reference netlists).
        for n in (4, 8, 16, 32, 64):
            du = series_depth(min_stages(n)).depth
            min_unbounded.add(du)
            assert du <= 2
            dm = series_depth(max_stages(n)).depth
            max_unbounded.add(dm)
            assert dm <= 2
            dr = series_depth(threshold_rank_stages(n)).depth
            rank_unbounded.add(dr)
            assert dr <= 4 + 1  # counter stages plus the encoder level
            lg = int(math.log2(n))
            d2 = series_depth(min_stages(n), 2).depth
            assert d2 == lg + (lg - 1), (n, d2)
            assert series_depth(max_stages(n), 2).depth == lg + (lg - 1)
            tree = depth(build_popcount_tree(n), 2).depth
            bound = lg * (2 * math.ceil(math.log2(lg)) + ADDER_TREE_DEPTH_MARGIN)
            assert tree <= bound, (n, tree, bound)
        assert len(min_unbounded) == 1
        assert len(max_unbounded) == 1
        assert len(rank_unbounded) == 1


def test_criterion_9_probabilistic_rank_test():
    with criterion("9: chunked rank test misses at the analytic rate (3 sigma, 1e5 rows)"):
        _, analytic8 = rank_at_least_probabilistic([0] * 8, 2, 2)
        assert analytic8 == Fraction(81, 256)
        rng = random.Random(20260810)
        samples = 100_000
        for n in (8, 16, 24):
            p = float(Fraction(3 ** (n // 2), 2 ** n))
            misses = 0
            for _ in range(samples):
                word = rng.getrandbits(n)
                row = [(word >> i) & 1 for i in range(n)]
                verdict, miss_odds = rank_at_least_probabilistic(row, 2, 2)
                if not verdict:
                    misses += 1
            assert miss_odds == Fraction(3 ** (n // 2), 2 ** n)
            freq = misses / samples
            sigma = math.sqrt(p * (1 - p) / samples)
            assert abs(freq - p) <= 3 * sigma, (n, freq, p, 3 * sigma)
