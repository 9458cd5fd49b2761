from math import gcd

import pytest

from xbar.cyclic_perm import cycle_decomposition, partition_Q

from oracles import brute_cycles, cycle_decomposition_reference, exponent


def test_power_full_exponent_is_identity():
    assert cycle_decomposition(12, 12) == [(i,) for i in range(12)]


def test_power_single_long_cycle():
    cycles = cycle_decomposition(12, 5)
    assert len(cycles) == 1
    assert cycles[0] == (0, 5, 10, 3, 8, 1, 6, 11, 4, 9, 2, 7)


def test_power_half_exponent_gives_transpositions():
    assert cycle_decomposition(6, 3) == [(0, 3), (1, 4), (2, 5)]


def test_power_rejects_bad_arguments():
    with pytest.raises(ValueError, match=r"^need at least 2 classes, got n=1$"):
        cycle_decomposition(1, 1)
    with pytest.raises(ValueError, match=r"^exponent must lie in 1\.\.12, got j=0$"):
        cycle_decomposition(12, 0)
    with pytest.raises(ValueError, match=r"^exponent must lie in 1\.\.12, got j=13$"):
        cycle_decomposition(12, 13)


def test_decomposition_matches_figures():
    assert cycle_decomposition(12, 2) == [
        (0, 2, 4, 6, 8, 10),
        (1, 3, 5, 7, 9, 11),
    ]
    assert cycle_decomposition(12, 4) == [
        (0, 4, 8),
        (1, 5, 9),
        (2, 6, 10),
        (3, 7, 11),
    ]


@pytest.mark.parametrize("n", [2, 3, 7, 10, 16])
def test_generator_is_one_full_cycle(n):
    cycles = cycle_decomposition(n, 1)
    assert len(cycles) == 1
    assert len(cycles[0]) == n


@pytest.mark.parametrize("n", [4, 6, 9, 12, 15, 20])
def test_decomposition_matches_brute_force(n):
    for j in range(1, n + 1):
        ours = sorted(cycle_decomposition(n, j))
        assert ours == brute_cycles(n, j)


def test_decomposition_matches_stepping_reference():
    for n in range(2, 65):
        for j in range(1, n + 1):
            assert cycle_decomposition(n, j) == cycle_decomposition_reference(n, j), (n, j)


def test_decomposition_cycle_metadata():
    for cyc in cycle_decomposition(18, 4):
        assert exponent(cyc, 18) == 4
        assert cyc[0] == min(cyc)
        for a, b in zip(cyc, cyc[1:]):
            assert (a + 4) % 18 == b


def test_partition_twelve():
    groups = partition_Q(12)
    assert len(groups) == 6
    q0 = groups[0]
    assert len(q0) == 6
    assert q0[0] == tuple(range(12))
    assert q0[1] == (0, 2, 4, 6, 8, 10)
    assert q0[-1] == (0, 6)
    assert groups[5] == [(5, 11)]


def test_partition_six():
    assert partition_Q(6) == [
        [(0, 1, 2, 3, 4, 5), (0, 2, 4), (0, 3)],
        [(1, 3, 5), (1, 4)],
        [(2, 5)],
    ]


def test_partition_four():
    # Cross-checked against the brute-force cycle scan of the two powers.
    assert brute_cycles(4, 1) == [(0, 1, 2, 3)]
    assert brute_cycles(4, 2) == [(0, 2), (1, 3)]
    assert partition_Q(4) == [
        [(0, 1, 2, 3), (0, 2)],
        [(1, 3)],
    ]


def test_partition_rejects_odd_and_tiny():
    with pytest.raises(ValueError, match=r"^Q partition is defined for even n, got 7$"):
        partition_Q(7)
    with pytest.raises(ValueError, match=r"^need n >= 4, got 2$"):
        partition_Q(2)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 14, 24])
def test_partition_properties(n):
    groups = partition_Q(n)
    assert len(groups) == n // 2
    # Union of the groups is the full multiset of cycles of the n/2 powers.
    total = sum(len(c) for g in groups for c in g)
    assert total == n * (n // 2)
    for i, group in enumerate(groups):
        assert all(c[0] == i for c in group)
        two_cycles = [c for c in group if len(c) == 2]
        assert len(two_cycles) == 1
        assert group[-1] is two_cycles[0]
        assert exponent(two_cycles[0], n) == n // 2
        exps = [exponent(c, n) for c in group]
        assert exps == sorted(exps)  # deterministic ascending-exponent order


@pytest.mark.parametrize("n", list(range(2, 25)))
def test_group_counting_properties(n):
    for j in range(1, n):
        cycles = cycle_decomposition(n, j)
        g = gcd(n, j)
        assert len(cycles) == g
        for cyc in cycles:
            assert all((e - cyc[0]) % g == 0 for e in cyc)
            assert len(cyc) >= 2
