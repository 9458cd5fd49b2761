from math import gcd

import pytest

from xbar.cyclic_perm import Cycle, Permutation, cycle_decomposition, partition_Q, power

from oracles import brute_cycles, cycle_decomposition_reference


def test_power_full_exponent_is_identity():
    p = power(12, 12)
    assert [p.apply(i) for i in range(12)] == list(range(12))


def test_power_single_long_cycle():
    cycles = cycle_decomposition(power(12, 5))
    assert len(cycles) == 1
    assert cycles[0].elements == (0, 5, 10, 3, 8, 1, 6, 11, 4, 9, 2, 7)


def test_power_half_exponent_gives_transpositions():
    cycles = cycle_decomposition(power(6, 3))
    assert [c.elements for c in cycles] == [(0, 3), (1, 4), (2, 5)]


def test_power_rejects_bad_arguments():
    for make in (power, Permutation):
        with pytest.raises(ValueError, match=r"^need at least 2 classes, got n=1$"):
            make(1, 1)
        with pytest.raises(ValueError, match=r"^exponent must lie in 1\.\.12, got j=0$"):
            make(12, 0)
        with pytest.raises(ValueError, match=r"^exponent must lie in 1\.\.12, got j=13$"):
            make(12, 13)


def test_decomposition_matches_figures():
    assert [c.elements for c in cycle_decomposition(power(12, 2))] == [
        (0, 2, 4, 6, 8, 10),
        (1, 3, 5, 7, 9, 11),
    ]
    assert [c.elements for c in cycle_decomposition(power(12, 4))] == [
        (0, 4, 8),
        (1, 5, 9),
        (2, 6, 10),
        (3, 7, 11),
    ]


@pytest.mark.parametrize("n", [2, 3, 7, 10, 16])
def test_generator_is_one_full_cycle(n):
    cycles = cycle_decomposition(power(n, 1))
    assert len(cycles) == 1
    assert len(cycles[0].elements) == n


@pytest.mark.parametrize("n", [4, 6, 9, 12, 15, 20])
def test_decomposition_matches_brute_force(n):
    for j in range(1, n + 1):
        ours = sorted(c.elements for c in cycle_decomposition(power(n, j)))
        assert ours == brute_cycles(n, j)


def test_decomposition_matches_stepping_reference():
    for n in range(2, 65):
        for j in range(1, n + 1):
            perm = Permutation(n, j)
            assert cycle_decomposition(perm) == cycle_decomposition_reference(perm), (n, j)


def test_cycle_length_counts_elements():
    assert len(Cycle((0, 2, 4), 2)) == 3
    assert len(Cycle((0, 3), 3)) == 2


def test_replace_rebuilds_through_the_constructor():
    assert Permutation(5, 2)._replace(j=4) == Permutation(5, 4)
    with pytest.raises(ValueError, match=r"^exponent must lie in 1\.\.5, got j=9$"):
        Permutation(5, 2)._replace(j=9)
    cyc = Cycle((0, 2, 4), 2)._replace(exponent=3)
    assert type(cyc) is Cycle and cyc == Cycle((0, 2, 4), 3)


def test_decomposition_cycle_metadata():
    for cyc in cycle_decomposition(power(18, 4)):
        assert cyc.exponent == 4
        assert cyc.first == min(cyc.elements)
        for a, b in zip(cyc.elements, cyc.elements[1:]):
            assert (a + 4) % 18 == b


def test_partition_twelve():
    part = partition_Q(12)
    assert len(part.sets) == 6
    q0 = [c.elements for c in part.sets[0]]
    assert len(q0) == 6
    assert q0[0] == tuple(range(12))
    assert q0[1] == (0, 2, 4, 6, 8, 10)
    assert q0[-1] == (0, 6)
    assert [c.elements for c in part.sets[5]] == [(5, 11)]


def test_partition_six():
    part = partition_Q(6)
    assert [[c.elements for c in g] for g in part.sets] == [
        [(0, 1, 2, 3, 4, 5), (0, 2, 4), (0, 3)],
        [(1, 3, 5), (1, 4)],
        [(2, 5)],
    ]


def test_partition_four():
    # Cross-checked against the brute-force cycle scan of the two powers.
    assert brute_cycles(4, 1) == [(0, 1, 2, 3)]
    assert brute_cycles(4, 2) == [(0, 2), (1, 3)]
    part = partition_Q(4)
    assert [[c.elements for c in g] for g in part.sets] == [
        [(0, 1, 2, 3), (0, 2)],
        [(1, 3)],
    ]


def test_partition_rejects_odd_and_tiny():
    with pytest.raises(ValueError):
        partition_Q(7)
    with pytest.raises(ValueError):
        partition_Q(2)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 14, 24])
def test_partition_properties(n):
    part = partition_Q(n)
    assert len(part.sets) == n // 2
    # Union of the groups is the full multiset of cycles of the n/2 powers.
    total = sum(len(c.elements) for g in part.sets for c in g)
    assert total == n * (n // 2)
    for i, group in enumerate(part.sets):
        assert all(c.first == i for c in group)
        two_cycles = [c for c in group if len(c.elements) == 2]
        assert len(two_cycles) == 1
        assert group[-1] is two_cycles[0]
        assert two_cycles[0].exponent == n // 2
        exps = [c.exponent for c in group]
        assert exps == sorted(exps)  # deterministic ascending-exponent order


@pytest.mark.parametrize("n", list(range(2, 25)))
def test_group_counting_properties(n):
    for j in range(1, n):
        cycles = cycle_decomposition(Permutation(n, j))
        g = gcd(n, j)
        assert len(cycles) == g
        for cyc in cycles:
            assert all((e - cyc.first) % g == 0 for e in cyc.elements)
            assert len(cyc.elements) >= 2
