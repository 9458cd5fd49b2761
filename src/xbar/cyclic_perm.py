"""Exact arithmetic on the cyclic shift group over n class ids.

The generator sends class i to (i + 1) mod n, so its j-th power sends i
to (i + j) mod n.  That power splits into g = gcd(n, j) disjoint cycles of
n/g elements each, and cycle i < g is i, i + j, i + 2j, ... mod n: its
elements are all congruent to i mod g, so it starts at its smallest.

`shift_cycles` yields those cycles as ranges, to be read mod n, and
`q_groups` groups the cycles of the powers 1..n/2 by smallest element (the
Q partition), the raw material of the crosspoint-array layouts in
`array_builder`.  `partition_Q` reads each of those cycles in one slice
(`cycle_reader`); `cycle_decomposition` spells one power's cycles out.
"""

from collections.abc import Callable, Sequence
from math import gcd


def shift_cycles(n: int, j: int) -> list[range]:
    """The cycles of the j-th shift power on n class ids, ordered by smallest element.

    Cycle i < g = gcd(n, j) is range(i, i + n // g * j, j), read mod n; it
    starts at its smallest element, i.
    """
    g = gcd(n, j)
    span = n // g * j
    return [range(i, i + span, j) for i in range(g)]


def q_groups(m: int) -> list[list[range]]:
    """The cycles of the shift powers 1..m/2 on an even m >= 2 ids, grouped by smallest element.

    Group i holds the cycle of each power j <= m/2 with i < gcd(m, j), by
    ascending j, as ranges read mod m.  Every such cycle starts below m/2, so
    m/2 groups come out, and the one 2-element cycle of each group, from
    power m/2, comes last.
    """
    groups: list[list[range]] = [[] for _ in range(m // 2)]
    for j in range(1, m // 2 + 1):
        for group, cycle in zip(groups, shift_cycles(m, j)):
            group.append(cycle)
    return groups


def cycle_reader(ids: Sequence) -> Callable[[range], tuple]:
    """The function that reads a range of q_groups(m), m = len(ids), as the tuple of its ids.

    Cycle i < g of power j <= m/2 stops below g + m * j <= m * (m/2 + 1), as g divides j, so
    `ids` repeated m/2 + 1 times holds all it reaches; too short a tuple cuts slices short silently.
    """
    unrolled = tuple(ids) * (len(ids) // 2 + 1)
    return lambda cycle: unrolled[cycle.start:cycle.stop:cycle.step]


def cycle_decomposition(n: int, j: int) -> list[tuple[int, ...]]:
    """Disjoint cycles of the j-th shift power on n >= 2 class ids (1 <= j <= n).

    Each cycle is a tuple written smallest-element-first, and the list is
    ordered by first element; j == n, the identity, gives n 1-cycles.
    """
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    if not 1 <= j <= n:
        raise ValueError(f"exponent must lie in 1..{n}, got j={j}")
    return [tuple(e % n for e in cycle) for cycle in shift_cycles(n, j)]


def partition_Q(n: int, ids: Sequence | None = None) -> list[list[tuple]]:
    """The Q partition for even n >= 4: `q_groups(n)` with each cycle as the tuple of its
    class ids, or of ids[c] for each class c when `ids` is given."""
    if n % 2:
        raise ValueError(f"Q partition is defined for even n, got {n}")
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    read = cycle_reader(range(n) if ids is None else ids)
    return [list(map(read, group)) for group in q_groups(n)]
