"""Exact arithmetic on the cyclic shift group over n class ids.

The generator sends class i to (i + 1) mod n.  Its powers, their
disjoint-cycle decompositions, and the grouping of those cycles by
smallest element (the Q partition) are the raw material from which
crosspoint-array layouts are built.

Permutations are stored as the pair (n, j) and applied on demand, so
very large n stays cheap.
"""

from math import gcd
from typing import NamedTuple


class _Shift(NamedTuple):
    n: int
    j: int


class Permutation(_Shift):
    """The j-th power of the cyclic shift on {0, ..., n-1}: i -> (i + j) mod n.

    j runs from 1 to n; j == n is the identity.
    """

    __slots__ = ()

    def __new__(cls, n: int, j: int):
        if n < 2:
            raise ValueError(f"need at least 2 classes, got n={n}")
        if not 1 <= j <= n:
            raise ValueError(f"exponent must lie in 1..{n}, got j={j}")
        return super().__new__(cls, n, j)

    def apply(self, i: int) -> int:
        return (i + self.j) % self.n


class Cycle(NamedTuple):
    """One cycle of a shift power, rotated so the smallest class id comes first.

    `exponent` is the j of the owning power; consecutive elements differ
    by j mod n.  `len` counts the elements, not the record's two fields.
    """

    elements: tuple[int, ...]
    exponent: int

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def first(self) -> int:
        return self.elements[0]


# `_replace` builds through `_make`; the constructor keeps Permutation's range
# checks, and skips the field count that Cycle's `__len__` (elements) would fail.
Permutation._make = Cycle._make = classmethod(lambda cls, fields: cls(*fields))


class QPartition(NamedTuple):
    """Cycles of the powers 1..n/2, grouped by their smallest element.

    ``sets[i]`` holds every cycle whose first element is i, ordered by
    ascending exponent; the unique 2-element cycle (from the n/2-th power)
    is therefore always last in its group.
    """

    n: int
    sets: tuple[tuple[Cycle, ...], ...]


def power(n: int, j: int) -> Permutation:
    """The j-th power of the cyclic shift on n class ids (1 <= j <= n)."""
    return Permutation(n, j)


def cycle_decomposition(perm: Permutation) -> list[Cycle]:
    """Disjoint cycles of `perm`, each written smallest-element-first.

    There are exactly g = gcd(n, j) cycles, each of n/g elements.  Cycle
    `start` is start + k*j mod n for k < n/g; its elements are all
    congruent to start mod g and start < g, so it comes out smallest-first,
    and the returned list is ordered by first element.
    """
    n, j = perm.n, perm.j
    g = gcd(n, j)
    return [Cycle(tuple([x % n for x in range(start, start + (n // g) * j, j)]), j)
            for start in range(g)]


def partition_Q(n: int) -> QPartition:
    """Group the cycles of the first n/2 shift powers by smallest element.

    Requires even n >= 4.  Every cycle of the powers 1..n/2 starts at a
    class id below n/2, so exactly n/2 groups come out, and each group
    ends with its single 2-element cycle.
    """
    if n % 2:
        raise ValueError(f"Q partition is defined for even n, got {n}")
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    sets: list[list[Cycle]] = [[] for _ in range(n // 2)]
    for j in range(1, n // 2 + 1):
        for cyc in cycle_decomposition(Permutation(n, j)):
            sets[cyc.first].append(cyc)
    return QPartition(n, tuple(tuple(group) for group in sets))
