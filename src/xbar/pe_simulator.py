"""Phase-synchronous simulation of the parallel enumeration sort.

The machine runs a fixed seven-phase schedule regardless of n:

    clear, load,                      (initialization)
    left_exchange, left_reply,        (crosspoints whose greater class sits right)
    right_exchange, right_reply,      (crosspoints whose greater class sits left)
    rank                              (row sums)

At every crosspoint the slot holding the greater class id ships its
value to the smaller-class neighbor; the smaller-class slot compares and
either claims the win itself (writes comparison_matrix[small][big], replies 0)
or replies 1 so the neighbor writes comparison_matrix[big][small].  Ties go to
the smaller class id.  The left and right sub-phases are this one
operation mirrored: they differ only in the direction the value travels.
All sends in a sub-phase read pre-phase state and all writes commit at the
sub-phase end, so the run is deterministic.  A run is one `SortTrace`:
each stage takes it and returns it with one more field set, `load_phase`
making it, `compare_phase` setting the matrix `bits` and `rank_phase` the
row-sum `ranks`.  Its `phases` name the phases those fields show were run.
`compare_phase` rejects a crosspoint joining two slots of one class after
its walk, by the diagonal cell only such a crosspoint writes.  The matrix
is one `bytes` row per class, its cells 0/1, so `rank_phase` counts each
row's ones in C.  The trace's events, and their text, are derived on
demand from those fields by `trace_text`, which `SortTrace.events` and
`SortTrace.write` import when called: a run whose trace is never read
or written does not load it.

The final matrix satisfies bits[i][k] = 1 iff A[k] < A[i], or A[k] == A[i]
with k < i; row sums are therefore the ranks of a stable sort.
"""

from itertools import compress, count, islice
from operator import eq, getitem
from typing import NamedTuple, Sequence

from .array_builder import Layout

PHASE_NAMES = (
    "clear",
    "load",
    "left_exchange",
    "left_reply",
    "right_exchange",
    "right_reply",
    "rank",
)


class SortTrace(NamedTuple):
    """One run of the machine: its inputs and the result of each stage run.

    `bits` (the comparison matrix) is None until the compare phase has
    run and `ranks` is None until the rank phase has.  The phase-by-phase
    record of what every slot did is derived from these on demand.
    """

    layout: Layout
    values: tuple[int, ...]
    bits: tuple[bytes, ...] | None = None
    ranks: tuple[int, ...] | None = None

    @property
    def phases(self) -> tuple[str, ...]:
        return PHASE_NAMES[:phase_count(self)]

    def events(self):
        """An iterator of (phase name, event) over every event of the stages run, in order."""
        from .trace_text import events
        return events(self)

    def write(self, jsonl=None, csv=None) -> None:
        """Stream the trace as JSON lines to `jsonl` or as CSV to `csv`: `trace_text.write`."""
        from .trace_text import write
        write(self, jsonl, csv)


def _reject_shared(slots: Sequence[int]) -> None:
    """Raise at the first crosspoint whose two slots host the same class."""
    for s in compress(count(), map(eq, slots, islice(slots, 1, None))):
        raise ValueError(f"adjacent slots {s},{s + 1} share class {slots[s]}; cannot compare")


def load_phase(layout: Layout, values: Sequence[int]) -> SortTrace:
    """Broadcast values[i] to every slot of class i and zero the matrix.

    Counts as two phases: one master clear per matrix row, then the
    bus broadcast that drops the same value on all replicates of a class.
    """
    if len(values) != layout.n:
        raise ValueError(f"got {len(values)} values for {layout.n} classes")
    for v in values:
        if type(v) is not int:
            raise ValueError(f"value {v!r} is a {type(v).__name__}, not an int")
    for c in layout.slots:
        if type(c) is not int or not 0 <= c < layout.n:
            raise ValueError(f"class id {c!r} is not an int in 0..{layout.n - 1}")
    return SortTrace(layout, tuple(values))


def compare_phase(state: SortTrace) -> SortTrace:
    """Run the four exchange/reply sub-phases over every crosspoint; sets `bits`.

    Each crosspoint performs exactly one comparison, so a run makes
    slots - 1 comparisons total.  Redundant adjacencies (even n) write
    the same cell twice with the same value; the trace keeps both writes
    for conflict accounting.  Only a crosspoint joining two slots of one class
    writes the diagonal; a set diagonal cell raises ValueError naming the first.
    """
    vals, slots = state.values, state.layout.slots
    t = [bytearray(len(vals)) for _ in vals]
    for small, big in zip(slots, islice(slots, 1, None)):
        if small > big:
            small, big = big, small
        if vals[big] < vals[small]:
            t[small][big] = 1
        else:
            t[big][small] = 1
    if any(map(getitem, t, count())):
        _reject_shared(slots)
    return state._replace(bits=tuple(map(bytes, t)))


def rank_phase(state: SortTrace) -> SortTrace:
    """Rank of element i = the ones in matrix row i; sets `ranks`."""
    return state._replace(ranks=tuple([row.count(1) for row in state.bits]))


def sort(layout: Layout, values: Sequence[int]) -> tuple[tuple, tuple, SortTrace]:
    """Full run: load, compare, rank; returns the trace's `bits`, its `ranks` and the trace.

    The layout must cover every class pair.  Placing values[i] at output
    position ranks[i] yields a non-decreasing sequence; equal keys keep
    ascending index order.  Every covered pair sets exactly one matrix
    cell, so ranks summing to less than n(n-1)/2 expose a layout that
    misses a pair; that raises ValueError.
    """
    trace = rank_phase(compare_phase(load_phase(layout, values)))
    pairs = layout.n * (layout.n - 1) // 2
    covered = sum(trace.ranks)
    if covered != pairs:
        raise ValueError(f"layout misses {pairs - covered} of its {pairs} class pairs")
    return trace.bits, trace.ranks, trace


def phase_count(trace: SortTrace) -> int:
    """Number of synchronous phases executed; the same constant for every n."""
    if trace.bits is None:
        return 2
    return 6 if trace.ranks is None else 7


def detect_write_conflicts(trace: SortTrace) -> list[tuple[int, int, tuple[int, ...]]]:
    """Matrix cells written by more than one slot during the compare phases.

    Every crosspoint writes one cell and a pair's crosspoints all write the
    same one, so a trace from `compare_phase` has doubled writes exactly when
    its matrix holds fewer set cells than its slots - 1 crosspoints; an
    equal count returns [] at once.  Layouts that cover every pair exactly
    once never conflict; even-n layouts produce exactly n/2 - 1 doubled
    cells, each written with the same value from both sides (benign).
    Otherwise one walk, shaped like `compare_phase`'s, finds the doubled pairs;
    their writers are listed in the order the trace commits them: the left
    sub-phases before the right ones.
    """
    bits, slots, n = trace.bits, trace.layout.slots, trace.layout.n
    if bits is None or sum([row.count(1) for row in bits]) == len(slots) - 1:
        return []
    # Pair small < big marks seen[small][big]; two slots of one class mark the diagonal.
    seen, doubled = [bytearray(n) for _ in range(n)], set()
    for small, big in zip(slots, islice(slots, 1, None)):
        if small > big:
            small, big = big, small
        marks = seen[small]
        if marks[big]:
            doubled.update(((small, big), (big, small)))
        marks[big] = 1
    if any(map(getitem, seen, count())):
        _reject_shared(slots)
    points = compress(count(), map(doubled.__contains__, zip(slots, islice(slots, 1, None))))
    writers: dict[tuple[int, int], list[int]] = {}
    # A left crosspoint has its greater class on the right; the left sub-phases commit first.
    for s in sorted(points, key=lambda s: slots[s] > slots[s + 1]):
        small, big = sorted(slots[s:s + 2])
        row = small if bits[small][big] else big
        writers.setdefault((row, small + big - row), []).append(s if slots[s] == row else s + 1)
    return sorted((row, col, tuple(slot_list)) for (row, col), slot_list in writers.items())
