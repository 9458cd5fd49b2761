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
sub-phase end, so the run is deterministic.  A run computes only the matrix
and the ranks; its trace is derived on demand from the layout, the values,
the matrix and the ranks, one group of events per class, slot or crosspoint.
`to_jsonl` and `to_csv` fill one %-template per group form; the lines equal
`json.dumps` and `csv.writer` output, as every payload is an exact int.

The final matrix satisfies bits[i][k] = 1 iff A[k] < A[i], or A[k] == A[i]
with k < i; row sums are therefore the ranks of a stable sort.
"""

import json
from collections import Counter
from operator import itemgetter
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


class TraceEvent(NamedTuple):
    slot: int
    action: str
    value: int | None = None
    row: int | None = None
    col: int | None = None


# The trace format: one row per event, its phase name then the event's
# fields.  Both serialisers write exactly these columns in this order.
COLUMNS = ("phase", *TraceEvent._fields)


class TracePhase(NamedTuple):
    name: str
    events: tuple[TraceEvent, ...]


class SortTrace(NamedTuple):
    """One run of the machine: its inputs and the result of each stage run.

    `bits` (the comparison matrix) is None until the compare phase has
    run and `ranks` is None until the rank phase has.  The phase-by-phase
    record of what every slot did is derived from these on demand.
    """

    layout: Layout
    values: tuple[int, ...]
    bits: tuple[tuple[int, ...], ...] | None = None
    ranks: tuple[int, ...] | None = None

    @property
    def key_bits(self) -> int:
        return max((abs(v).bit_length() for v in self.values), default=0)

    @property
    def phases(self) -> tuple[TracePhase, ...]:
        by_name = {name: [] for name in PHASE_NAMES[:phase_count(self)]}
        for name, ev in self.events():
            by_name[name].append(ev)
        return tuple(TracePhase(name, tuple(evs)) for name, evs in by_name.items())

    def _groups(self, per_form):
        """Yield (per_form(form), ints) per class, slot and crosspoint, in trace order."""
        slots, vals, bits = self.layout.slots, self.values, self.bits
        first = {c: s for s, c in reversed(list(enumerate(slots)))}
        clear, load, rank = map(per_form, (_CLEAR, _LOAD, _RANK))
        for c in sorted(first):
            yield clear, (first[c], c)
        for s, c in enumerate(slots):
            yield load, (s, vals[c], c)
        if bits is None:
            return
        crosspoints = list(_crosspoints(slots))
        for left, *forms in _DIRECTIONS:
            exchange, win, lose = map(per_form, forms)
            points = [p for p in crosspoints if (p[2] < p[3]) == left]
            for small, big, small_slot, big_slot in points:
                yield exchange, (big_slot, vals[big], small_slot, vals[big])
            for small, big, small_slot, big_slot in points:
                if bits[small][big]:
                    yield win, (small_slot, 1, small, big, small_slot, 0, big_slot, 0)
                else:
                    yield lose, (small_slot, 1, big_slot, 1, big_slot, 1, big, small)
        for i, r in enumerate(self.ranks or ()):
            yield rank, (first[i], r, i)

    def events(self):
        """Yield (phase name, event) for every event of the stages run, in order."""
        new = tuple.__new__  # fills a TraceEvent from one C call, not its Python __new__
        for (phase, tail, getters), ints in self._groups(_recipe):
            ints += tail
            for fields in getters:
                yield phase, new(TraceEvent, fields(ints))

    def _render(self, line) -> str:
        """Fill each group's form template, made of line(phase, action, cols) per line."""
        groups = self._groups(lambda form: "".join(line(form[0], *ac) for ac in form[1]))
        return "".join([template % ints for template, ints in groups])

    def to_jsonl(self) -> str:
        """One JSON object per event over COLUMNS, leaving out absent payload keys."""
        return self._render(lambda phase, action, cols: (
            f'{{"phase": {json.dumps(phase)}, "slot": %d, "action": {json.dumps(action)}'
            + "".join(f', "{k}": %d' for k in cols) + "}\n"))

    def to_csv(self) -> str:
        """A COLUMNS header, then one row per event; absent payload fields are empty."""
        return ",".join(COLUMNS) + "\r\n" + self._render(lambda phase, action, cols: (
            f"{phase},%d,{action}" + "".join(",%d" if k in cols else "," for k in COLUMNS[3:])
            + "\r\n"))


class ComparisonMatrix(NamedTuple):
    """n x n 0/1 matrix; bits[i][k] = 1 records that element k lost to element i."""

    bits: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.bits)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.bits)

    def to_text(self) -> str:
        """Row-per-line 0/1 grid."""
        return "\n".join("".join(str(b) for b in row) for row in self.bits) + "\n"


class RankVector(NamedTuple):
    ranks: tuple[int, ...]

    def order(self) -> tuple[int, ...]:
        """Element indices in ascending sorted order (inverse of `ranks`)."""
        out = [0] * len(self.ranks)
        for i, r in enumerate(self.ranks):
            out[r] = i
        return tuple(out)


# A form is a group's phase and each line's (action, payload columns); the group's
# ints are each line's slot, then its payload.  Per direction (small_slot < big_slot:
# the greater class sits right): exchange, then reply on a win and a loss of small.
_CLEAR = ("clear", (("clear_row", ("row",)),))
_LOAD = ("load", (("load", ("value", "row")),))
_RANK = ("rank", (("rank", ("value", "row")),))
_DIRECTIONS = tuple(
    (left, (f"{side}_exchange", ((send, ("value",)), (recv, ("value",)))),
     (f"{side}_reply", (("twrite", COLUMNS[3:]), (signal, ("value",)), (receipt, ("value",)))),
     (f"{side}_reply", ((signal, ("value",)), (receipt, ("value",)), ("twrite", COLUMNS[3:]))))
    for left, side, send, recv, signal, receipt in (
        (True, "left", "send_left", "recv_right", "signal_send_right", "signal_recv_left"),
        (False, "right", "send_right", "recv_left", "signal_send_left", "signal_recv_right")))


def _recipe(form):
    """A form's phase, its ints tail (its actions, then None) and per line its event getter."""
    tail, k, getters = (*(action for action, _ in form[1]), None), 0, []
    for j, (_, cols) in enumerate(form[1]):
        payload = (k + 1 + cols.index(c) if c in cols else -1 for c in COLUMNS[3:])
        getters.append(itemgetter(k, j - len(tail), *payload))
        k += 1 + len(cols)
    return form[0], tail, getters


def _crosspoints(slots: Sequence[int]):
    """Yield (small, big, small_slot, big_slot) for each crosspoint, left to right."""
    for s, (a, b) in enumerate(zip(slots, slots[1:])):
        if a == b:
            raise ValueError(f"adjacent slots {s},{s + 1} share class {a}; cannot compare")
        yield (a, b, s, s + 1) if a < b else (b, a, s + 1, s)


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


def compare_phase(state: SortTrace) -> tuple[ComparisonMatrix, SortTrace]:
    """Run the four exchange/reply sub-phases over every crosspoint.

    Each crosspoint performs exactly one comparison, so a run makes
    slots - 1 comparisons total.  Redundant adjacencies (even n) write
    the same cell twice with the same value; the trace keeps both writes
    for conflict accounting.
    """
    vals = state.values
    t = [[0] * len(vals) for _ in vals]
    for small, big, _, _ in _crosspoints(state.layout.slots):
        if vals[big] < vals[small]:
            t[small][big] = 1
        else:
            t[big][small] = 1
    bits = tuple(map(tuple, t))
    return ComparisonMatrix(bits), state._replace(bits=bits)


def rank_phase(matrix: ComparisonMatrix) -> RankVector:
    """Rank of element i = sum of matrix row i."""
    return RankVector(matrix.row_sums())


def sort(layout: Layout, values: Sequence[int]) -> tuple[ComparisonMatrix, RankVector, SortTrace]:
    """Full run: load, compare, rank.  The layout must cover every class pair.

    Placing values[i] at output position ranks[i] yields a non-decreasing
    sequence; equal keys keep ascending index order.  Every covered pair
    sets exactly one matrix cell, so ranks summing to less than n(n-1)/2
    expose a layout that misses a pair; that raises ValueError.
    """
    matrix, trace = compare_phase(load_phase(layout, values))
    ranks = rank_phase(matrix)
    pairs = layout.n * (layout.n - 1) // 2
    covered = sum(ranks.ranks)
    if covered != pairs:
        raise ValueError(f"layout misses {pairs - covered} of its {pairs} class pairs")
    return matrix, ranks, trace._replace(ranks=ranks.ranks)


def phase_count(trace: SortTrace) -> int:
    """Number of synchronous phases executed; the same constant for every n."""
    if trace.bits is None:
        return 2
    return 6 if trace.ranks is None else 7


def detect_write_conflicts(trace: SortTrace) -> list[tuple[int, int, tuple[int, ...]]]:
    """Matrix cells written by more than one slot during the compare phases.

    Layouts that cover every pair exactly once never conflict; even-n
    layouts produce exactly n/2 - 1 doubled cells, each written with the
    same value from both sides (benign).  Writers are listed in the order
    the trace commits them: the left sub-phases before the right ones.
    """
    bits = trace.bits
    if bits is None:
        return []
    points = list(_crosspoints(trace.layout.slots))
    # A pair's comparison sets one cell, so only pairs seen twice can conflict.
    seen = Counter((small, big) for small, big, _, _ in points)
    doubled = sorted((p for p in points if seen[p[0], p[1]] > 1), key=lambda p: p[2] > p[3])
    writers: dict[tuple[int, int], list[int]] = {}
    for small, big, small_slot, big_slot in doubled:
        if bits[small][big]:
            writers.setdefault((small, big), []).append(small_slot)
        else:
            writers.setdefault((big, small), []).append(big_slot)
    return sorted((row, col, tuple(slot_list)) for (row, col), slot_list in writers.items())
