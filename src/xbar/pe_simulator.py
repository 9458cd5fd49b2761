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
operation mirrored: they differ only in the direction the value travels,
which shows up solely in the action names.  All sends in a sub-phase read
pre-phase state and all writes commit at the sub-phase end, so the run is
deterministic.

The final matrix satisfies bits[i][k] = 1 iff A[k] < A[i], or A[k] == A[i]
with k < i; row sums are therefore the ranks of a stable sort.
"""

import io
import json
from csv import writer as csv_writer
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True, slots=True)
class TraceEvent:
    action: str
    slot: int
    value: int | None = None
    row: int | None = None
    col: int | None = None


@dataclass(frozen=True, slots=True)
class TracePhase:
    name: str
    events: tuple[TraceEvent, ...]


@dataclass(frozen=True, slots=True)
class SortTrace:
    """Ordered record of everything every slot did, phase by phase."""

    n: int
    slot_count: int
    key_bits: int
    phases: tuple[TracePhase, ...]

    def events(self):
        for phase in self.phases:
            for ev in phase.events:
                yield phase.name, ev

    def to_jsonl(self) -> str:
        """One JSON object per event: phase, slot, action, payload."""
        lines = []
        for name, ev in self.events():
            doc = {"phase": name, "slot": ev.slot, "action": ev.action}
            if ev.value is not None:
                doc["value"] = ev.value
            if ev.row is not None:
                doc["row"] = ev.row
            if ev.col is not None:
                doc["col"] = ev.col
            lines.append(json.dumps(doc))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv_writer(out)
        w.writerow(["phase", "slot", "action", "value", "row", "col"])
        for name, ev in self.events():
            w.writerow([
                name,
                ev.slot,
                ev.action,
                "" if ev.value is None else ev.value,
                "" if ev.row is None else ev.row,
                "" if ev.col is None else ev.col,
            ])
        return out.getvalue()


@dataclass(frozen=True, slots=True)
class ComparisonMatrix:
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


@dataclass(frozen=True, slots=True)
class RankVector:
    ranks: tuple[int, ...]

    def order(self) -> tuple[int, ...]:
        """Element indices in ascending sorted order (inverse of `ranks`)."""
        out = [0] * len(self.ranks)
        for i, r in enumerate(self.ranks):
            out[r] = i
        return tuple(out)


@dataclass(frozen=True, slots=True)
class SimulatorState:
    """A loaded machine: every slot of class i holds values[i], matrix zeroed."""

    layout: Layout
    values: tuple[int, ...]
    t: tuple[tuple[int, ...], ...]
    phases: tuple[TracePhase, ...]


def _key_bits(values: Sequence[int]) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _first_slot_per_class(layout: Layout) -> dict[int, int]:
    first: dict[int, int] = {}
    for s, c in enumerate(layout.slots):
        first.setdefault(c, s)
    return first


def load_phase(layout: Layout, values: Sequence[int]) -> SimulatorState:
    """Broadcast values[i] to every slot of class i and zero the matrix.

    Counts as two phases: one master clear per matrix row, then the
    bus broadcast that drops the same value on all replicates of a class.
    """
    if len(values) != layout.n:
        raise ValueError(f"got {len(values)} values for {layout.n} classes")
    bad = next((c for c in layout.slots if not 0 <= c < layout.n), None)
    if bad is not None:
        raise ValueError(f"class id {bad} outside 0..{layout.n - 1}")
    vals = tuple(values)
    first = _first_slot_per_class(layout)
    clear_events = tuple(
        TraceEvent("clear_row", slot=first[c], row=c) for c in sorted(first)
    )
    load_events = tuple(
        TraceEvent("load", slot=s, row=c, value=vals[c])
        for s, c in enumerate(layout.slots)
    )
    phases = (TracePhase("clear", clear_events), TracePhase("load", load_events))
    zeros = tuple((0,) * layout.n for _ in range(layout.n))
    return SimulatorState(layout, vals, zeros, phases)


def compare_phase(state: SimulatorState) -> tuple[ComparisonMatrix, SortTrace]:
    """Run the four exchange/reply sub-phases over every crosspoint.

    Each crosspoint performs exactly one comparison, so a run makes
    slots - 1 comparisons total.  Redundant adjacencies (even n) write
    the same cell twice with the same value; the duplicate writes stay
    in the trace for conflict accounting.
    """
    layout = state.layout
    slots = layout.slots
    vals = state.values
    t = [list(row) for row in state.t]

    # Per direction (greater class on the right, then on the left): exchange
    # events, reply events, and the action names of the send, the receive,
    # the reply signal and its receipt.
    left = ([], [], "send_left", "recv_right", "signal_send_right", "signal_recv_left")
    right = ([], [], "send_right", "recv_left", "signal_send_left", "signal_recv_right")

    for s, (a, b) in enumerate(zip(slots, slots[1:])):
        if a == b:
            raise ValueError(f"adjacent slots {s},{s + 1} share class {a}; cannot compare")
        if b > a:
            small, big, small_slot, big_slot, way = a, b, s, s + 1, left
        else:
            small, big, small_slot, big_slot, way = b, a, s + 1, s, right
        exchange, reply, send, recv, signal, signal_recv = way
        value = vals[big]
        exchange.append(TraceEvent(send, slot=big_slot, value=value))
        exchange.append(TraceEvent(recv, slot=small_slot, value=value))
        if value < vals[small]:
            t[small][big] = 1
            reply.append(TraceEvent("twrite", slot=small_slot, row=small, col=big, value=1))
            reply.append(TraceEvent(signal, slot=small_slot, value=0))
            reply.append(TraceEvent(signal_recv, slot=big_slot, value=0))
        else:
            reply.append(TraceEvent(signal, slot=small_slot, value=1))
            reply.append(TraceEvent(signal_recv, slot=big_slot, value=1))
            t[big][small] = 1
            reply.append(TraceEvent("twrite", slot=big_slot, row=big, col=small, value=1))

    phases = state.phases + tuple(
        TracePhase(name, tuple(events))
        for name, events in zip(PHASE_NAMES[2:6], left[:2] + right[:2])
    )
    matrix = ComparisonMatrix(tuple(tuple(row) for row in t))
    trace = SortTrace(layout.n, len(slots), _key_bits(vals), phases)
    return matrix, trace


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
    state = load_phase(layout, values)
    matrix, trace = compare_phase(state)
    ranks = rank_phase(matrix)
    pairs = layout.n * (layout.n - 1) // 2
    covered = sum(ranks.ranks)
    if covered != pairs:
        raise ValueError(f"layout misses {pairs - covered} of its {pairs} class pairs")
    first = _first_slot_per_class(layout)
    rank_events = tuple(
        TraceEvent("rank", slot=first[i], row=i, value=ranks.ranks[i])
        for i in range(layout.n)
    )
    full = SortTrace(trace.n, trace.slot_count, trace.key_bits,
                     trace.phases + (TracePhase("rank", rank_events),))
    return matrix, ranks, full


def phase_count(trace: SortTrace) -> int:
    """Number of synchronous phases executed; the same constant for every n."""
    return len(trace.phases)


def detect_write_conflicts(trace: SortTrace) -> list[tuple[int, int, tuple[int, ...]]]:
    """Matrix cells written by more than one slot during the compare phases.

    Layouts that cover every pair exactly once never conflict; even-n
    layouts produce exactly n/2 - 1 doubled cells, each written with the
    same value from both sides (benign).
    """
    writers: dict[tuple[int, int], list[int]] = {}
    for phase in trace.phases:
        for ev in phase.events:
            if ev.action == "twrite":
                writers.setdefault((ev.row, ev.col), []).append(ev.slot)
    return [
        (row, col, tuple(slot_list))
        for (row, col), slot_list in sorted(writers.items())
        if len(slot_list) > 1
    ]
