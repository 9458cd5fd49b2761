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
its walk, by the diagonal cell only such a crosspoint writes.  The trace's
events are derived on demand from those fields,
one block of event groups per phase: a group per class, slot or
crosspoint.  The crosspoints are split by direction in C-level passes
over the slots.  A block has one set of int columns and one form per
group shape; a reply block has two forms, as the small class loses or
wins, and picks one per crosspoint.  `write` is the one way to the text:
it streams each block to its one sink, JSON lines or CSV, by repeating
the sink's line template and filling a chunk of groups with one `%` over
a flat tuple, built one extended slice per column; each chunk goes to
the sink as soon as it is made.  Keys and ranks are rendered once per
class and fill `value` fields with `%s`.
The templates are bytes, so the sinks take bytes: a `%` over ASCII bytes
is cheaper than one over str, and a binary file takes the chunks as
they are, with no text layer to encode them again.
The lines equal `json.dumps` and `csv.writer` output, encoded as ASCII,
as every payload is an exact int and every key, phase and action name a
bare identifier, which JSON writes in plain quotes; so no `json` import.

The final matrix satisfies bits[i][k] = 1 iff A[k] < A[i], or A[k] == A[i]
with k < i; row sums are therefore the ranks of a stable sort.
"""

from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import eq, getitem, gt, lt
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
    def phases(self) -> tuple[str, ...]:
        return PHASE_NAMES[:phase_count(self)]

    def _blocks(self, values, ranks):
        """Yield (phase, forms, picks, cols) per block of one phase's groups, in trace order.

        A group is one class (clear, rank), slot (load) or crosspoint.  Group g renders
        through forms[picks[g]]; `picks` is None for a block of one form.  A form's `...`
        fields take, line by line, one item per column, and each column holds one item
        per group: for a `value` field an item of `values` or `ranks`, else an int.
        """
        slots, bits = self.layout.slots, self.bits
        first = dict(zip(reversed(slots), range(len(slots) - 1, -1, -1)))
        classes = sorted(first)
        yield "clear", (_CLEAR,), None, (list(map(first.__getitem__, classes)), classes)
        yield "load", (_LOAD,), None, (range(len(slots)), list(map(values.__getitem__, slots)),
                                       slots)
        if bits is None:
            return
        for (exchange, reply, send, lose, win), (small_slots, big_slots, smalls, bigs) in zip(
                _DIRECTIONS, _directions(slots)):
            sent = list(map(values.__getitem__, bigs))
            yield exchange, (send,), None, (big_slots, sent, small_slots, sent)
            # bits[small][big] is set when small won: its slot writes and replies 0.  After
            # the small slots, each column takes the lose form's int or the win form's, by `won`.
            won = list(map(getitem, map(bits.__getitem__, smalls), bigs))
            yield reply, (lose, win), won, (small_slots, *(
                list(map(getitem, zip(if_lost, if_won), won)) for if_lost, if_won in (
                    (big_slots, smalls), (big_slots, bigs), (bigs, small_slots),
                    (smalls, big_slots))))
        if ranks:
            ids = range(len(ranks))
            yield "rank", (_RANK,), None, (list(map(first.__getitem__, ids)), ranks, ids)

    def events(self):
        """Yield (phase name, event) for every event of the stages run, in order."""
        for phase, forms, picks, cols in self._blocks(self.values, self.ranks):
            groups = map(getitem, zip(*(_filled(f, cols) for f in forms)), picks or repeat(0))
            yield from zip(repeat(phase), chain.from_iterable(groups))

    def write(self, jsonl=None, csv=None) -> None:
        """Stream the trace to one sink: as JSON lines to `jsonl`, or as CSV to `csv`.

        The sink is a callable taking bytes, all of them ASCII: a binary file's `write`
        takes them as made, and a text stream's takes them decoded.  A JSON line is one
        object over COLUMNS that leaves out absent payload keys; the CSV is a COLUMNS
        header, then one row per event with absent payload fields empty.  Every block's
        groups go through the sink's line templates, encoded once per block, _CHUNK at a
        time: each chunk's flat tuple is built one extended slice per column and filled
        into the templates with one bytes `%`.  Keys and ranks are rendered once per
        class, so `value` fields take them with `%s`, all else `%d`.
        """
        if (jsonl is None) == (csv is None):
            raise TypeError("write takes one sink: jsonl or csv")
        line, sink = (_jsonl_line, jsonl) if csv is None else (_csv_line, csv)
        if csv is not None:
            csv(",".join(COLUMNS).encode() + b"\r\n")
        for phase, forms, picks, cols in self._blocks(
                tuple(map(b"%d".__mod__, self.values)),
                self.ranks and tuple(map(b"%d".__mod__, self.ranks))):
            texts = tuple("".join(line(phase, ev) for ev in form).encode() for form in forms)
            templates = repeat(texts[0]) if picks is None else map(texts.__getitem__, picks)
            width, groups = len(cols), len(cols[0])
            for start in range(0, groups, _CHUNK):
                size = min(_CHUNK, groups - start)
                ints = [0] * (width * size)
                for i, col in enumerate(cols):
                    ints[i::width] = col[start:start + size]
                sink(b"".join(islice(templates, size)) % tuple(ints))


def _field(k, v, text) -> str:
    """Column k's template text: `%s` for a rendered value, `%d` for any other `...`."""
    return ("%s" if k == "value" else "%d") if v is ... else text(v)


def _jsonl_line(phase, ev) -> str:
    # Every key, phase and action name is a bare identifier, so "name" in quotes is
    # exactly the text json.dumps writes for it; every other constant is an int.
    quoted = '"%s"'.__mod__
    return "{" + ", ".join(f'"{k}": {_field(k, v, quoted if isinstance(v, str) else str)}'
                           for k, v in zip(COLUMNS, (phase, *ev)) if v is not None) + "}\n"


def _csv_line(phase, ev) -> str:
    return ",".join("" if v is None else _field(k, v, str)
                    for k, v in zip(COLUMNS, (phase, *ev))) + "\r\n"


# A form is a group's lines, each a TraceEvent whose `...` fields the group's ints
# fill in order; its other fields are the same for every group.
_CLEAR = (TraceEvent(..., "clear_row", None, ...),)
_LOAD = (TraceEvent(..., "load", ..., ...),)
_RANK = (TraceEvent(..., "rank", ..., ...),)
_TWRITE = TraceEvent(..., "twrite", 1, ..., ...)
# Per direction: its exchange and reply phases, then the forms of an exchange and of
# a reply when the small class loses and when it wins.  The left direction's
# crosspoints have the greater class on the right.
_DIRECTIONS = tuple(
    (f"{side}_exchange", f"{side}_reply",
     (TraceEvent(..., send, ...), TraceEvent(..., recv, ...)),
     (TraceEvent(..., signal, 1), TraceEvent(..., receipt, 1), _TWRITE),
     (_TWRITE, TraceEvent(..., signal, 0), TraceEvent(..., receipt, 0)))
    for side, send, recv, signal, receipt in (
        ("left", "send_left", "recv_right", "signal_send_right", "signal_recv_left"),
        ("right", "send_right", "recv_left", "signal_send_left", "signal_recv_right")))

# Groups per `%` in a render: a bound on the template and the tuple interleaved at
# once.  Interleaving a whole block at once raised the n=512 trace's peak by 9 MB.
_CHUNK = 512

_event = partial(tuple.__new__, TraceEvent)  # one C call per event, not TraceEvent's __new__


def _filled(form, cols):
    """Per group, its events: each line of form with its `...` fields taken from cols."""
    cols = iter(cols)
    return zip(*(map(_event, zip(*(next(cols) if f is ... else repeat(f) for f in line)))
                 for line in form))


def _reject_shared(slots: Sequence[int]) -> None:
    """Raise at the first crosspoint whose two slots host the same class."""
    for s in compress(count(), map(eq, slots, islice(slots, 1, None))):
        raise ValueError(f"adjacent slots {s},{s + 1} share class {slots[s]}; cannot compare")


def _directions(slots: Sequence[int]):
    """Per direction, left then right, its crosspoints' small_slots, big_slots, smalls, bigs.

    Crosspoint s joins slots s and s + 1; it is left when the greater class sits
    right.  Each column is a list that runs left to right.
    """
    after = slots[1:]
    left, right = list(map(lt, slots, after)), list(map(gt, slots, after))
    directions = ([list(compress(c, left)) for c in (count(), count(1), slots, after)],
                  [list(compress(c, right)) for c in (count(1), count(), after, slots)])
    if len(directions[0][0]) + len(directions[1][0]) < len(after):
        _reject_shared(slots)
    return directions


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
    t = [[0] * len(vals) for _ in vals]
    for small, big in zip(slots, islice(slots, 1, None)):
        if small > big:
            small, big = big, small
        if vals[big] < vals[small]:
            t[small][big] = 1
        else:
            t[big][small] = 1
    if any(map(getitem, t, count())):
        _reject_shared(slots)
    return state._replace(bits=tuple(map(tuple, t)))


def rank_phase(state: SortTrace) -> SortTrace:
    """Rank of element i = sum of matrix row i; sets `ranks`."""
    return state._replace(ranks=tuple(map(sum, state.bits)))


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
    Otherwise one walk finds the doubled pairs; their writers are listed in the
    order the trace commits them: the left sub-phases before the right ones.
    """
    bits, slots, n = trace.bits, trace.layout.slots, trace.layout.n
    if bits is None or sum(map(sum, bits)) == len(slots) - 1:
        return []
    # Pair small < big marks small * n + big; two slots of one class mark the diagonal.
    seen, doubled = bytearray(n * n), set()
    for a, b in zip(slots, islice(slots, 1, None)):
        key = a * n + b if a < b else b * n + a
        if seen[key]:
            doubled.update(((a, b), (b, a)))
        seen[key] = 1
    if any(seen[::n + 1]):
        _reject_shared(slots)
    points = compress(count(), map(doubled.__contains__, zip(slots, islice(slots, 1, None))))
    writers: dict[tuple[int, int], list[int]] = {}
    # A left crosspoint has its greater class on the right; the left sub-phases commit first.
    for s in sorted(points, key=lambda s: slots[s] > slots[s + 1]):
        small, big = sorted(slots[s:s + 2])
        row = small if bits[small][big] else big
        writers.setdefault((row, small + big - row), []).append(s if slots[s] == row else s + 1)
    return sorted((row, col, tuple(slot_list)) for (row, col), slot_list in writers.items())
