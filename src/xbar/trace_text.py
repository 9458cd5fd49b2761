"""The trace of a sort run: its events, and their text as JSON lines or CSV.

A `SortTrace`'s events are derived from its fields on demand, one block of event groups
per phase (`_blocks`); the crosspoints are split by direction in C-level passes over the
slots.  A reply block has two forms, as the small class loses or wins, and picks one per
crosspoint.  `write` is the one way to the text: it streams each block to its one sink,
JSON lines or CSV, a chunk at a time.  The templates are bytes, as a `%` over ASCII bytes
is cheaper than one over str.  The lines equal `json.dumps` and `csv.writer` output,
encoded as ASCII, as every payload is an exact int and every key, phase and action name
a bare identifier, which JSON writes in plain quotes; so no `json` import.
"""

from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import getitem, gt, lt
from typing import NamedTuple, Sequence

from .pe_simulator import _reject_shared


class TraceEvent(NamedTuple):
    slot: int
    action: str
    value: int | None = None
    row: int | None = None
    col: int | None = None


# The trace format: one row per event, its phase name then the event's fields, in order.
COLUMNS = ("phase", *TraceEvent._fields)


def _blocks(trace, values, ranks):
    """Yield (phase, forms, picks, cols) per block of one phase's groups, in trace order.

    A group is one class (clear, rank), slot (load) or crosspoint.  Group g renders
    through forms[picks[g]]; `picks` is None for a block of one form.  A form's `...`
    fields take, line by line, one item per column, and each column holds one item
    per group: for a `value` field an item of `values` or `ranks`, else an int.
    """
    slots, bits = trace.layout.slots, trace.bits
    first = dict(zip(reversed(slots), range(len(slots) - 1, -1, -1)))
    classes = sorted(first)
    yield "clear", (_CLEAR,), None, (list(map(first.__getitem__, classes)), classes)
    yield "load", (_LOAD,), None, (range(len(slots)), list(map(values.__getitem__, slots)), slots)
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


def events(trace):
    """Yield (phase name, event) for every event of the stages `trace` ran, in order."""
    for phase, forms, picks, cols in _blocks(trace, trace.values, trace.ranks):
        groups = map(getitem, zip(*(_filled(f, cols) for f in forms)), picks or repeat(0))
        yield from zip(repeat(phase), chain.from_iterable(groups))


def write(trace, jsonl=None, csv=None) -> None:
    """Stream `trace` to one sink: as JSON lines to `jsonl`, or as CSV to `csv`.

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
    for phase, forms, picks, cols in _blocks(
            trace, tuple(map(b"%d".__mod__, trace.values)),
            trace.ranks and tuple(map(b"%d".__mod__, trace.ranks))):
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
# Per direction: its exchange and reply phases, then the forms of an exchange and of a reply
# when the small class loses and when it wins.  Left crosspoints have the greater class right.
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
