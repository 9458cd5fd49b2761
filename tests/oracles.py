"""Brute-force reference computations the tests check the library against.

Everything here is deliberately naive and independent of the library's
own code paths.
"""

import csv
import io
import json
import operator
from collections import Counter
from functools import reduce

from xbar.pe_simulator import COLUMNS, TraceEvent


def oracle_ranks(values):
    """rank(i) = #{k: A[k] < A[i]} + #{k < i: A[k] = A[i]}."""
    return [
        sum(1 for k, v in enumerate(values) if v < values[i] or (v == values[i] and k < i))
        for i in range(len(values))
    ]


def argmin_index(values):
    """First index holding the minimum (ties go to the smaller index)."""
    return min(range(len(values)), key=lambda i: (values[i], i))


def argmax_index(values):
    """Last index holding the maximum (ties go to the larger index)."""
    return max(range(len(values)), key=lambda i: (values[i], i))


def pair_counts(slots):
    """How often each unordered class pair sits on a crosspoint."""
    return Counter(
        (min(a, b), max(a, b)) for a, b in zip(slots, slots[1:]) if a != b
    )


def brute_cycles(n, j):
    """Cycles of i -> (i+j) mod n found by scanning every start element."""
    seen = set()
    cycles = []
    for start in range(n):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = (start + j) % n
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = (cur + j) % n
        pivot = cyc.index(min(cyc))
        cycles.append(tuple(cyc[pivot:] + cyc[:pivot]))
    return sorted(cycles)


# Per direction: whether the greater class sits right, the exchange and reply
# phase names, then the actions of the send, the receive, the reply signal and
# its receipt.
_DIRECTIONS = (
    (True, "left_exchange", "left_reply",
     "send_left", "recv_right", "signal_send_right", "signal_recv_left"),
    (False, "right_exchange", "right_reply",
     "send_right", "recv_left", "signal_send_left", "signal_recv_right"),
)


def events_reference(trace):
    """Yield (phase name, event) for every event of the stages run, one at a time."""
    slots, vals, bits = trace.layout.slots, trace.values, trace.bits
    first = {}
    for s, c in enumerate(slots):
        first.setdefault(c, s)
    for c in sorted(first):
        yield "clear", TraceEvent(first[c], "clear_row", None, c)
    for s, c in enumerate(slots):
        yield "load", TraceEvent(s, "load", vals[c], c)
    if bits is None:
        return
    for left, exchange, reply, send, recv, signal, signal_recv in _DIRECTIONS:
        points = []
        for s, (a, b) in enumerate(zip(slots, slots[1:])):
            if a == b:
                raise ValueError(f"adjacent slots {s},{s + 1} share class {a}")
            if (a < b) == left:
                points.append((a, b, s, s + 1) if a < b else (b, a, s + 1, s))
        for small, big, small_slot, big_slot in points:
            yield exchange, TraceEvent(big_slot, send, vals[big])
            yield exchange, TraceEvent(small_slot, recv, vals[big])
        for small, big, small_slot, big_slot in points:
            if bits[small][big]:
                yield reply, TraceEvent(small_slot, "twrite", 1, small, big)
                yield reply, TraceEvent(small_slot, signal, 0)
                yield reply, TraceEvent(big_slot, signal_recv, 0)
            else:
                yield reply, TraceEvent(small_slot, signal, 1)
                yield reply, TraceEvent(big_slot, signal_recv, 1)
                yield reply, TraceEvent(big_slot, "twrite", 1, big, small)
    if trace.ranks is None:
        return
    for i, r in enumerate(trace.ranks):
        yield "rank", TraceEvent(first[i], "rank", r, i)


def twrite_conflicts(trace):
    """Cells written by more than one slot, from a scan of every `twrite` event.

    Slots are listed in the order the trace performs the writes.
    """
    writers = {}
    for _, ev in events_reference(trace):
        if ev.action == "twrite":
            writers.setdefault((ev.row, ev.col), []).append(ev.slot)
    return [
        (row, col, tuple(slots))
        for (row, col), slots in sorted(writers.items())
        if len(slots) > 1
    ]


def jsonl_reference(trace):
    """The trace as JSON lines: one `json.dumps` of a dict per event."""
    return "\n".join(
        json.dumps({k: v for k, v in zip(COLUMNS, (name, *ev)) if v is not None})
        for name, ev in events_reference(trace)
    ) + "\n"


def csv_reference(trace):
    """The trace as CSV: a COLUMNS header, then one `csv.writer` row per event."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(COLUMNS)
    w.writerows((name, *ev) for name, ev in events_reference(trace))
    return out.getvalue()


# Per gate kind, the operation folded over its inputs; NOR and NOT then
# invert the result and THRESHOLD compares the sum with its param.
_FOLDS = {
    "AND": operator.and_, "OR": operator.or_, "NOR": operator.or_, "NOT": operator.or_,
    "THRESHOLD": operator.add, "HALF_ADD": operator.xor,
}


def evaluate_reference(net, assignments):
    """One input vector of 0/1 ints through the netlist, gate by gate."""
    values = {name: assignments[name] for name in net.inputs}
    for g in net.gates:
        v = reduce(_FOLDS[g.kind], [values[w] for w in g.inputs])
        if g.kind in ("NOR", "NOT"):
            v = v ^ 1
        elif g.kind == "THRESHOLD":
            v = int(v >= g.param)
        values[g.gid] = v
    return {
        name: (wire if isinstance(wire, int) else values[wire])
        for name, wire in net.outputs.items()
    }
