"""Brute-force reference computations the tests check the library against.

Everything here is deliberately naive and independent of the library's
own code paths.
"""

import csv
import io
import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, islice
from math import gcd

from xbar.array_builder import EXAMPLES, Layout, min_pe_count, replicate_lower_bound
from xbar.netlist import NetBuilder, Netlist
from xbar.trace_text import COLUMNS, TraceEvent
from xbar.query_circuits import _encoder


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


def cycle_decomposition_reference(n, j):
    """The cycles of a shift power found by stepping j at a time from each start 0..gcd-1."""
    cycles = []
    for start in range(gcd(n, j)):
        elems = [start]
        cur = (start + j) % n
        while cur != start:
            elems.append(cur)
            cur = (cur + j) % n
        cycles.append(tuple(elems))
    return cycles


def exponent(cycle, m):
    """The shift power a cycle of two or more of m class ids comes from."""
    return (cycle[1] - cycle[0]) % m


@lru_cache(maxsize=None)
def q_partition_reference(m):
    """The Q partition of m ids from brute-force cycle scans.

    The cycles of the powers 1..m/2, grouped by smallest element, each group
    by ascending exponent.
    """
    cycles = [c for j in range(1, m // 2 + 1) for c in brute_cycles(m, j)]
    return tuple(tuple(sorted((c for c in cycles if c[0] == first), key=lambda c: exponent(c, m)))
                 for first in range(m // 2))


@lru_cache(maxsize=None)
def layout_reference(n):
    """Slots and provenance tags of the minimal layout, from brute-force cycle scans.

    The even frame for m = n - n % 2 classes lays the groups of the Q
    partition down in order; odd n puts class n-1 after every group but
    the last and ends with n-1, 0.
    """
    if n == 2:
        return (0, 1), ("trivial-pair", "trivial-pair")
    groups = q_partition_reference(n - n % 2)
    slots, tags = [], []
    for qi, group in enumerate(groups):
        for ci, cyc in enumerate(group):
            slots += cyc
            tags += [f"Q{qi}.c{ci}.e{ei}" for ei in range(len(cyc))]
        if n % 2 and qi < len(groups) - 1:
            slots.append(n - 1)
            tags.append("odd-fill")
    if n % 2:
        slots += [n - 1, 0]
        tags += ["odd-tail", "odd-tail"]
    return tuple(slots), tuple(tags)


def build_json_reference(n):
    """`xbar build --n n --format json` stdout: `json.dumps` of the reference layout and tags."""
    slots, tags = layout_reference(n)
    return json.dumps({"n": n, "slots": list(slots), "provenance": list(tags)}) + "\n"


def build_csv_reference(n):
    """`xbar build --n n --format csv` stdout: `csv.writer` rows of slot, class and tag."""
    slots, tags = layout_reference(n)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["slot", "class", "provenance"])
    writer.writerows(zip(range(len(slots)), slots, tags))
    return out.getvalue()


def build_text_reference(n):
    """`xbar build --n n` stdout: the reference slots joined by dashes, then the counts."""
    slots, _ = layout_reference(n)
    return "-".join(map(str, slots)) + f"\n{len(slots)} PEs, {len(slots) - 1} crosspoints\n"


def perm_text_reference(n):
    """`xbar perm --n n` stdout: a `Q<i>:` line per reference group, each cycle joined by commas."""
    return "".join(
        f"Q{i}: " + " ".join("(" + ",".join(map(str, c)) + ")" for c in group) + "\n"
        for i, group in enumerate(q_partition_reference(n))
    )


def euler_layout(n, rng):
    """A minimal layout from a random Euler trail over the complete graph K_n (Hierholzer).

    Every class of K_n has degree n - 1.  For odd n that is even, so a closed
    trail covers each pair once in n(n-1)/2 crosspoints.  For even n every
    degree is odd; n/2 - 1 added edges pair up all classes but two, which
    become the trail's ends, and the added pairs are the doubled ones.  Both
    counts are the Chinese postman bound, min_pe_count(n) - 1 crosspoints.
    """
    ends = list(range(n))
    rng.shuffle(ends)
    adjacent = {a: [b for b in range(n) if b != a] for a in range(n)}
    if n % 2 == 0:
        for a, b in zip(ends[2::2], ends[3::2]):
            adjacent[a].append(b)
            adjacent[b].append(a)
    for neighbours in adjacent.values():
        rng.shuffle(neighbours)
    stack, trail = [ends[0]], []
    while stack:
        a = stack[-1]
        if adjacent[a]:
            b = adjacent[a].pop()
            adjacent[b].remove(a)
            stack.append(b)
        else:
            trail.append(stack.pop())
    return Layout(n, tuple(reversed(trail)))


def shortest_covering_walk(n):
    """Fewest slots of any walk over classes 0..n-1 whose adjacent slots cover every pair.

    A breadth-first search over (last class, covered pairs), from every
    first class, one slot per level: the first level holding a state with
    every pair covered is the answer.  The state count is n * 2^C(n,2), so
    this is for n <= 6 (about 1 s there).
    """
    bit = {}
    for k, (a, b) in enumerate(combinations(range(n), 2)):
        bit[a, b] = bit[b, a] = 1 << k
    every = (1 << n * (n - 1) // 2) - 1
    frontier = {(c, 0) for c in range(n)}
    seen = set(frontier)
    slots = 1
    while all(covered != every for _, covered in frontier):
        frontier = {(c, covered | bit[last, c]) for last, covered in frontier
                    for c in range(n) if c != last} - seen
        seen |= frontier
        slots += 1
    return slots


# Per direction: whether the greater class sits right, the exchange and reply
# phase names, then the actions of the send, the receive, the reply signal and
# its receipt.
_DIRECTIONS = (
    (True, "left_exchange", "left_reply",
     "send_left", "recv_right", "signal_send_right", "signal_recv_left"),
    (False, "right_exchange", "right_reply",
     "send_right", "recv_left", "signal_send_left", "signal_recv_right"),
)


@lru_cache(maxsize=None)
def events_reference(trace):
    """(phase name, event) for every event of the stages run, derived one at a time.

    Cached per trace for the whole session: four trace properties share fixed
    cases of up to 200k events (n = 256), each derived once.
    """
    return tuple(_events(trace))


def _events(trace):
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


def written(trace, sink):
    """The bytes `trace.write` hands its `sink` ("jsonl" or "csv"), joined and read as ASCII.

    Every piece must be bytes, and a byte outside ASCII raises UnicodeDecodeError.
    """
    pieces = []
    trace.write(**{sink: pieces.append})
    assert {type(piece) for piece in pieces} == {bytes}, {type(piece) for piece in pieces}
    return b"".join(pieces).decode("ascii")


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


def netlist_text(net):
    """A netlist's structural text, which the golden digests hash.

    Header lines for the inputs and the outputs, then one gate per line as
    ``gateId KIND[param] <- wire,wire,...``.
    """
    lines = [f"inputs {','.join(net.inputs)}"]
    lines += [f"output {name} = {wire}" for name, wire in net.outputs.items()]
    for g in net.gates:
        kind = g.kind if g.param is None else f"{g.kind}[{g.param}]"
        lines.append(f"{g.gid} {kind} <- {','.join(g.inputs)}")
    return "\n".join(lines) + "\n"


def pack_lanes(words, width, prefix="b"):
    """Bind input `<prefix>i` to bit i of every word, word r in lane r."""
    return {f"{prefix}{i}": sum(((w >> i) & 1) << r for r, w in enumerate(words))
            for i in range(width)}


def all_vectors(m):
    """The m input ints that hold all 2^m vectors as lanes: int k holds bit k of L in lane L.

    Int k is its bit's block pattern, 2^k zero lanes then 2^k one lanes,
    repeated 2^(m-k-1) times: the block times the base-2^(2^(k+1)) repunit.
    """
    every_lane = (1 << (1 << m)) - 1
    return [every_lane // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k))
            for k in range(m)]


def lane_values(outputs, nbits, lanes, prefix="bit"):
    """Read outputs `<prefix>0..<prefix><nbits-1>` back as one int per lane."""
    return [sum(((outputs[f"{prefix}{k}"] >> r) & 1) << k for k in range(nbits))
            for r in range(lanes)]


# The n-row netlists `xbar depth` once measured: every matrix row laid out
# side by side, then the encoder.  `series_depth` of the stage lists in
# `xbar.query_circuits` must report what `depth` reports on these.

def _matrix_rows(nb: NetBuilder, n: int, diagonal: bool):
    """Create the `t_<row>_<col>` inputs one matrix row at a time, yielding each row."""
    for i in range(n):
        yield [nb.input(f"t_{i}_{k}") for k in range(n) if diagonal or k != i]


def _row_flag_circuit(n: int, gate) -> Netlist:
    """One `gate` per matrix row over its off-diagonal bits, then the encoder."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    nb = NetBuilder()
    _encoder(nb, [gate(nb, *row) for row in _matrix_rows(nb, n, diagonal=False)])
    return nb.build()


def build_min_circuit(n: int) -> Netlist:
    """Index of the all-zero matrix row: one NOR per row, then the encoder.

    Inputs are the n(n-1) off-diagonal bits row-major (`t_<row>_<col>`).
    The row flags are one-hot for any matrix produced by a full sort, so
    no valid wire is needed.
    """
    return _row_flag_circuit(n, NetBuilder.nor_)


def build_max_circuit(n: int) -> Netlist:
    """Index of the all-ones matrix row: one AND per row, then the encoder."""
    return _row_flag_circuit(n, NetBuilder.and_)


def _exact_count_onehot(nb: NetBuilder, wires: list) -> list:
    """Exactly-m detectors for m = 0..len(wires)-1, one threshold pair each.

    Detector m fires when at least m inputs are high but not m+1; for
    m = 0 the at-least-0 gate folds to constant 1 and drops out.
    """
    return [
        nb.and_(nb.not_(nb.threshold(wires, m + 1)), nb.threshold(wires, m))
        for m in range(len(wires))
    ]


def build_rank_circuit_threshold(n: int) -> Netlist:
    """All n ranks at once: one exact-count counter + encoder per matrix row.

    Inputs are the full n^2 matrix bits (`t_<row>_<col>`, diagonal
    included); outputs are `rank<i>_bit<k>` for every row i.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    nb = NetBuilder()
    for i, row in enumerate(_matrix_rows(nb, n, diagonal=True)):
        _encoder(nb, _exact_count_onehot(nb, row), prefix=f"rank{i}_bit")
    return nb.build()


def cone_floors(net, b):
    """Per output, the fan-in cone floor ceil(log_b m), m the primary inputs it depends on.

    A gate of fan-in at most b sees at most b^d inputs at depth d, so an
    output with m inputs in its support needs depth at least ceil(log_b m).
    The support is one OR of input bitmasks per gate; `legalize` does not
    change it, so it is taken on `net` as built.  The bound holds for
    `depth(net, b)` only when every gate of the legalized netlist has fan-in
    at most b: THRESHOLD gates stay wide, so netlists with them are outside it.
    """
    support = {w: 1 << i for i, w in enumerate(net.inputs)}
    for g in net.gates:
        support[g.gid] = reduce(operator.or_, map(support.__getitem__, g.inputs))
    floors = {}
    for name, wire in net.outputs.items():
        m = 0 if isinstance(wire, int) else bin(support[wire]).count("1")
        floors[name] = next(d for d in range(m + 1) if b ** d >= m)
    return floors


@dataclass(slots=True)
class ReferenceReport:
    """The fields of `array_builder.ValidationReport`; `pair_coverage` maps (lo, hi) to
    crosspoints, as a dict of the zipped `pair_columns` does."""

    n: int
    pe_count: int
    expected_pe_count: int
    pair_coverage: dict
    redundant_pairs: list
    slot_counts: Counter
    end_classes: tuple
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    @property
    def replicate_counts(self):
        return [self.slot_counts[c] for c in range(max(self.n, 0))]

    def to_json_dict(self):
        return {
            "n": self.n,
            "pe_count": self.pe_count,
            "expected_pe_count": self.expected_pe_count,
            "pair_coverage": {f"{a}-{b}": c for (a, b), c in sorted(self.pair_coverage.items())},
            "redundant_pairs": [list(p) for p in self.redundant_pairs],
            "replicate_counts": list(self.replicate_counts),
            "end_classes": list(self.end_classes),
            "violations": list(self.violations),
        }


def validate_reference(layout):
    """`array_builder.validate` as it was with one `(lo, hi)` tuple per crosspoint.

    A bad layout produces findings in `violations`, never an exception:
    slot count must equal min_pe_count(n), no crosspoint may join two
    slots of the same class, every class pair must be covered (exactly
    once for odd n; with exactly n/2 - 1 doubled pairs for even n), and
    per-class slot counts must meet their end-placement lower bounds.
    """
    n = layout.n
    slots = layout.slots
    violations: list[str] = []
    counts = Counter(slots)

    if n < 2:
        violations.append(f"class count n={n} below 2")
    if not slots:
        violations.append("layout has no slots")
        return ReferenceReport(n, 0, 0, {}, [], counts, (-1, -1), violations)

    out_of_range = sorted({c for c in slots if not 0 <= c < n})
    if out_of_range:
        violations.append(f"slot class ids out of range 0..{n - 1}: {out_of_range}")

    for s, (a, b) in enumerate(zip(slots, slots[1:])):
        if a == b:
            violations.append(f"adjacent same-class slots at positions {s},{s + 1} (class {a})")

    expected = min_pe_count(n) if n >= 2 else 0
    if len(slots) != expected:
        violations.append(f"pe count {len(slots)} != minimal {expected}")

    coverage = Counter(
        (min(a, b), max(a, b)) for a, b in zip(slots, slots[1:]) if a != b
    )
    redundant = sorted(pair for pair, cnt in coverage.items() if cnt >= 2)

    # Missing pairs are counted rather than listed and the search for
    # examples stops at the last one shown, so the work is bounded by the
    # slot count, not by the n(n-1)/2 pairs the declared n implies.
    covered = sorted(p for p in coverage if p[0] >= 0 and p[1] < n)
    missing = n * (n - 1) // 2 - len(covered) if n >= 2 else 0
    if missing:
        absent = ((a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in coverage)
        examples = list(islice(absent, EXAMPLES))
        violations.append(f"{missing} class pairs never adjacent, e.g. {examples}")
    if n % 2:
        doubled = [p for p in covered if coverage[p] > 1]
        if doubled:
            violations.append(f"odd n: pairs adjacent more than once: {doubled[:EXAMPLES]}")
    else:
        over = [p for p in covered if coverage[p] > 2]
        if over:
            violations.append(f"pairs adjacent more than twice: {over[:EXAMPLES]}")
        if not missing and len(redundant) != n // 2 - 1:
            violations.append(
                f"even n: {len(redundant)} doubled pairs, expected exactly {n // 2 - 1}"
            )

    ends = (slots[0], slots[-1])
    if n >= 2:
        def bound(c: int) -> int:
            return replicate_lower_bound(n, ends.count(c))

        # Every bound is at least 1, so every class without a slot is short.
        # Those are counted, not listed, and the walk for the first examples
        # meets at most one class per slot before it has found them.
        held = [c for c in counts if 0 <= c < n]
        short = n - len(held) + sum(counts[c] < bound(c) for c in held)
        for c in islice((c for c in range(n) if counts[c] < bound(c)), EXAMPLES):
            violations.append(f"class {c} has {counts[c]} slots, below its lower bound {bound(c)}")
        if short > EXAMPLES:
            violations.append(f"{short - EXAMPLES} more classes below their slot lower bound")

    return ReferenceReport(
        n=n,
        pe_count=len(slots),
        expected_pe_count=expected,
        pair_coverage=dict(coverage),
        redundant_pairs=redundant,
        slot_counts=counts,
        end_classes=ends,
        violations=violations,
    )
