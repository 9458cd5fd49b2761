"""Combinational gate netlists: construction, evaluation, depth accounting.

A netlist is an ordered list of gates over named wires.  Gate kinds are
AND, OR, NOR, NOT, THRESHOLD(m) and HALF_ADD; a gate's id doubles as its
output wire name.  HALF_ADD is the two-input sum cell (xor); carries are
built from AND/OR explicitly.  THRESHOLD(m) outputs 1 when at least m
of its inputs are 1 and is charged unit delay regardless of fan-in.
Every netlist, `legalize`'s rewrite included, is assembled by
`NetBuilder`, so its gate ids run g0, g1, ... in construction order.

`evaluate` walks the gate list once in construction order (netlists are
built topologically) and is bit-sliced: bit i of a wire's int is lane i,
so one pass evaluates `lanes` input vectors.  Gates are bitwise (NOT and
NOR XOR the all-lanes mask, THRESHOLD compares a bit-sliced counter with
its param).

`depth` measures the critical path in gate levels.  Under a finite
fan-in limit b, every AND/OR/NOR gate wider than b is first legalized
into a balanced tree of b-input gates (a NOR becomes an OR tree with a
NOR root).  THRESHOLD gates are exempt, but their widths are reported
alongside the depth so the unit-delay assumption stays visible.  A
netlist with no gate to rewrite is already legal, and `legalize` returns
it as it is rather than a copy, so callers must not mutate the result.
"""

import operator
from functools import partial, reduce
from typing import NamedTuple

Wire = str


class Gate(NamedTuple):
    gid: str
    kind: str
    inputs: tuple[str, ...]
    param: int | None = None


_gate = partial(tuple.__new__, Gate)  # one C call per gate, not Gate's __new__


class Netlist(NamedTuple):
    """Primary inputs, gates in topological order, and named outputs.

    An output maps a name to either a wire or a constant 0/1 that the
    builder folded away.  The record is fixed but its containers are not:
    builders fill fresh ones in place, so there are no shared defaults.
    """

    inputs: list[str]
    gates: list[Gate]
    outputs: dict[str, str | int]


class DepthReport(NamedTuple):
    """Critical-path depth of a netlist under a fan-in model."""

    fanin_limit: str | int
    depth: int
    gate_count: int
    max_threshold_fanin: int | None = None


class NetBuilder:
    """Incrementally builds a netlist, folding constants as it goes.

    Gate helpers accept wires or literal 0/1 ints.  Degenerate gates
    never materialize: a constant input is absorbed, a one-input AND/OR
    collapses to its wire, a one-input NOR becomes a NOT.
    """

    def __init__(self):
        self.net = Netlist([], [], {})

    def input(self, name: str) -> Wire:
        self.net.inputs.append(name)
        return name

    def output(self, name: str, wire: "Wire | int") -> None:
        self.net.outputs[name] = wire

    def _emit(self, kind: str, inputs: tuple[Wire, ...], param: int | None = None) -> Wire:
        gates = self.net.gates
        gid = f"g{len(gates)}"
        gates.append(_gate((gid, kind, inputs, param)))
        return gid

    def _fold(self, kind: str, ins: tuple, absorbing: int, inverted: bool = False) -> "Wire | int":
        """Emit `kind` over the wire inputs once the constant inputs are folded.

        The identity constant drops out and the absorbing one decides the
        gate.  An `inverted` gate (NOR) flips its constant results and turns
        a single wire into a NOT instead of passing it through.  Constants
        are 0/1, so with neither one among `ins` they are all wires.
        """
        if absorbing in ins:
            return absorbing ^ inverted
        wires = tuple(x for x in ins if not isinstance(x, int)) if 1 - absorbing in ins else ins
        if not wires:
            return (1 - absorbing) ^ inverted
        if len(wires) == 1:
            return self._emit("NOT", wires) if inverted else wires[0]
        return self._emit(kind, wires)

    def and_(self, *ins: "Wire | int") -> "Wire | int":
        return self._fold("AND", ins, 0)

    def or_(self, *ins: "Wire | int") -> "Wire | int":
        return self._fold("OR", ins, 1)

    def nor_(self, *ins: "Wire | int") -> "Wire | int":
        return self._fold("NOR", ins, 1, inverted=True)

    def not_(self, x: "Wire | int") -> "Wire | int":
        return self.nor_(x)

    def xor2(self, a: "Wire | int", b: "Wire | int") -> "Wire | int":
        if isinstance(a, int):
            a, b = b, a
        if isinstance(b, int):
            return a if b == 0 else self.not_(a)
        return self._emit("HALF_ADD", (a, b))

    def threshold(self, ins: "list[Wire | int]", m: int) -> "Wire | int":
        wires = [x for x in ins if type(x) is Wire]
        m -= sum(x for x in ins if type(x) is not Wire)  # each constant lowers the bar by its value
        if m <= 0:
            return 1
        if m > len(wires):
            return 0
        if len(wires) == 1:
            return wires[0]  # m == 1 on a single wire
        return self._emit("THRESHOLD", tuple(wires), param=m)

    def build(self) -> Netlist:
        return self.net


# The operation each gate kind folds over its inputs, left to right; NOR and
# NOT then invert the result.  THRESHOLD counts its inputs instead.
_FOLDS = {
    "AND": operator.and_, "OR": operator.or_, "NOR": operator.or_, "NOT": operator.or_,
    "HALF_ADD": operator.xor,
}


def _at_least(ins: list, m: int, mask):
    """Lanes where at least m of `ins` are 1: a bit-sliced ripple counter, then count >= m.

    After input i the count is at most i + 1, so only its low bits can carry.
    """
    count = [0] * max(len(ins), m).bit_length()
    for i, carry in enumerate(ins):
        for k in range((i + 1).bit_length()):
            count[k], carry = count[k] ^ carry, count[k] & carry
    ge = mask  # count >= m, decided from the low bits up
    for k, c in enumerate(count):
        ge = c & ge if (m >> k) & 1 else c | ge
    return ge


def evaluate(net: Netlist, assignments: dict, lanes: int = 1) -> dict:
    """Evaluate the netlist on `lanes` input vectors; returns {output name: value}.

    `assignments` binds every primary input to an int holding its lane i
    at bit i; outputs are packed alike, a constant one as 0 or all lanes.
    """
    mask = (1 << lanes) - 1
    values = {}
    for name in net.inputs:
        if name not in assignments:
            raise KeyError(f"missing value for input wire {name!r}")
        values[name] = assignments[name]
    for gid, kind, inputs, param in net.gates:
        if kind == "THRESHOLD":
            v = _at_least(list(map(values.__getitem__, inputs)), param, mask)
        elif kind in _FOLDS:
            v = reduce(_FOLDS[kind], map(values.__getitem__, inputs))
        else:
            raise ValueError(f"unknown gate kind {kind}")
        values[gid] = v ^ mask if kind in ("NOR", "NOT") else v
    return {
        name: (-wire & mask if isinstance(wire, int) else values[wire])
        for name, wire in net.outputs.items()
    }


# The gate kinds `legalize` splits into trees; THRESHOLD is charged unit delay.
_TREE_KINDS = ("AND", "OR", "NOR")


def _legal_tree(emit, kind: str, wires: tuple[Wire, ...], b: int) -> Wire:
    """Balanced b-ary tree over `wires`; depth is exactly ceil(log_b(fan-in))."""
    inner, root = {"NOR": ("OR", "NOR")}.get(kind, (kind, kind))
    while len(wires) > b:
        nxt = []
        for i in range(0, len(wires), b):
            chunk = wires[i:i + b]
            nxt.append(chunk[0] if len(chunk) == 1 else emit(inner, tuple(chunk)))
        wires = nxt
    return emit(root, tuple(wires))


def legalize(net: Netlist, b: int) -> Netlist:
    """Rewrite gates wider than b into balanced trees of b-input gates.

    THRESHOLD gates pass through untouched; NOT and narrow gates are
    copied.  The result computes the same outputs (checked by tests).
    When no AND/OR/NOR gate is wider than b, `net` itself is returned,
    not a copy: callers must not mutate the result.
    """
    if b < 2:
        raise ValueError(f"fan-in limit must be >= 2, got {b}")
    if not any(len(g.inputs) > b and g.kind in _TREE_KINDS for g in net.gates):
        return net
    nb = NetBuilder()
    wire_map: dict[Wire, Wire] = {w: nb.input(w) for w in net.inputs}
    for g in net.gates:
        ins = tuple(map(wire_map.__getitem__, g.inputs))
        if g.kind in _TREE_KINDS and len(ins) > b:
            new = _legal_tree(nb._emit, g.kind, ins, b)
        else:
            new = nb._emit(g.kind, ins, g.param)
        wire_map[g.gid] = new
    for name, wire in net.outputs.items():
        nb.output(name, wire if isinstance(wire, int) else wire_map[wire])
    return nb.build()


def depth(net: Netlist, fanin_limit: "str | int" = "unbounded") -> DepthReport:
    """Critical-path depth in gate levels under the chosen fan-in model.

    "unbounded" measures the netlist as built; an integer b measures the
    legalized netlist.  An output aliased straight to an input has depth 0.
    """
    target = net if fanin_limit == "unbounded" else legalize(net, int(fanin_limit))
    levels = {w: 0 for w in target.inputs}
    thr = []
    for gid, kind, inputs, _ in target.gates:
        levels[gid] = 1 + max(map(levels.__getitem__, inputs))
        if kind == "THRESHOLD":
            thr.append(len(inputs))
    d = max((0 if isinstance(w, int) else levels[w] for w in target.outputs.values()), default=0)
    return DepthReport(fanin_limit, d, len(target.gates), max(thr, default=None))


def series_depth(stages, fanin_limit: "str | int" = "unbounded") -> DepthReport:
    """`depth` of `(netlist, copies)` stages in series; a bare Netlist is one stage of one copy.

    Depths add (exact when a stage's outputs settle at one level, as a
    one-output row's do), gates add up as copies x gates, and the
    threshold fan-in is the widest of any stage.
    """
    if isinstance(stages, Netlist):
        stages = [(stages, 1)]
    reports = [(depth(net, fanin_limit), copies) for net, copies in stages]
    widths = [r.max_threshold_fanin for r, _ in reports if r.max_threshold_fanin]
    return DepthReport(fanin_limit, sum(r.depth for r, _ in reports),
                       sum(copies * r.gate_count for r, copies in reports),
                       max(widths, default=None))
