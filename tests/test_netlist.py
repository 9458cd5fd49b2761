import itertools

import pytest

from xbar.netlist import DepthReport, NetBuilder, Netlist, depth, evaluate, legalize, series_depth

from oracles import netlist_text


def _wide_sample_net():
    """One gate of every kind, several wider than any fan-in limit."""
    nb = NetBuilder()
    w = [nb.input(f"i{k}") for k in range(6)]
    nb.output("and6", nb.and_(*w))
    nb.output("or5", nb.or_(*w[:5]))
    nb.output("nor4", nb.nor_(*w[:4]))
    nb.output("not0", nb.not_(w[0]))
    nb.output("thr3", nb.threshold(w, 3))
    nb.output("xor", nb.xor2(w[0], w[1]))
    return nb.build()


def _truth(bits):
    i0, i1, i2, i3, i4, i5 = bits
    return {
        "and6": int(all(bits)),
        "or5": int(any(bits[:5])),
        "nor4": int(not any(bits[:4])),
        "not0": 1 - i0,
        "thr3": int(sum(bits) >= 3),
        "xor": i0 ^ i1,
    }


def test_evaluate_truth_tables():
    net = _wide_sample_net()
    for bits in itertools.product((0, 1), repeat=6):
        out = evaluate(net, {f"i{k}": b for k, b in enumerate(bits)})
        assert {k: int(v) for k, v in out.items()} == _truth(bits)


def test_evaluate_packed_lanes():
    # The whole truth table in one pass: row r of the table is lane r.
    net = _wide_sample_net()
    rows = list(itertools.product((0, 1), repeat=6))
    packed = {f"i{k}": sum(bits[k] << r for r, bits in enumerate(rows)) for k in range(6)}
    out = evaluate(net, packed, lanes=len(rows))
    for r, bits in enumerate(rows):
        want = _truth(bits)
        for name, lanes in out.items():
            assert (lanes >> r) & 1 == want[name]


def test_evaluate_missing_input():
    net = _wide_sample_net()
    with pytest.raises(KeyError):
        evaluate(net, {"i0": 1})


def test_evaluate_rejects_unknown_gate_kind():
    nb = NetBuilder()
    a, b = nb.input("a"), nb.input("b")
    nb.output("y", nb._emit("XOR", (a, b)))
    with pytest.raises(ValueError, match="unknown gate kind XOR"):
        evaluate(nb.build(), {"a": 1, "b": 0})


@pytest.mark.parametrize("b", [2, 3])
def test_legalize_preserves_function(b):
    net = _wide_sample_net()
    legal = legalize(net, b)
    assert all(
        len(g.inputs) <= b or g.kind == "THRESHOLD" for g in legal.gates
    )
    for bits in itertools.product((0, 1), repeat=6):
        assigns = {f"i{k}": v for k, v in enumerate(bits)}
        assert {k: int(v) for k, v in evaluate(legal, assigns).items()} == _truth(bits)


def test_legalize_tree_depths():
    nb = NetBuilder()
    w = [nb.input(f"i{k}") for k in range(16)]
    nb.output("a", nb.and_(*w))
    nb.output("o", nb.or_(*w[:5]))
    nb.output("n", nb.nor_(*w[:7]))
    net = nb.build()
    levels = {}
    legal = legalize(net, 2)
    for g in legal.gates:
        levels[g.gid] = 1 + max((levels.get(x, 0) for x in g.inputs), default=0)
    assert levels[legal.outputs["a"]] == 4  # ceil(log2 16)
    assert levels[legal.outputs["o"]] == 3  # ceil(log2 5)
    assert levels[legal.outputs["n"]] == 3  # ceil(log2 7), OR tree with NOR root


def test_legalize_rejects_unit_fanin():
    with pytest.raises(ValueError):
        legalize(_wide_sample_net(), 1)


def test_legalize_passes_legal_netlist_through():
    # The widest AND has 6 inputs; the 6-input THRESHOLD is exempt at any limit.
    net = _wide_sample_net()
    assert legalize(net, 6) is net
    nb = NetBuilder()
    nb.output("t", nb.threshold([nb.input(f"i{k}") for k in range(5)], 2))
    thr = nb.build()
    assert legalize(thr, 2) is thr


def test_legalize_rewrites_one_wide_gate():
    nb = NetBuilder()
    w = [nb.input(f"i{k}") for k in range(3)]
    nb.output("x", nb.xor2(w[0], w[1]))
    nb.output("a", nb.and_(*w))
    net = nb.build()
    legal = legalize(net, 2)
    assert legal is not net
    assert [g.gid for g in legal.gates] == ["g0", "g1", "g2"]
    assert [g.kind for g in legal.gates] == ["HALF_ADD", "AND", "AND"]
    assert legal.outputs == {"x": "g0", "a": "g2"}
    assert [g.gid for g in net.gates] == ["g0", "g1"]  # the input is left as it was


def test_depth_reports():
    net = _wide_sample_net()
    unbounded = depth(net)
    assert unbounded.fanin_limit == "unbounded"
    assert unbounded.depth == 1
    assert unbounded.max_threshold_fanin == 6
    bounded = depth(net, 2)
    assert bounded.depth == 3  # the six-input AND dominates: ceil(log2 6)
    assert bounded.depth >= unbounded.depth
    assert bounded.gate_count > unbounded.gate_count
    doc = bounded._asdict()
    assert doc["fanin_limit"] == 2 and doc["depth"] == 3


def test_depth_identity_wire_is_zero():
    nb = NetBuilder()
    a = nb.input("a")
    nb.output("y", a)
    assert depth(nb.build()).depth == 0
    assert depth(nb.build(), 2).depth == 0


def test_builder_constant_folding():
    nb = NetBuilder()
    a = nb.input("a")
    assert nb.and_(a, 0) == 0
    assert nb.and_(a, 1) == a
    assert nb.or_(a, 1) == 1
    assert nb.or_(a, 0) == a
    assert nb.nor_() == 1
    assert nb.xor2(a, 0) == a
    assert nb.xor2(1, 1) == 0
    assert nb.threshold([a, 1, 0], 1) == 1
    assert nb.threshold([a, 0], 2) == 0
    assert nb.threshold([a, 1], 2) == a
    assert nb.net.gates == []  # nothing above materializes a gate
    assert isinstance(nb.xor2(a, 1), str)  # folds to a NOT gate
    assert [g.kind for g in nb.net.gates] == ["NOT"]


def test_builder_folds_and_or_nor_alike():
    nb = NetBuilder()
    a, b = nb.input("a"), nb.input("b")
    assert (nb.and_(), nb.or_(), nb.nor_(0, 0)) == (1, 0, 1)
    assert (nb.and_(1, 0, a), nb.or_(0, 1, a), nb.nor_(a, 1, b)) == (0, 1, 0)
    assert nb.net.gates == []
    nb.nor_(a, 0)
    nb.nor_(0, a, b)
    nb.and_(a, 1, b)
    nb.or_(b, 0, a)
    assert [(g.kind, g.inputs) for g in nb.net.gates] == [
        ("NOT", ("a",)), ("NOR", ("a", "b")), ("AND", ("a", "b")), ("OR", ("b", "a")),
    ]


def test_builder_folds_identity_only_inputs_to_the_identity():
    # Every input is the identity constant, so no wire is left to combine.
    nb = NetBuilder()
    assert (nb.or_(0, 0), nb.and_(1, 1), nb.nor_(0, 0, 0)) == (0, 1, 1)
    assert nb.net.gates == []


def test_evaluate_packs_constant_outputs_over_every_lane():
    # A constant output reads 0 in no lane or 1 in all of them, beside a wire's lanes.
    nb = NetBuilder()
    a = nb.input("a")
    nb.output("one", nb.or_(a, 1))
    nb.output("zero", nb.and_(a, 0))
    nb.output("a", a)
    assert evaluate(nb.build(), {"a": 0b0101}, lanes=4) == {"one": 0b1111, "zero": 0, "a": 0b0101}


def test_depth_of_a_constant_output_is_zero():
    nb = NetBuilder()
    a, b = nb.input("a"), nb.input("b")
    nb.output("one", nb.or_(a, 1))
    assert depth(nb.build()).depth == depth(nb.build(), 2).depth == 0
    nb.output("y", nb.and_(a, b))
    assert depth(nb.build()).depth == 1


def test_depth_of_a_netlist_without_outputs_is_zero():
    nb = NetBuilder()
    a, b = nb.input("a"), nb.input("b")
    assert depth(nb.build()) == DepthReport("unbounded", 0, 0)
    nb.and_(a, b)  # a gate that no output reads
    assert depth(nb.build()) == DepthReport("unbounded", 0, 1)


def test_text_format():
    nb = NetBuilder()
    a, b = nb.input("a"), nb.input("b")
    t = nb.threshold([a, b], 2)
    nb.output("y", t)
    text = netlist_text(nb.build())
    lines = text.strip().splitlines()
    assert lines[0] == "inputs a,b"
    assert lines[1] == "output y = g0"
    assert lines[2] == "g0 THRESHOLD[2] <- a,b"


def test_netlist_gate_count():
    net = _wide_sample_net()
    assert isinstance(net, Netlist)
    assert isinstance(depth(net), DepthReport)


def test_netlist_holds_only_its_wiring():
    assert Netlist._fields == ("inputs", "gates", "outputs")
    net = _wide_sample_net()
    assert [g.gid for g in net.gates] == [f"g{k}" for k in range(len(net.gates))]


@pytest.mark.parametrize("b", ["unbounded", 2, 3, 7])
def test_series_depth_of_a_bare_netlist_is_its_depth(b):
    net = _wide_sample_net()
    assert series_depth(net, b) == depth(net, b)
