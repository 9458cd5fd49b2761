import itertools
import random
from fractions import Fraction

import pytest

from xbar import query_circuits
from xbar.array_builder import build
from xbar.netlist import Netlist, depth, evaluate, legalize, series_depth
from xbar.pe_simulator import sort
from xbar.query_circuits import (
    CIRCUITS,
    build_encoder,
    build_ones_counter,
    build_popcount_tree,
    build_priority_encoder,
    decode_bits,
    max_index,
    max_stages,
    min_index,
    min_stages,
    rank_at_least_probabilistic,
    rank_via_adder_tree,
    row_assignments,
    search,
    select_rank,
    select_rank_stages,
    threshold_rank_stages,
)

from oracles import (all_vectors, argmax_index, argmin_index, build_min_circuit,
                     build_rank_circuit_threshold, lane_values, netlist_text, oracle_ranks,
                     pack_lanes)

T4 = ((0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0))
T5 = ((0, 1, 0, 1, 1), (0, 0, 0, 1, 0), (1, 1, 0, 1, 1), (0, 0, 0, 0, 0), (0, 1, 0, 1, 0))


def _matrix_for(values):
    return sort(build(len(values)), values)[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
def test_encoder_one_hot_exhaustive(n):
    net = build_encoder(n)
    for hot in range(n):
        out = evaluate(net, {f"x{i}": int(i == hot) for i in range(n)})
        assert decode_bits(out) == hot


def test_encoder_all_zero_decodes_to_zero():
    net = build_encoder(5)
    out = evaluate(net, {f"x{i}": 0 for i in range(5)})
    assert decode_bits(out) == 0


def test_encoder_rejects_tiny():
    with pytest.raises(ValueError):
        build_encoder(1)


def test_priority_encoder_exhaustive():
    net = build_priority_encoder(5)
    for bits in itertools.product((0, 1), repeat=5):
        out = evaluate(net, {f"m{i}": b for i, b in enumerate(bits)})
        if any(bits):
            assert out["valid"] == 1
            assert decode_bits(out) == bits.index(1)
        else:
            assert out["valid"] == 0


def test_min_max_on_golden_matrices():
    assert min_index(T5) == 3
    assert max_index(T5) == 2
    assert min_index(T4) == 3
    assert max_index(T4) == 2


def test_min_of_sorted_distinct_is_first():
    t = _matrix_for([1, 3, 5, 7, 9])
    assert min_index(t) == 0


def test_max_two_elements():
    t = _matrix_for([1, 9])
    assert max_index(t) == 1


def test_min_max_match_oracle_with_ties():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(3, 14)
        values = [rng.randrange(0, 5) for _ in range(n)]
        t = _matrix_for(values)
        assert min_index(t) == argmin_index(values)
        assert max_index(t) == argmax_index(values)


def test_legalized_min_circuit_still_selects_min():
    values = [7, 2, 9, 2, 5, 8, 1, 1]
    t = _matrix_for(values)
    legal = legalize(build_min_circuit(8), 2)
    bits = {f"t_{i}_{k}": t[i][k] for i in range(8) for k in range(8) if i != k}
    out = evaluate(legal, bits)
    assert decode_bits(out) == argmin_index(values)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_ones_counter_exhaustive(n):
    net = build_ones_counter(n)
    for bits in itertools.product((0, 1), repeat=n):
        out = evaluate(net, row_assignments(bits))
        count = sum(bits)
        hot = [m for m in range(n) if out[f"e{m}"]]
        if count < n:
            assert decode_bits(out) == count
            assert hot == [count]
        else:
            # Count n has no detector; matrix rows never reach it (zero diagonal).
            assert hot == []


def test_ones_counter_hot_wire_example():
    out = evaluate(build_ones_counter(5), row_assignments((0, 1, 0, 1, 1)))
    assert out["e3"] == 1 and decode_bits(out) == 3


def test_ones_counter_all_zero_row():
    out = evaluate(build_ones_counter(6), row_assignments((0,) * 6))
    assert out["e0"] == 1 and decode_bits(out) == 0


def test_ones_counter_random_wide_rows():
    rng = random.Random(11)
    rows = [rng.getrandbits(16) for _ in range(500)]
    out = evaluate(build_ones_counter(16), pack_lanes(rows, 16), lanes=500)
    got = lane_values(out, 4, 500)
    assert got == [row.bit_count() for row in rows]


def test_full_rank_circuit_rows():
    net = build_rank_circuit_threshold(5)
    out = evaluate(net, {f"t_{i}_{k}": T5[i][k] for i in range(5) for k in range(5)})
    got = [decode_bits({k.removeprefix(f"rank{i}_"): v for k, v in out.items()}) for i in range(5)]
    assert got == [3, 1, 4, 0, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_popcount_tree_exhaustive(n):
    net = build_popcount_tree(n)
    for bits in itertools.product((0, 1), repeat=n):
        out = evaluate(net, row_assignments(bits))
        assert decode_bits(out) == sum(bits)


@pytest.mark.parametrize("m", range(1, 13))
def test_popcount_tree_on_every_vector(m):
    # One bit-sliced evaluation over all 2^m lanes, lane L carrying vector L.
    net = build_popcount_tree(m)
    lanes = 1 << m
    out = evaluate(net, dict(zip(net.inputs, all_vectors(m))), lanes)
    assert lane_values(out, len(net.outputs), lanes) == [bin(L).count("1") for L in range(lanes)]


def test_popcount_tree_two_bits_is_one_adder():
    report = depth(build_popcount_tree(2), 2)
    assert report.depth <= 2


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 11)])
def test_popcount_tree_is_already_fanin_2(n):
    # Every adder gate has two inputs, so legalize passes the tree through and
    # the fan-in-2 report is the unbounded one.
    net = build_popcount_tree(n)
    assert legalize(net, 2) is net
    bounded, unbounded = depth(net, 2), depth(net)
    assert (bounded.depth, bounded.gate_count) == (unbounded.depth, unbounded.gate_count)


def test_rank_via_adder_tree_matches_row_sums():
    assert rank_via_adder_tree(T4) == (1, 2, 3, 0)
    assert rank_via_adder_tree(((0,),)) == (0,)  # no tree: the one row ranks 0
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randrange(2, 20)
        values = [rng.randrange(0, 9) for _ in range(n)]
        t, ranks, _ = sort(build(n), values)
        assert rank_via_adder_tree(t) == ranks


def test_select_rank_golden():
    assert select_rank(T5, 2) == 4
    assert select_rank(T4, 0) == 3


def test_select_rank_top_equals_max_circuit():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randrange(2, 16)
        values = [rng.randrange(0, 50) for _ in range(n)]
        t = _matrix_for(values)
        assert select_rank(t, n - 1) == max_index(t)


def test_select_rank_every_rank():
    values = [12, 3, 3, 40, 7]
    t = _matrix_for(values)
    want = oracle_ranks(values)
    for r in range(5):
        assert select_rank(t, r) == want.index(r)
    with pytest.raises(ValueError):
        select_rank(t, 5)


@pytest.mark.parametrize("n", range(2, 14))
def test_select_rank_row_on_every_vector(n):
    # The row reads n - 1 bits: all 2^(n-1) of them at once, for every r.
    lanes = 1 << (n - 1)
    inputs = {f"b{k}": v for k, v in enumerate(all_vectors(n - 1))}
    counts = [bin(L).count("1") for L in range(lanes)]
    for r in range(n):
        (row, _), _ = select_rank_stages(n, r)
        want = sum(1 << L for L, c in enumerate(counts) if c == r)
        assert evaluate(row, inputs, lanes)["hit"] == want, r
    for r in (-1, n):
        with pytest.raises(ValueError, match=f"rank {r} outside 0..{n - 1}"):
            select_rank_stages(n, r)


# Every m-input builder on all 2^m vectors, m 1..12 and one m = 16 case: one
# bit-sliced evaluate per netlist, lane L carrying vector L.  The unbounded
# netlist and its legalized forms at fan-in 2..4 must all read `want(L)`.
# The encoders and the ones counter refuse one input, so they start at m = 2.
EVERY_VECTOR_MS = [*range(1, 13), 16]


def _assert_on_every_vector(net, m, want):
    """Each output of `net` and of `legalize(net, b)`, b 2..4, is want(L)[output] in lane L."""
    lanes = 1 << m
    rows = [want(L) for L in range(lanes)]
    digits = bytes.maketrans(b"\0\1", b"01")
    expected = {name: int(bytes(row[name] for row in reversed(rows)).translate(digits), 2)
                for name in rows[0]}
    inputs = dict(zip(net.inputs, all_vectors(m)))
    for b in ("unbounded", 2, 3, 4):
        legal = net if b == "unbounded" else legalize(net, b)
        if legal is not net or b == "unbounded":  # a net with no wide gate is its own form
            assert evaluate(legal, inputs, lanes) == expected, (m, b)


def _bits_of(value, m, prefix="bit"):
    """`value` as the outputs of an m-input encoder: max(1, lg m) little-endian bits."""
    return {f"{prefix}{j}": value >> j & 1 for j in range(max(1, (m - 1).bit_length()))}


@pytest.mark.parametrize("m", EVERY_VECTOR_MS[1:])
def test_encoder_on_every_vector(m):
    # Output bit j ORs the inputs whose index has bit j set, hot or not.
    masks = [sum(1 << i for i in range(m) if i >> j & 1)
             for j in range(max(1, (m - 1).bit_length()))]

    def want(L):
        return {f"bit{j}": int(L & mask != 0) for j, mask in enumerate(masks)}

    _assert_on_every_vector(build_encoder(m), m, want)


@pytest.mark.parametrize("m", EVERY_VECTOR_MS[1:])
def test_priority_encoder_on_every_vector(m):
    # The lowest hot input wins; with none hot, valid is low and the index reads 0.
    def want(L):
        return {**_bits_of((L & -L).bit_length() - 1 if L else 0, m), "valid": int(L != 0)}

    _assert_on_every_vector(build_priority_encoder(m), m, want)


@pytest.mark.parametrize("m", EVERY_VECTOR_MS[1:])
def test_ones_counter_on_every_vector(m):
    # Count m has no detector, so an all-ones vector reads 0 with no e<k> hot.
    by_count = [{**{f"e{k}": int(k == c) for k in range(m)}, **_bits_of(c % m, m)}
                for c in range(m + 1)]
    _assert_on_every_vector(build_ones_counter(m), m, lambda L: by_count[bin(L).count("1")])


@pytest.mark.parametrize("m", EVERY_VECTOR_MS)
@pytest.mark.parametrize("stages, hit", [(min_stages, lambda L, m: L == 0),
                                         (max_stages, lambda L, m: L == (1 << m) - 1)],
                         ids=["min", "max"])
def test_min_max_rows_on_every_vector(stages, hit, m):
    # The row of an n-class query reads n - 1 bits: NOR hits the all-zero row, AND the all-ones.
    (row, _), _ = stages(m + 1)
    _assert_on_every_vector(row, m, lambda L: {"hit": int(hit(L, m))})


def test_select_rank_depth_barely_depends_on_r():
    # The row compares the popcount with a constant, so r only decides which
    # bits pass through a NOT: at most one level apart at every fan-in.  With
    # unbounded fan-in every r gives one depth except at n = 2^k + 1: there the
    # popcount's top bit is its deepest and is 1 only for r = n - 1, so every
    # other r puts a NOT on the critical path.
    for n in range(2, 41):
        depths = {b: set() for b in ("unbounded", 2, 3)}
        for r in range(n):
            stages = select_rank_stages(n, r)
            for b, seen in depths.items():
                seen.add(series_depth(stages, b).depth)
        for b, seen in depths.items():
            assert max(seen) - min(seen) <= 1, (n, b, seen)
        assert len(depths["unbounded"]) == 1 or (n - 1) & (n - 2) == 0, (n, depths)


# Matrices no full sort produces: a set diagonal bit, or row sums that are
# not a permutation of 0..n-1, so the row flags are not one-hot and the
# encoders would return an index outside 0..n-1.  The message names 0..n-1.
@pytest.mark.parametrize("query, bits", [
    (lambda t: select_rank(t, 1), ((0, 1, 0), (0, 0, 1), (0, 0, 1))),
    (min_index, ((0, 0, 0),) * 3),
    (max_index, ((0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1), (0, 0, 0, 0))),
    (min_index, ((0, 1), (0, 1))),
], ids=["select_rank-repeated-sums", "min-all-zero", "max-two-all-ones-rows", "min-set-diagonal"])
def test_queries_reject_non_permutation_matrices(query, bits):
    n = len(bits)
    with pytest.raises(ValueError, match=rf"not from a full sort.*permutation of 0\.\.{n - 1}$"):
        query(bits)


def test_queries_evaluate_the_stages_xbar_depth_reports(monkeypatch):
    # Each query runs exactly the netlists its `xbar depth` entry builds: min and
    # max (row circuits over the n - 1 off-diagonal bits, then the encoder), the
    # adder tree at n - 1, and search's priority encoder, on a present and an absent key.
    # The encoder that min, max and select_rank run is the `encoder` entry's netlist.
    evaluated = []
    evaluate = query_circuits.evaluate

    def recording(net, assignment, lanes=1):
        evaluated.append(net)
        return evaluate(net, assignment, lanes)

    def texts(built):
        return [netlist_text(net)
                for net, _ in ([(built, 1)] if isinstance(built, Netlist) else built)]

    def runs(entry, n, query, *args):
        evaluated.clear()
        result = query(*args)
        assert list(map(netlist_text, evaluated)) == texts(CIRCUITS[entry](n)), (entry, n)
        return result

    monkeypatch.setattr(query_circuits, "evaluate", recording)
    rng = random.Random(40)
    for n in range(2, 41):
        values = [rng.randrange(n // 2 + 1) for _ in range(n)]  # ties at every n > 2
        t, ranks, _ = sort(build(n), values)
        encoder = netlist_text(CIRCUITS["encoder"](n))
        assert runs("min", n, min_index, t) == ranks.index(0)
        assert netlist_text(evaluated[-1]) == encoder, n
        assert runs("max", n, max_index, t) == ranks.index(n - 1)
        assert netlist_text(evaluated[-1]) == encoder, n
        assert runs("adder-tree", n - 1, rank_via_adder_tree, t) == tuple(ranks)
        key = values[rng.randrange(n)]
        assert runs("priority-encoder", n, search, values, key) == values.index(key)
        assert runs("priority-encoder", n, search, values, -1) is None
        evaluated.clear()
        r = rng.randrange(n)
        assert select_rank(t, r) == ranks.index(r)
        assert evaluated[0].inputs == [f"b{k}" for k in range(n - 1)]
        assert list(map(netlist_text, evaluated)) == [
            netlist_text(net) for net, _ in select_rank_stages(n, r)]
        assert netlist_text(evaluated[-1]) == encoder, n
    # No query runs the threshold sort's rank circuit or its ones counter.
    assert set(CIRCUITS) - {"min", "max", "adder-tree", "priority-encoder", "encoder"} == {
        "threshold-rank", "ones-counter"}


def test_probabilistic_rank_examples():
    row = [1, 1] + [0] * 14
    verdict, _ = rank_at_least_probabilistic(row, 2, 2)
    assert verdict is True

    _, miss = rank_at_least_probabilistic([0] * 8, 2, 2)
    assert miss == Fraction(81, 256)

    verdict, _ = rank_at_least_probabilistic([1, 0, 1, 0, 1, 0, 1, 0], 2, 2)
    assert verdict is False  # rank 4 in aggregate, but no single pair fires

    # k = 1 is a legal width: each bit is its own chunk, and only 00 stays quiet.
    assert rank_at_least_probabilistic([0, 1], 1, 1) == (True, Fraction(1, 4))
    # [1] pads with a 0 to 10, which holds one 1 where j = 2 asks for two.
    assert rank_at_least_probabilistic([1], 2, 2) == (False, Fraction(3, 4))


def test_probabilistic_rank_padding_and_errors():
    # 7 bits pad to 8, so the miss odds match the 8-bit row.
    verdict, miss = rank_at_least_probabilistic([1, 1, 0, 0, 0, 0, 0], 2, 2)
    assert verdict is True
    assert miss == Fraction(81, 256)
    with pytest.raises(ValueError):
        rank_at_least_probabilistic([0, 1], 3, 2)
    with pytest.raises(ValueError):
        rank_at_least_probabilistic([0, 2], 1, 2)


def test_probabilistic_rank_j1_always_fires_on_any_one():
    verdict, miss = rank_at_least_probabilistic([0, 0, 0, 1], 1, 2)
    assert verdict is True
    assert miss == Fraction(1, 16)  # only the all-zero row stays quiet


def test_search_examples():
    assert search([8, 6, 9, 5, 7], 9) == 2
    assert search([8, 6, 9, 5, 7], 4) is None
    assert search([7, 6, 7, 5, 7], 7) == 0


def test_depth_min_circuit():
    assert series_depth(min_stages(16)).depth == 2
    assert series_depth(min_stages(16), 2).depth == 7  # ceil(lg 16) + ceil(lg 8)


def test_depth_threshold_rank_constant():
    report = series_depth(threshold_rank_stages(8))
    assert report.depth == 4
    assert report.max_threshold_fanin == 8
    bounded = depth(build_ones_counter(8), 2)
    assert bounded.max_threshold_fanin == 8  # thresholds stay wide by design
