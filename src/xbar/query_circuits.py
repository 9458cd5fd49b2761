"""Gate-level query circuits over the comparison matrix.

Everything here reads the n x n matrix a sorting run leaves behind, given
as its rows (`SortTrace.bits`): row i holds a 1 for every element that lost
to element i, so the row of the minimum is all zeros, the row of the
maximum is all ones off the diagonal, and each row's popcount is its
element's rank.  Every index query returns a plain int; `search` returns
None for an absent key.

Circuits provided:

* one-hot -> binary encoder (OR per output bit), plus a priority variant
  that lets the smallest hot index win;
* min / max index finders (one NOR / AND per row, then the encoder);
* exact-count rank counters built from threshold-gate pairs: the m-th
  detector ANDs "at least m ones" with "not at least m+1 ones", and the
  resulting one-hot feeds the encoder;
* popcount adder trees built from fan-in-2 carry-prefix adders
  (HALF_ADD sum cells, AND/OR carry cells), used both to rank rows and
  to select the row whose rank equals a target (one AND after the tree
  compares its bits with the constant);
* a probabilistic rank-at-least-j test that sums row bits in k-wide
  chunks, with its exact miss probability as a fraction.

The min, max, select-rank and adder-tree queries run one row circuit
over every row's n - 1 off-diagonal bits in one bit-sliced evaluation,
lane i being row i; min, max and select-rank then run the encoder.  The
same stages, n row copies and then the encoder, are what `series_depth`
composes into the depth `xbar depth` reports, without laying out n rows.

Depth accounting comes from `xbar.netlist.depth`; unit-delay THRESHOLD
gates are reported with their fan-in so the optimism is visible.
"""

from math import comb
from typing import TYPE_CHECKING, Sequence

from .netlist import NetBuilder, Netlist, evaluate

if TYPE_CHECKING:  # annotations only; the one function that makes a Fraction imports it
    from fractions import Fraction


def _output_bits(nb: NetBuilder, bits: list, prefix: str) -> None:
    """Name little-endian result wires `<prefix>0, <prefix>1, ...`."""
    for k, b in enumerate(bits):
        nb.output(f"{prefix}{k}", b)


def _encoder(nb: NetBuilder, wires: list, prefix: str = "bit") -> None:
    """OR-gate encoder: output bit j ORs the inputs whose index has bit j set."""
    n = len(wires)
    bits = [
        nb.or_(*[wires[i] for i in range(n) if (i >> j) & 1])
        for j in range(max(1, (n - 1).bit_length()))
    ]
    _output_bits(nb, bits, prefix)


def build_encoder(n: int) -> Netlist:
    """n-input one-hot to binary encoder with max(1, ceil(lg n)) output bits.

    It has no valid wire: its callers feed it exactly one hot input.
    """
    if n < 2:
        raise ValueError(f"encoder needs n >= 2, got {n}")
    nb = NetBuilder()
    _encoder(nb, [nb.input(f"x{i}") for i in range(n)])
    return nb.build()


def build_priority_encoder(n: int) -> Netlist:
    """Encoder variant where the smallest hot input wins.

    Input i is masked by a NOR over all lower inputs before the plain
    encoder stage; `valid` ORs the raw inputs.
    """
    if n < 2:
        raise ValueError(f"encoder needs n >= 2, got {n}")
    nb = NetBuilder()
    m = [nb.input(f"m{i}") for i in range(n)]
    masked = [m[0]]
    masked += [nb.and_(m[i], nb.nor_(*m[:i])) for i in range(1, n)]
    _encoder(nb, masked)
    nb.output("valid", nb.or_(*m))
    return nb.build()


def build_ones_counter(n: int) -> Netlist:
    """Population counter for an n-bit string via threshold-gate pairs.

    Outputs the one-hot `e0..e<n-1>` and the encoded count `bit*`.
    Detector `e<m>` fires when at least m inputs are high but not m+1; for
    m = 0 the at-least-0 gate folds to constant 1 and drops out.
    Constant depth: threshold, inverter, AND, encoder OR.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    nb = NetBuilder()
    wires = [nb.input(f"b{i}") for i in range(n)]
    es = [nb.and_(nb.not_(nb.threshold(wires, m + 1)), nb.threshold(wires, m)) for m in range(n)]
    _output_bits(nb, es, "e")
    _encoder(nb, es)
    return nb.build()


def threshold_rank_stages(n: int) -> list:
    """All n ranks at once for `series_depth`: a ones counter on each full matrix row."""
    return [(build_ones_counter(n), n)]


def _bk_carries(nb: NetBuilder, g: list, p: list) -> list:
    """Carry-prefix network (sparse two-sweep form); returns carry-out per position."""
    w = len(g)
    G = list(g)
    P = list(p)
    d = 1
    while d < w:
        for i in range(2 * d - 1, w, 2 * d):
            G[i] = nb.or_(G[i], nb.and_(P[i], G[i - d]))
            P[i] = nb.and_(P[i], P[i - d])
        d *= 2
    d //= 2
    while d >= 1:
        for i in range(3 * d - 1, w, 2 * d):
            G[i] = nb.or_(G[i], nb.and_(P[i], G[i - d]))
        d //= 2
    return G


def _bk_add(nb: NetBuilder, a_bits: list, b_bits: list) -> list:
    """Add two little-endian bit vectors with a carry-prefix adder.

    Operands may mix wires and constant bits; the result has
    max(len(a), len(b)) + 1 bits including the carry out.
    """
    w = max(len(a_bits), len(b_bits))
    a = list(a_bits) + [0] * (w - len(a_bits))
    b = list(b_bits) + [0] * (w - len(b_bits))
    p = [nb.xor2(a[i], b[i]) for i in range(w)]
    g = [nb.and_(a[i], b[i]) for i in range(w)]
    carries = _bk_carries(nb, g, p)
    sums = [p[0]]
    sums += [nb.xor2(p[i], carries[i - 1]) for i in range(1, w)]
    sums.append(carries[w - 1])
    return sums


def _popcount_bits(nb: NetBuilder, wires: list) -> list:
    """Sum of single bits through ceil(lg n) levels of pairwise adders."""
    values = [[w] for w in wires]
    while len(values) > 1:
        nxt = [
            _bk_add(nb, values[i], values[i + 1])
            for i in range(0, len(values) - 1, 2)
        ]
        if len(values) % 2:
            nxt.append(values[-1])
        values = nxt
    return values[0]


def build_popcount_tree(n: int) -> Netlist:
    """Adder tree summing n input bits `b0..b<n-1>` into a binary count.

    Every cell has fan-in at most 2, so the bounded and unbounded depth
    of this netlist coincide.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nb = NetBuilder()
    wires = [nb.input(f"b{i}") for i in range(n)]
    _output_bits(nb, _popcount_bits(nb, wires), "bit")
    return nb.build()


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a 0/1 column's bytes -> its base-2 digits


def _run_rows(bits: Sequence[Sequence[int]], row_net: Netlist) -> dict:
    """Evaluate `row_net` once on every row's n - 1 off-diagonal bits, lane i = row i.

    Input `b<k>` of row i is column k below the diagonal (k < i) and column k + 1 from it on.
    """
    columns = [int(bytes(column[::-1]).translate(_DIGITS), 2) for column in zip(*bits)]
    lows = [(2 << k) - 1 for k in range(len(bits) - 1)]  # lanes 0..k, which take column k + 1
    inputs = {f"b{k}": columns[k] & ~low | columns[k + 1] & low for k, low in enumerate(lows)}
    return evaluate(row_net, inputs, lanes=len(bits))


def _row_stages(gate, n: int) -> list:
    """n copies of the row circuit `hit = gate(nb, b0, ..., b<n-2>)`, then the encoder.

    The row flags are one-hot for any matrix a full sort produces, so the
    encoder needs no valid wire.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    nb = NetBuilder()
    nb.output("hit", gate(nb, *[nb.input(f"b{k}") for k in range(n - 1)]))
    return [(nb.build(), n), (build_encoder(n), 1)]


def _hit_index(bits: Sequence[Sequence[int]], stages: list) -> int:
    """Evaluate `stages`' row circuit on every row, then its encoder on the hot row.

    The flags are one-hot only on a matrix a full sort produces: a zero
    diagonal and row sums forming a permutation of 0..n-1.  Any other
    raises ValueError, as the encoder would OR several rows (or none)
    into an index that can lie outside 0..n-1.
    """
    n = len(bits)
    if any(bits[i][i] for i in range(n)) or sorted(map(sum, bits)) != list(range(n)):
        raise ValueError("matrix is not from a full sort: it needs a zero diagonal "
                         f"and row sums forming a permutation of 0..{n - 1}")
    (row, _), (encoder, _) = stages
    hits = _run_rows(bits, row)["hit"]
    return decode_bits(evaluate(encoder, {f"x{i}": (hits >> i) & 1 for i in range(n)}))


def rank_via_adder_tree(bits: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Rank every row with the popcount adder tree over its n - 1 off-diagonal bits.

    A 1 x 1 matrix has no tree: its one row has rank 0.  The tree's depth is
    what `xbar depth --circuit adder-tree --n <n - 1>` reports.
    """
    n = len(bits)
    if n == 1:
        return (0,)
    out = _run_rows(bits, build_popcount_tree(n - 1))
    return tuple(decode_bits({k: (v >> i) & 1 for k, v in out.items()}) for i in range(n))


def select_rank(bits: Sequence[Sequence[int]], r: int) -> int:
    """Index of the unique row whose popcount equals r: `select_rank_stages`, then the encoder.

    Raises ValueError for r outside 0..n-1 and on a matrix that no full
    sort produces.
    """
    return _hit_index(bits, select_rank_stages(len(bits), r))


def rank_at_least_probabilistic(
    row: Sequence[int], j: int, k: int
) -> "tuple[bool, Fraction]":
    """Chunked test for "this row holds at least j ones", plus its miss odds.

    The row is zero-padded to a multiple of k and split into k-bit
    chunks; the verdict is True when some single chunk already holds at
    least j ones, which can under-report when the ones are spread out.
    The returned Fraction is the exact probability that a uniform random
    row of the padded length shows no qualifying chunk:
    (sum_{i<j} C(k,i))^(n/k) / 2^n.
    """
    if k < 1:
        raise ValueError(f"chunk width must be >= 1, got {k}")
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= k; no {k}-bit chunk can hold {j} ones")
    bits = [int(b) for b in row]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("row must be 0/1 valued")
    if len(bits) % k:
        bits += [0] * (k - len(bits) % k)
    from fractions import Fraction  # here, so `import xbar.cli` loads neither it nor decimal

    n = len(bits)
    verdict = any(sum(bits[i:i + k]) >= j for i in range(0, n, k))
    quiet_chunks = sum(comb(k, i) for i in range(j))
    miss = Fraction(quiet_chunks ** (n // k), 2 ** n)
    return verdict, miss


def search(values: Sequence[int], key) -> int | None:
    """Find the smallest class index whose element equals `key`.

    One replicate per class suffices: each designated slot tests its
    loaded value against the broadcast key, and the n-bit match vector
    feeds the priority encoder.  Returns None when the key is absent
    (the encoder's valid wire stays low).
    """
    matches = [1 if v == key else 0 for v in values]
    net = build_priority_encoder(len(values))
    out = evaluate(net, row_assignments(matches, "m"))
    return decode_bits(out) if out["valid"] else None


def min_index(bits: Sequence[Sequence[int]]) -> int:
    """Index of the all-zero row: `min_stages`, a NOR over every row, then the encoder."""
    return _hit_index(bits, min_stages(len(bits)))


def max_index(bits: Sequence[Sequence[int]]) -> int:
    """Index of the all-ones row: `max_stages`, an AND over every row, then the encoder."""
    return _hit_index(bits, max_stages(len(bits)))


def min_stages(n: int) -> list:
    """`min_index`'s stages: a NOR over each row's n - 1 off-diagonal bits, then the encoder."""
    return _row_stages(NetBuilder.nor_, n)


def max_stages(n: int) -> list:
    """`max_index`'s stages: an AND over each row's n - 1 off-diagonal bits, then the encoder."""
    return _row_stages(NetBuilder.and_, n)


def select_rank_stages(n: int, r: int) -> list:
    """`select_rank`'s stages: a popcount tree per row, one AND comparing it with r, the encoder.

    The AND takes popcount bit k as it is where r has a 1 and negated
    where r has a 0.  Every r in 0..n-1 fits the popcount's bits; any
    other r raises ValueError.
    """
    if not 0 <= r <= n - 1:
        raise ValueError(f"rank {r} outside 0..{n - 1}")

    def rank_is_r(nb: NetBuilder, *row):
        bits = enumerate(_popcount_bits(nb, row))
        return nb.and_(*(w if r >> k & 1 else nb.not_(w) for k, w in bits))

    return _row_stages(rank_is_r, n)


# `xbar depth --circuit` name -> its builder: n -> a Netlist, or the stages `series_depth` composes.
CIRCUITS = {"min": min_stages, "max": max_stages, "threshold-rank": threshold_rank_stages,
            "ones-counter": build_ones_counter, "adder-tree": build_popcount_tree,
            "encoder": build_encoder, "priority-encoder": build_priority_encoder}


def row_assignments(bits: Sequence[int], prefix: str = "b") -> dict[str, int]:
    """Bind a bit string to `b0..b<n-1>` input wires."""
    return {f"{prefix}{i}": int(b) for i, b in enumerate(bits)}


def decode_bits(outputs: dict) -> int:
    """Reassemble an integer from `bit0, bit1, ...` outputs (LSB first)."""
    total = 0
    k = 0
    while f"bit{k}" in outputs:
        total += int(outputs[f"bit{k}"]) << k
        k += 1
    return total
