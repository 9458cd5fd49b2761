"""Construction and validation of minimal 1D crosspoint-array layouts.

A layout is a left-to-right sequence of PE slots, each tagged with the
class id it hosts; a crosspoint sits between every two adjacent slots.
The builders place every unordered pair of class ids on at least one
crosspoint while using the provably minimal slot count:

* even n: n^2 / 2 slots, with exactly n/2 - 1 class pairs adjacent twice;
* odd n:  n(n-1)/2 + 1 slots, with every class pair adjacent exactly once.

For even n, `build` lays the Q-partition groups of `cyclic_perm.q_groups`
down one after another, each group's cycles (one `cycle_reader` slice each)
back to back with the 2-element cycle last.  For odd n it runs the even
construction for n-1 classes, leaves one empty slot between consecutive
groups, drops class n-1 into every gap, and finishes with class n-1 then 0.
`provenance_text(n, sep)` tags each slot of build(n) with its place in that
construction, one string join per cycle; a `Layout` does not carry the
tags, which only `xbar build` prints.
"""

from collections import Counter
from itertools import accumulate, chain, compress, islice, repeat
from typing import NamedTuple

from .cyclic_perm import cycle_reader, q_groups

# `validate` names at most this many offending pairs or classes per finding.
EXAMPLES = 5


class Layout(NamedTuple):
    """An assignment of class ids to the slots of a crosspoint array."""

    n: int
    slots: tuple[int, ...]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Layout":
        """The layout of a ``{"n": ..., "slots": [...]}`` document; raises ValueError if malformed.

        A `provenance` list, as `xbar build` writes it, must be empty or hold one
        tag per slot; it is then dropped.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"layout document must be an object, not {type(doc).__name__}")
        slots = doc["slots"]
        if not isinstance(slots, list):
            raise ValueError(f"slots must be a list, not {type(slots).__name__}")
        # Exact type test: bool is an int subclass, and int() would truncate
        # a float or parse a string into a plausible layout.
        if type(doc["n"]) is not int or not set(map(type, slots)) <= {int}:
            wrong = [x for x in (doc["n"], *slots) if type(x) is not int]
            raise ValueError(f"n and slots must be integers, not {wrong[0]!r}")
        tags = doc.get("provenance", [])
        if not isinstance(tags, list):
            raise ValueError(f"provenance must be a list, not {type(tags).__name__}")
        if tags and len(tags) != len(slots):
            raise ValueError(f"{len(tags)} provenance tags for {len(slots)} slots")
        return cls(doc["n"], tuple(slots))


def _pairs(codes, base: int, span: int) -> tuple[list[int], list[int]]:
    """Decode each lo * span + hi, where base <= lo < hi < base + span, into lo and hi.

    code - base = lo * span + (hi - base), the last term in 0..span-1.
    """
    return ([(c - base) // span for c in codes],
            [(c - base) % span + base for c in codes])


class ValidationReport(NamedTuple):
    """Structural findings for a layout; empty `violations` means all good.

    A class pair lo < hi has the integer code lo * id_span + hi.  `pair_rows`
    marks each pair met by some crosspoint at pair_rows[lo][hi], and
    `pair_codes` counts by code the crosspoints beyond that mark; when
    `pair_rows` is empty, `pair_codes` counts them all.  `pair_columns`
    decodes both on each read.
    """

    n: int
    pe_count: int
    expected_pe_count: int
    pair_rows: list[bytearray]
    pair_codes: Counter
    id_base: int
    id_span: int
    redundant_pairs: list[tuple[int, int]]
    slot_counts: Counter
    end_classes: tuple[int, int]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def pair_columns(self) -> tuple[list[int], list[int], list[int]]:
        """lo, hi and crosspoints of each adjacent class pair, in ascending pair order."""
        rows, codes, span = self.pair_rows, self.pair_codes, self.id_span
        if not rows:
            keys = sorted(codes)
            return (*_pairs(keys, self.id_base, span), list(map(codes.__getitem__, keys)))
        marked = [row.count(1) for row in rows]
        los = list(chain.from_iterable(map(repeat, range(span), marked)))
        his = list(chain.from_iterable(map(compress, repeat(range(span)), rows)))
        counts = [1] * len(his)
        # A repeated pair's place is the marks in the rows before its own and left of it.
        starts = list(accumulate(marked, initial=0))
        for code, extra in codes.items():
            lo, hi = divmod(code, span)
            counts[starts[lo] + rows[lo].count(1, 0, hi)] += extra
        return los, his, counts

    @property
    def replicate_counts(self) -> list[int]:
        """Slots per class 0..n-1; built on each read, so O(n) in the declared n."""
        return [self.slot_counts[c] for c in range(max(self.n, 0))]

    def to_json_dict(self) -> dict:
        los, his, counts = self.pair_columns()
        keys = ("%d-%d\n" * len(los) % tuple(chain.from_iterable(zip(los, his)))).splitlines()
        return {
            "n": self.n,
            "pe_count": self.pe_count,
            "expected_pe_count": self.expected_pe_count,
            "pair_coverage": dict(zip(keys, counts)),
            "redundant_pairs": [list(p) for p in self.redundant_pairs],
            "replicate_counts": list(self.replicate_counts),
            "end_classes": list(self.end_classes),
            "violations": list(self.violations),
        }


def min_pe_count(n: int) -> int:
    """Fewest slots that can realize all C(n,2) adjacencies: n^2/2 for even n,
    n(n-1)/2 + 1 for odd n: one more than the Chinese postman bound on a walk
    covering K_n (Kwan 1962; Edmonds & Johnson 1973), C(n,2) edges for odd n
    and C(n,2) + n/2 - 1 for even n, where all n degrees are odd."""
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    return n * n // 2 if n % 2 == 0 else n * (n - 1) // 2 + 1


def replicate_lower_bound(n: int, ends: int = 0) -> int:
    """Fewest slots a single class needs to reach all n-1 other classes.

    `ends` counts the array ends the class's slots own: 0, 1 or 2.  An
    interior slot meets two neighbors and an end slot one, so the class
    needs ceil((n - 1 + ends) / 2) slots.
    """
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    if ends not in (0, 1, 2):
        raise ValueError(f"ends must be 0, 1 or 2, got {ends!r}")
    return (n + ends) // 2


def _runs(n: int, cycle, fill, tail):
    """Yield the layout for n >= 2 in runs of slots, cycle(i, ci, elements) for cycle ci of group i.

    The even frame for m = n - n % 2 classes lays the groups of q_groups(m)
    down in order; `elements` is a cycle's range, read mod m.  Odd n adds
    `fill` after every group but the last, then `tail`.
    """
    groups = q_groups(n - n % 2)
    for i, group in enumerate(groups):
        for ci, elements in enumerate(group):
            yield cycle(i, ci, elements)
        if n % 2 and i + 1 < len(groups):
            yield fill
    if n % 2:
        yield tail


def provenance_text(n: int, sep: str) -> str:
    """The tags of build(n)'s slots, joined by `sep`: where each slot comes from.

    "Q{i}.c{ci}.e{ei}" is element ei of cycle ci of Q group i, "odd-fill" an odd
    layout's slot of class n-1 after a group, "odd-tail" one of its last two
    slots, and "trivial-pair" a slot of the two-slot n == 2 layout.
    """
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    if n == 2:
        return "trivial-pair" + sep + "trivial-pair"
    suffixes = [f".e{ei}" for ei in range(n)]  # no cycle is longer than n - n % 2

    def cycle(i: int, ci: int, elements: range) -> str:
        prefix = f"Q{i}.c{ci}"
        return prefix + (sep + prefix).join(suffixes[:len(elements)])

    return sep.join(_runs(n, cycle, "odd-fill", "odd-tail" + sep + "odd-tail"))


def provenance(n: int) -> tuple[str, ...]:
    """Per slot of build(n), its `provenance_text` tag."""
    return tuple(provenance_text(n, "\n").split("\n"))


def build(n: int) -> Layout:
    """Minimal layout for any n >= 2: n^2/2 slots for even n, n(n-1)/2 + 1 for odd n.

    n == 2 is the trivial two-slot pair.  For odd n every class pair ends up
    adjacent exactly once: the even frame for n-1 classes covers pairs among
    0..n-2, the gap fills pair class n-1 with classes 1..n-3, and the two
    tail slots add (n-1, n-2) and (n-1, 0).
    """
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    read = cycle_reader(range(n - n % 2))
    return Layout(n, tuple(chain.from_iterable(_runs(
        n, lambda i, ci, elements: read(elements), [n - 1], [n - 1, 0]))))


def _unmarked(rows: list[bytearray], n: int):
    """Yield each pair a < b < n, in ascending order, whose rows[a][b] is 0."""
    for a in range(n):
        row = rows[a]
        b = row.find(0, a + 1, n)
        while b >= 0:
            yield a, b
            b = row.find(0, b + 1, n)


def validate(layout: Layout) -> ValidationReport:
    """Check every structural claim for a layout.

    A bad layout produces findings in `violations`, never an exception:
    slot count must equal min_pe_count(n), no crosspoint may join two
    slots of the same class, every class pair must be covered (exactly
    once for odd n; with exactly n/2 - 1 doubled pairs for even n), and
    per-class slot counts must meet their end-placement lower bounds.

    One walk over the crosspoints finds the pairs; a second pass names the
    same-class crosspoints only when the walk met one.  When no id is negative
    and the ids span at most 2 * sqrt(slots) values, as in every layout
    `build` makes and every minimal layout, the walk marks each pair lo < hi
    in a table of `bytearray` rows, at most 4 bytes per slot, and keeps only
    the codes of repeated pairs; coverage and the missing pairs are then
    read from the rows in C.  Any other layout, which breaks a structural
    claim, is walked into a `Counter` of every crosspoint's pair code, so
    time and memory stay in the slot count, not in the declared n.
    """
    n, slots = layout.n, layout.slots
    violations: list[str] = []
    counts = Counter(slots)

    if n < 2:
        violations.append(f"class count n={n} below 2")
    if not slots:
        violations.append("layout has no slots")
        return ValidationReport(n, 0, 0, [], Counter(), 0, 1, [], counts, (-1, -1), violations)

    out_of_range = sorted(c for c in counts if not 0 <= c < n)
    if out_of_range:
        violations.append(f"slot class ids out of range 0..{n - 1}: {out_of_range}")

    # Each crosspoint of two classes lo < hi meets the pair with the code
    # lo * span + hi (see _pairs).
    base = min(0, min(counts))
    span = max(n - 1, max(counts)) + 1 - base
    crosspoints = zip(slots, islice(slots, 1, None))
    if base == 0 and span * span <= 4 * len(slots):
        # Pair lo < hi marks rows[lo][hi]; a pair met again adds its code to repeats.
        rows, repeats = [bytearray(span) for _ in range(span)], []
        for lo, hi in crosspoints:
            if lo > hi:
                lo, hi = hi, lo
            elif lo == hi:
                continue
            marks = rows[lo]
            if marks[hi]:
                repeats.append(lo * span + hi)
            marks[hi] = 1
        met = sum([row.count(1) for row in rows]) + len(repeats)
        codes = extra = Counter(repeats)
        covered = sum([row.count(1, 0, n) for row in rows[:n]])
        absent = _unmarked(rows, n)
    else:
        rows, pairs = [], []
        for lo, hi in crosspoints:
            if lo > hi:
                lo, hi = hi, lo
            elif lo == hi:
                continue
            pairs.append(lo * span + hi)
        met = len(pairs)
        codes = Counter(pairs)
        extra = Counter({c: k - 1 for c, k in codes.items() if k > 1})
        decoded = zip(*_pairs(codes, base, span)) if out_of_range else ()
        covered = len(codes) - sum(lo < 0 or hi >= n for lo, hi in decoded)
        absent = ((a, b) for a in range(n) for b in range(a + 1, n) if a * span + b not in codes)
    # Both walks skip a crosspoint of a single class.  Numbering every
    # crosspoint would cost a walk about a third of its time, so a second,
    # numbered pass names those crosspoints only when a walk skipped one.
    if met < len(slots) - 1:
        violations += [f"adjacent same-class slots at positions {s},{s + 1} (class {lo})"
                       for s, (lo, hi) in enumerate(zip(slots, islice(slots, 1, None))) if lo == hi]

    expected = min_pe_count(n) if n >= 2 else 0
    if len(slots) != expected:
        violations.append(f"pe count {len(slots)} != minimal {expected}")

    redundant = list(zip(*_pairs(sorted(extra), base, span)))
    # A pair with an out-of-range id is redundant, but neither covered nor doubled.
    doubled = [p for p in redundant if p[0] >= 0 and p[1] < n]

    # Missing pairs are counted rather than listed and the search for
    # examples stops at the last one shown, so the work is bounded by the
    # slot count, not by the n(n-1)/2 pairs the declared n implies.
    missing = n * (n - 1) // 2 - covered if n >= 2 else 0
    if missing:
        examples = list(islice(absent, EXAMPLES))
        violations.append(f"{missing} class pairs never adjacent, e.g. {examples}")
    if n % 2 and doubled:
        violations.append(f"odd n: pairs adjacent more than once: {doubled[:EXAMPLES]}")
    elif n % 2 == 0:
        over = [(a, b) for a, b in doubled if extra[a * span + b] > 1]
        if over:
            violations.append(f"pairs adjacent more than twice: {over[:EXAMPLES]}")
        if not missing and len(redundant) != n // 2 - 1:
            violations.append(f"even n: {len(redundant)} doubled pairs, "
                              f"expected exactly {n // 2 - 1}")

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

    return ValidationReport(n, len(slots), expected, rows, codes, base, span, redundant, counts,
                            ends, violations)
