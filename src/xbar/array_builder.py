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
from itertools import chain, islice
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

    `pair_codes` counts the crosspoints of each class pair lo < hi under the
    integer code lo * id_span + hi; `pair_columns` decodes it on each read.
    """

    n: int
    pe_count: int
    expected_pe_count: int
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
        codes = sorted(self.pair_codes)
        return (*_pairs(codes, self.id_base, self.id_span),
                list(map(self.pair_codes.__getitem__, codes)))

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


def validate(layout: Layout) -> ValidationReport:
    """Check every structural claim for a layout.

    A bad layout produces findings in `violations`, never an exception:
    slot count must equal min_pe_count(n), no crosspoint may join two
    slots of the same class, every class pair must be covered (exactly
    once for odd n; with exactly n/2 - 1 doubled pairs for even n), and
    per-class slot counts must meet their end-placement lower bounds.
    """
    n, slots = layout.n, layout.slots
    violations: list[str] = []
    counts = Counter(slots)

    if n < 2:
        violations.append(f"class count n={n} below 2")
    if not slots:
        violations.append("layout has no slots")
        return ValidationReport(n, 0, 0, Counter(), 0, 1, [], counts, (-1, -1), violations)

    out_of_range = sorted(c for c in counts if not 0 <= c < n)
    if out_of_range:
        violations.append(f"slot class ids out of range 0..{n - 1}: {out_of_range}")

    # Each crosspoint of two classes lo < hi counts its pair under the code
    # lo * span + hi (see _pairs); one of a single class is a violation.
    base = min(0, min(counts))
    span = max(n - 1, max(counts)) + 1 - base
    pairs = []
    for s, (lo, hi) in enumerate(zip(slots, islice(slots, 1, None))):
        if lo > hi:
            lo, hi = hi, lo
        elif lo == hi:
            violations.append(f"adjacent same-class slots at positions {s},{s + 1} (class {lo})")
            continue
        pairs.append(lo * span + hi)
    codes = Counter(pairs)

    expected = min_pe_count(n) if n >= 2 else 0
    if len(slots) != expected:
        violations.append(f"pe count {len(slots)} != minimal {expected}")

    repeated = [c for c, k in codes.items() if k > 1] if len(pairs) > len(codes) else []
    redundant = list(zip(*_pairs(sorted(repeated), base, span)))
    # A pair with an out-of-range id is redundant, but neither covered nor doubled.
    doubled = [p for p in redundant if p[0] >= 0 and p[1] < n]

    # Missing pairs are counted rather than listed and the search for
    # examples stops at the last one shown, so the work is bounded by the
    # slot count, not by the n(n-1)/2 pairs the declared n implies.
    decoded = zip(*_pairs(codes, base, span)) if out_of_range else ()
    covered = len(codes) - sum(lo < 0 or hi >= n for lo, hi in decoded)
    missing = n * (n - 1) // 2 - covered if n >= 2 else 0
    if missing:
        absent = ((a, b) for a in range(n) for b in range(a + 1, n) if a * span + b not in codes)
        examples = list(islice(absent, EXAMPLES))
        violations.append(f"{missing} class pairs never adjacent, e.g. {examples}")
    if n % 2 and doubled:
        violations.append(f"odd n: pairs adjacent more than once: {doubled[:EXAMPLES]}")
    elif n % 2 == 0:
        over = [(a, b) for a, b in doubled if codes[a * span + b] > 2]
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

    return ValidationReport(n, len(slots), expected, codes, base, span, redundant, counts, ends,
                            violations)
