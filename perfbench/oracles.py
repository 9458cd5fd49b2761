"""Output checks for every benchmark command, computed without importing xbar.

Each check returns a list of problems; an empty list means the output is
correct.  Expected values come from brute-force reference code written
here (stable sort, the tie rule, pair counting, cycle scanning), except
depth reports, which do not depend on the seed and are compared against
a table recorded from the seed version of the program.
"""

import json
from collections import Counter

PHASES = 7
HELP_PREFIX = b"usage: xbar"

# `xbar depth` stdout recorded from the seed version of the program.
DEPTH_TABLE = {
    ("threshold-rank", 64, "2"): "depth 8 (fanin 2, 28160 gates, max threshold fan-in 64)",
    ("adder-tree", 1024, "2"): "depth 40 (fanin 2, 8275 gates)",
    ("min", 128, "unbounded"): "depth 2 (fanin unbounded, 135 gates)",
    ("threshold-rank", 4, "2"): "depth 4 (fanin 2, 64 gates, max threshold fan-in 4)",
    ("adder-tree", 8, "2"): "depth 8 (fanin 2, 37 gates)",
    ("min", 4, "unbounded"): "depth 2 (fanin unbounded, 6 gates)",
}


def slot_count(n: int) -> int:
    """Minimal PE count: n^2/2 for even n >= 4, n(n-1)/2 + 1 for odd n."""
    if n == 2:
        return 2
    return n * n // 2 if n % 2 == 0 else n * (n - 1) // 2 + 1


def trace_lines(n: int) -> int:
    """Trace events: n clears, one load per slot, 5 per crosspoint, n ranks."""
    slots = slot_count(n)
    return 2 * n + slots + 5 * (slots - 1)


def stable_order(values) -> list[int]:
    return sorted(range(len(values)), key=lambda i: (values[i], i))


def stable_ranks(values) -> list[int]:
    ranks = [0] * len(values)
    for pos, i in enumerate(stable_order(values)):
        ranks[i] = pos
    return ranks


def beats(values, i: int, k: int) -> int:
    """Tie rule: t[i][k] = 1 iff A[k] < A[i], or A[k] == A[i] with k < i."""
    return int(values[k] < values[i] or (values[k] == values[i] and k < i))


def _json(stdout: bytes, errors: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


def _twrite_problems(values, cells: list[tuple[int, int, int]]) -> list[str]:
    """`cells` are (row, col, value) of every twrite event in a trace."""
    n = len(values)
    errors = []
    if len(cells) != slot_count(n) - 1:
        errors.append(f"{len(cells)} twrite events, expected one per crosspoint "
                      f"({slot_count(n) - 1})")
    bad = [(r, c) for r, c, v in cells if v != 1 or not 0 <= r < n or not 0 <= c < n
           or not beats(values, r, c)]
    if bad:
        errors.append(f"{len(bad)} twrite cells disagree with the tie rule, e.g. {bad[:3]}")
    distinct = {(r, c) for r, c, _ in cells}
    if len(distinct) != n * (n - 1) // 2:
        errors.append(f"twrite events cover {len(distinct)} cells, expected {n * (n - 1) // 2}")
    return errors


def check_sort_json(cmd, stdout: bytes) -> list[str]:
    errors: list[str] = []
    doc = _json(stdout, errors)
    if doc is None:
        return errors
    values, n = list(cmd.values), cmd.n
    if doc.get("n") != n or doc.get("input") != values:
        errors.append("n or input echo differs from the generated input")
    if len(doc.get("slots", ())) != slot_count(n):
        errors.append(f"{len(doc.get('slots', ()))} slots, expected {slot_count(n)}")
    t = doc.get("t", [])
    if len(t) != n or any(len(row) != n for row in t):
        errors.append("matrix t is not n x n")
    else:
        bad = [(i, k) for i in range(n) for k in range(n) if t[i][k] != beats(values, i, k)]
        if bad:
            errors.append(f"{len(bad)} matrix cells break the tie rule, e.g. {bad[:3]}")
    if doc.get("ranks") != stable_ranks(values):
        errors.append("ranks differ from the stable-sort oracle")
    if doc.get("order") != stable_order(values):
        errors.append("order differs from the stable-sort oracle")
    if doc.get("phase_count") != PHASES:
        errors.append(f"phase_count {doc.get('phase_count')} != {PHASES}")
    want = n // 2 - 1 if n % 2 == 0 else 0
    if len(doc.get("conflicts", ())) != want:
        errors.append(f"{len(doc.get('conflicts', ()))} conflicts, expected {want}")
    if cmd.trace is not None:
        errors += check_trace_jsonl(cmd)
    return errors


def check_trace_jsonl(cmd) -> list[str]:
    try:
        with open(cmd.trace) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"cannot read trace: {exc}"]
    errors = []
    if len(lines) != trace_lines(cmd.n):
        errors.append(f"trace has {len(lines)} lines, expected {trace_lines(cmd.n)}")
    cells = []
    for line in lines:
        if '"twrite"' in line:
            ev = json.loads(line)
            cells.append((ev.get("row"), ev.get("col"), ev.get("value")))
    return errors + _twrite_problems(cmd.values, cells)


def check_sort_csv(cmd, stdout: bytes) -> list[str]:
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != "phase,slot,action,value,row,col":
        return ["missing CSV header"]
    errors = []
    rows = lines[1:]
    if len(rows) != trace_lines(cmd.n):
        errors.append(f"CSV has {len(rows)} event rows, expected {trace_lines(cmd.n)}")
    cells = []
    for row in rows:
        parts = row.split(",")
        if len(parts) == 6 and parts[2] == "twrite":
            cells.append((int(parts[4]), int(parts[5]), int(parts[3])))
    return errors + _twrite_problems(cmd.values, cells)


def _check_index(stdout: bytes, want) -> list[str]:
    errors: list[str] = []
    doc = _json(stdout, errors)
    if doc is not None and doc != {"index": want, "exact": True}:
        errors.append(f"got {doc}, expected index {want}")
    return errors


def check_min(cmd, stdout: bytes) -> list[str]:
    return _check_index(stdout, stable_order(cmd.values)[0])


def check_max(cmd, stdout: bytes) -> list[str]:
    return _check_index(stdout, stable_order(cmd.values)[-1])


def check_rank(cmd, stdout: bytes) -> list[str]:
    return _check_index(stdout, stable_order(cmd.values)[cmd.r])


def check_search(cmd, stdout: bytes) -> list[str]:
    hits = [i for i, v in enumerate(cmd.values) if v == cmd.key]
    return _check_index(stdout, hits[0] if hits else None)


def check_build(cmd, stdout: bytes) -> list[str]:
    errors: list[str] = []
    doc = _json(stdout, errors)
    if doc is None:
        return errors
    n, slots = cmd.n, doc.get("slots", [])
    if doc.get("n") != n or len(slots) != slot_count(n):
        errors.append(f"layout has n={doc.get('n')} and {len(slots)} slots, "
                      f"expected n={n} and {slot_count(n)}")
    if len(doc.get("provenance", ())) != len(slots):
        errors.append("provenance length differs from slot count")
    if any(not 0 <= c < n for c in slots):
        errors.append("slot class id out of range")
    if any(a == b for a, b in zip(slots, slots[1:])):
        errors.append("two adjacent slots share a class")
    cover = Counter((min(a, b), max(a, b)) for a, b in zip(slots, slots[1:]))
    if len(cover) != n * (n - 1) // 2:
        errors.append(f"{len(cover)} class pairs adjacent, expected {n * (n - 1) // 2}")
    doubled = sum(1 for c in cover.values() if c == 2)
    want = n // 2 - 1 if n % 2 == 0 else 0
    if doubled != want or max(cover.values(), default=0) > 2:
        errors.append(f"{doubled} doubled pairs, expected {want}")
    return errors


def check_validate(cmd, stdout: bytes) -> list[str]:
    lines = stdout.decode().splitlines()
    pes = slot_count(cmd.n)
    if not lines or lines[0] != f"{pes} PEs (minimal: {pes})" or lines[-1] != "ok":
        return [f"validate report is not a clean {pes}-PE layout: {lines[:1]} ... {lines[-1:]}"]
    return []


def perm_text(n: int) -> str:
    """The Q partition of `xbar perm --n n`, found by scanning every start element."""
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(n // 2)]
    for j in range(1, n // 2 + 1):
        seen: set[int] = set()
        for start in range(n):
            if start in seen:
                continue
            cyc = [start]
            cur = (start + j) % n
            while cur != start:
                cyc.append(cur)
                cur = (cur + j) % n
            seen.update(cyc)
            groups[min(cyc)].append(tuple(cyc))
    return "".join(
        f"Q{i}: " + " ".join("(" + ",".join(map(str, c)) + ")" for c in group) + "\n"
        for i, group in enumerate(groups)
    )


def check_perm(cmd, stdout: bytes) -> list[str]:
    return [] if stdout.decode() == perm_text(cmd.n) else ["Q partition differs from the oracle"]


def check_depth(cmd, stdout: bytes) -> list[str]:
    argv = list(cmd.argv)
    fanin = argv[argv.index("--fanin") + 1] if "--fanin" in argv else "unbounded"
    want = DEPTH_TABLE[(argv[argv.index("--circuit") + 1], cmd.n, fanin)]
    got = stdout.decode().strip()
    return [] if got == want else [f"depth report {got!r} != recorded {want!r}"]


CHECKS = {
    "sort_json": check_sort_json,
    "sort_csv": check_sort_csv,
    "min": check_min,
    "max": check_max,
    "rank": check_rank,
    "search": check_search,
    "build": check_build,
    "validate": check_validate,
    "perm": check_perm,
    "depth": check_depth,
}


def check(cmd, returncode, stdout: bytes) -> list[str]:
    """Problems with one command's result: exit code first, then its output."""
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    return CHECKS[cmd.check](cmd, stdout)
