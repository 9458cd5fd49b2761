"""A fixed pure-Python workload that times the host, not the program.

``run.py`` runs this script as a child before every command of a pass
and divides the pass's wall time by the summed wall time of these runs.
The host's speed drifts by tens of percent over seconds to minutes; both
sides of the ratio drift with it, so ``wall_rel`` keeps only what the
program itself changes.

The work resembles the program's: interpreter start, an n-by-n compare
loop that builds slotted dataclass events, row sums and JSON dumps.  It
imports nothing from xbar and never changes, so the parent commit and a
later one are measured in the same units.  It prints one checksum, which
``run.py`` compares with ``CHECKSUM``.
"""

import json
from dataclasses import dataclass

N, ROUNDS = 120, 3
CHECKSUM = 1134237


@dataclass(frozen=True, slots=True)
class Event:
    action: str
    slot: int
    value: int


def one_round(n: int, seed: int) -> int:
    values = [(seed * 7919 + i * 104729) % 1009 for i in range(n)]
    bits = [[0] * n for _ in range(n)]
    events = []
    for i, a in enumerate(values):
        row = bits[i]
        for k, b in enumerate(values):
            if b < a or (b == a and k < i):
                row[k] = 1
                events.append(Event("write", i, b))
    ranks = [sum(row) for row in bits]
    lines = [json.dumps({"action": e.action, "slot": e.slot, "value": e.value})
             for e in events]
    return sum(ranks) + len("\n".join(lines)) + len(json.dumps(bits))


def checksum() -> int:
    return sum(one_round(N, seed) for seed in range(ROUNDS))


if __name__ == "__main__":
    print(checksum())
