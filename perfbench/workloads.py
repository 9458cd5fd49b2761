"""Seeded command lists for the benchmark's four workloads.

Every input the program sees is generated here from the workload seed:
value files (passed as ``--input FILE``), the target rank ``r``, the
search key, and the layout file (the stdout of a ``build`` earlier in the
same list).  The same seed always gives the same commands and inputs.

Sizes were chosen so that each command takes roughly 0.15-2 s on a
2-core host and one pass over a list takes 2-4 s.  n=1024 is left out:
``sort`` takes about 9 s there and ``to_jsonl`` about 13 s.
"""

import os
import random
from dataclasses import dataclass

NAMES = ("sort", "trace", "query", "structure")


@dataclass(frozen=True)
class Command:
    """One ``python -m xbar.cli`` invocation and what its oracle needs."""

    argv: tuple[str, ...]
    check: str
    n: int = 0
    values: tuple[int, ...] | None = None
    input_path: str | None = None
    r: int | None = None
    key: int | None = None
    trace: str | None = None
    save_stdout: str | None = None

    def line(self) -> str:
        return "python -m xbar.cli " + " ".join(self.argv)


def tie_heavy(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(8) for _ in range(n)]


def distinct_wide(rng: random.Random, n: int) -> list[int]:
    """Distinct values, a third each negative, small, and above 2**64.

    Every band has a fixed digit count, so the printed size of the input,
    and of every trace line that carries a value, is the same for every seed.
    """
    bands = ((-10 ** 21 + 1, -10 ** 20), (10 ** 9, 10 ** 10), (10 ** 20, 10 ** 21))
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < n:
        v = rng.randrange(*bands[len(out) % 3])
        if v not in seen:
            seen.add(v)
            out.append(v)
    rng.shuffle(out)
    return out


def bounded(rng: random.Random, n: int, hi: int, lo: int = 0) -> list[int]:
    return [rng.randrange(lo, hi) for _ in range(n)]


class _Builder:
    """Collects commands, naming each generated file inside `workdir`."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.commands: list[Command] = []

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, f"{len(self.commands):02d}-{stem}")

    def valued(self, sub: str, check: str, values: list[int], *extra: str, **kw) -> None:
        n = len(values)
        inp = self.path(f"{sub}-n{n}.txt")
        argv = (sub, "--n", str(n), "--input", inp, *extra)
        self.commands.append(
            Command(argv, check, n=n, values=tuple(values), input_path=inp, **kw)
        )

    def plain(self, check: str, n: int, *argv: str, **kw) -> None:
        self.commands.append(Command(tuple(argv), check, n=n, **kw))


# Full and tiny sizes per workload; tiny sizes feed the self-test.
SIZES = {
    False: {"sort": (255, 256), "trace": (255, 256, 128),
            "query": (128, 128, 127, 256),
            "structure": (512, 511, 512, 64, 1024, 128)},
    True: {"sort": (5, 4), "trace": (5, 4, 4),
           "query": (5, 4, 5, 6),
           "structure": (4, 5, 4, 4, 8, 4)},
}


def make_commands(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Command]:
    """The command list of `workload` for `seed`, with files under `workdir`."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[tiny][workload]
    b = _Builder(workdir)

    if workload == "sort":
        # Odd n has no write conflicts, even n has n/2-1; ties and wide
        # distinct values take opposite compare branches.
        for n in sizes:
            b.valued("sort", "sort_json", tie_heavy(rng, n), "--format", "json")
            b.valued("sort", "sort_json", distinct_wide(rng, n), "--format", "json")

    elif workload == "trace":
        n_odd, n_even, n_csv = sizes
        for n, values in ((n_odd, distinct_wide(rng, n_odd)), (n_even, tie_heavy(rng, n_even))):
            trace = b.path(f"trace-n{n}.jsonl")
            b.valued("sort", "sort_json", values, "--trace", trace, "--format", "json",
                     trace=trace)
        b.valued("sort", "sort_csv", bounded(rng, n_csv, 1000, 100), "--format", "csv")

    elif workload == "query":
        n_rank, n_min, n_max, n_search = sizes
        values = bounded(rng, n_rank, n_rank // 2)
        r = rng.randrange(n_rank)
        b.valued("rank", "rank", values, "--r", str(r), "--format", "json", r=r)
        # Few distinct values, so the minimum and maximum are tied and the
        # first/last tie rule decides the index.
        b.valued("min", "min", bounded(rng, n_min, 16), "--format", "json")
        b.valued("max", "max", bounded(rng, n_max, 16), "--format", "json")
        for present in (True, False):
            values = bounded(rng, n_search, max(2, n_search // 4))
            # An absent key leaves the encoder's valid wire low.
            key = rng.choice(values) if present else max(values) + 1 + rng.randrange(100)
            b.valued("search", "search", values, "--key", str(key), "--format", "json",
                     key=key)

    else:  # structure
        n_build, n_validate, n_perm, n_thr, n_adder, n_min = sizes
        layout = b.path(f"layout-n{n_build}.json")
        b.plain("build", n_build, "build", "--n", str(n_build), "--format", "json",
                save_stdout=layout)
        b.plain("validate", n_build, "validate", "--layout", layout)
        b.plain("validate", n_validate, "validate", "--n", str(n_validate))
        b.plain("perm", n_perm, "perm", "--n", str(n_perm))
        b.plain("depth", n_thr, "depth", "--circuit", "threshold-rank", "--n", str(n_thr),
                "--fanin", "2")
        b.plain("depth", n_adder, "depth", "--circuit", "adder-tree", "--n", str(n_adder),
                "--fanin", "2")
        b.plain("depth", n_min, "depth", "--circuit", "min", "--n", str(n_min))

    return b.commands


def write_inputs(commands: list[Command]) -> None:
    """Write each command's value file, one integer per line."""
    for cmd in commands:
        if cmd.input_path is not None:
            with open(cmd.input_path, "w") as fh:
                fh.write("\n".join(str(v) for v in cmd.values) + "\n")
