"""Command-line front end: build, validate, sort, query, inspect.

Thin adapters around the library; no logic beyond parsing, dispatch and
formatting.  Exit codes: 0 success, 1 validation violations, 2 usage or
data errors (a data error is any ValueError, printed as ``error: ...``),
141 (128 + SIGPIPE) when the reader closes stdout early.
Input arrays come inline (comma-separated), from a file (one value per
line), or, when omitted, from a seeded generator (``--seed`` or the
``XBAR_SEED`` environment variable).

Each handler imports the layers it runs, so a command loads only what it
uses.  ``build`` and ``validate`` load `array_builder` (which builds on
`cyclic_perm`); ``sort`` adds `pe_simulator`; ``rank``, ``min`` and
``max`` add `query_circuits` and its `netlist` to that; ``search`` and
``depth`` load `query_circuits` and `netlist` only (``depth`` runs the
builder `query_circuits.CIRCUITS` holds for its ``--circuit``); ``perm`` loads
`cyclic_perm` only; ``--help`` loads no other layer.  Only ``sort --trace``
and ``sort --format csv`` load `trace_text`.  Only `_emit_json` and
``validate --layout`` import `json`: every other JSON document is written
from a `%` template, each value in 0..n-1 looked up in one table, `_ids(n)`.

Each subcommand's options are declared once, in `_COMMANDS`.  A well-formed
command line, ``command (--flag value)*`` with full flag names, each at most
once and valid, and no value starting with ``-``, is read from that table
without importing argparse; help, usage errors and any other form go through
the argparse parser built from the same table.
"""

import io
import os
import sys
from itertools import chain, count
from types import SimpleNamespace


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return int(os.environ.get("XBAR_SEED", "0"))
    except ValueError as exc:
        raise ValueError(f"XBAR_SEED must be an integer: {exc}") from None


def _parse_values(raw: str) -> list[int]:
    text = raw.strip()
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        pass
    if not os.path.exists(text):
        raise ValueError(f"--input {raw!r} is neither a comma-separated int list nor a file")
    values = []
    try:
        with open(text) as fh:
            for lineno, line in enumerate(map(str.strip, fh), start=1):
                if not line:
                    continue
                try:
                    values.append(int(line))
                except ValueError:
                    raise ValueError(f"{text}:{lineno}: not an integer: {line!r}") from None
    except OSError as exc:
        raise ValueError(f"cannot read --input {text}: {exc}") from None
    return values


def _input_values(args, n: int) -> list[int]:
    if args.input is not None:
        values = _parse_values(args.input)
        if len(values) != n:
            raise ValueError(f"--input supplies {len(values)} values but --n is {n}")
        return values
    import random

    rng = random.Random(_resolve_seed(args))
    return [rng.randrange(0, 100) for _ in range(n)]


MAX_N = 2048  # the largest --n any command takes; at it, each finishes within about 10 s


def _type_error(message: str):
    import argparse  # only argparse reads the error, so only a refused value loads it
    return argparse.ArgumentTypeError(message)


def _n(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise _type_error(f"invalid int value: {text!r}") from None
    if n > MAX_N:
        raise _type_error(f"at most {MAX_N} classes, got {n}")
    return n


def _fanin(text: str):
    if text == "unbounded":
        return "unbounded"
    try:
        b = int(text)
    except ValueError:
        raise _type_error("fanin must be 'unbounded' or an integer >= 2")
    if b < 2:
        raise _type_error("finite fanin must be >= 2")
    return b


def _emit_json(doc) -> None:
    import json
    print(json.dumps(doc))


def _ids(n: int) -> list[str]:
    """Text of 0..n-1, made once per command: every such id, rank or index the CLI prints."""
    return list(map(str, range(n)))


def _int_list(ints) -> str:
    """The JSON text of a list of ints, as json.dumps writes it, from one `%` template."""
    return "[" + ("%d, " * len(ints) % tuple(ints))[:-2] + "]"


def _cmd_build(args) -> int:
    from . import array_builder

    slots = list(map(_ids(args.n).__getitem__, array_builder.build(args.n).slots))
    if args.format == "json":
        # The bytes json.dumps would write: no provenance tag holds a quote or a backslash.
        sys.stdout.write('{"n": %d, "slots": [%s], "provenance": ["%s"]}\n' % (
            args.n, ", ".join(slots), array_builder.provenance_text(args.n, '", "')))
    elif args.format == "csv":
        rows = zip(count(), slots, array_builder.provenance(args.n))
        sys.stdout.write("slot,class,provenance\n" + "%d,%s,%s\n" * len(slots)
                         % tuple(chain.from_iterable(rows)))
    else:
        print("-".join(slots))
        print(f"{len(slots)} PEs, {len(slots) - 1} crosspoints")
    return 0


def _cmd_validate(args) -> int:
    from . import array_builder

    if args.layout is not None:
        import json
        try:
            with open(args.layout) as fh:
                layout = array_builder.Layout.from_json_dict(json.load(fh))
        except (OSError, ValueError, KeyError, RecursionError) as exc:
            raise ValueError(f"cannot read layout from {args.layout}: {exc}") from None
    else:
        layout = array_builder.build(args.n)
    if args.format == "json" and layout.n > len(layout.slots):
        raise ValueError(f"--format json needs n <= slots: n {layout.n}, {len(layout.slots)} slots")
    report = array_builder.validate(layout)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    elif args.format == "csv":
        columns = report.pair_columns()
        sys.stdout.write("pair,count\n" + "%d-%d,%d\n" * len(columns[0])
                         % tuple(chain.from_iterable(zip(*columns))))
    else:
        print(f"{report.pe_count} PEs (minimal: {report.expected_pe_count})")
        print(f"ends: {report.end_classes[0]} ... {report.end_classes[1]}")
        dup = " ".join(f"{a}-{b}" for a, b in report.redundant_pairs) or "none"
        print(f"doubled pairs: {dup}")
        if report.ok:
            print("ok")
        else:
            for v in report.violations:
                print(f"violation: {v}")
    return 0 if report.ok else 1


def _run_sort(args):
    from . import array_builder, pe_simulator

    return pe_simulator.sort(array_builder.build(args.n), _input_values(args, args.n))


def _write_trace(trace, path: str) -> None:
    """Stream the trace as JSON lines to the file `path`.

    The file is opened in binary, so it takes the trace's bytes as made, the same on
    every platform.  An OSError from the file, on open, write or close, becomes a
    ValueError.
    """
    try:
        with open(path, "wb") as fh:
            trace.write(jsonl=fh.write)
    except OSError as exc:
        raise ValueError(f"cannot write trace to {path}: {exc}") from None


def _cmd_sort(args) -> int:
    from . import pe_simulator

    bits, ranks, trace = _run_sort(args)
    if args.trace is not None:
        _write_trace(trace, args.trace)  # before stdout, so a failed trace leaves it empty
    if args.format == "csv":
        # The CSV goes to stdout as text: it may be a StringIO, as when run in process.
        trace.write(csv=lambda chunk: sys.stdout.write(chunk.decode()))
        return 0
    layout, values = trace.layout, trace.values
    order = sorted(range(layout.n), key=ranks.__getitem__)  # element indices in sorted order
    conflicts = pe_simulator.detect_write_conflicts(trace)
    digits = bytes.maketrans(b"\0\1", b"01")
    rows = [row.translate(digits).decode() for row in bits]  # each 0/1 row as its digits
    name = _ids(layout.n).__getitem__  # slots, ranks and order all lie in 0..n-1
    if args.format == "json":
        # The bytes of json.dumps(doc), with each matrix row written from its digits.
        cells = ['{"row": %d, "col": %d, "slots": %s}' % (row, col, _int_list(slots))
                 for row, col, slots in conflicts]
        sys.stdout.write('{"n": %d, "slots": [%s], "input": %s, "t": [%s], "ranks": [%s], '
                         '"order": [%s], "phase_count": %d, "conflicts": [%s]}\n' % (
            layout.n, ", ".join(map(name, layout.slots)), _int_list(values),
            ", ".join("[" + ", ".join(row) + "]" for row in rows),
            *(", ".join(map(name, ids)) for ids in (ranks, order)),
            pe_simulator.phase_count(trace), ", ".join(cells)))
    else:
        sys.stdout.write("".join(row + "\n" for row in rows))
        print("R: " + " ".join(map(name, ranks)))
        print("sorted: " + " ".join(str(values[i]) for i in order))
        print(f"phases: {pe_simulator.phase_count(trace)}")
        if conflicts:
            for row, col, slots in conflicts:
                print(f"conflict: T[{row}][{col}] slots {','.join(map(str, slots))}")
        else:
            print("conflicts: none")
    return 0


def _cmd_index(args) -> int:
    from . import query_circuits

    if args.command == "search":
        if args.n < 2:
            raise ValueError(f"need at least 2 classes, got n={args.n}")
        index = query_circuits.search(_input_values(args, args.n), args.key)
    elif args.command == "rank":
        index = query_circuits.select_rank(_run_sort(args)[0], args.r)
    else:
        index = getattr(query_circuits, f"{args.command}_index")(_run_sort(args)[0])
    if args.format == "json":
        sys.stdout.write('{"index": %s, "exact": true}\n' % ("null" if index is None else index))
    else:
        print(f"index {'none' if index is None else index}")
    return 0


_CIRCUIT_NAMES = ("adder-tree", "encoder", "max", "min", "ones-counter", "priority-encoder",
                  "threshold-rank")  # `query_circuits.CIRCUITS`'s keys, sorted for help


def __getattr__(name: str):
    """`_CIRCUITS`: `query_circuits.CIRCUITS`, looked up on access (PEP 562), not at import.

    `perfbench` patches the `xbar depth` table through this name until it spans `query_circuits`.
    """
    if name != "_CIRCUITS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .query_circuits import CIRCUITS
    return CIRCUITS


def _cmd_depth(args) -> int:
    from .netlist import series_depth
    from .query_circuits import CIRCUITS

    report = series_depth(CIRCUITS[args.circuit](args.n), args.fanin)
    if args.format == "json":
        _emit_json(report._asdict())
    else:
        width = report.max_threshold_fanin
        extra = "" if width is None else f", max threshold fan-in {width}"
        print(f"depth {report.depth} (fanin {report.fanin_limit}, {report.gate_count} gates{extra})")
    return 0


def _cmd_perm(args) -> int:
    from .cyclic_perm import cycle_decomposition, partition_Q

    if args.j is not None:
        cycles = cycle_decomposition(args.n, args.j)
        if args.format == "json":
            _emit_json({"n": args.n, "j": args.j, "cycles": cycles})
        else:
            name = _ids(args.n).__getitem__
            print("".join("(" + ",".join(map(name, c)) + ")" for c in cycles))
        return 0
    if args.n < 2:
        raise ValueError(f"need at least 2 classes, got n={args.n}")
    if args.n % 2:
        raise ValueError("the cycle partition needs even --n; pass --j to inspect one power")
    if args.format == "json":
        _emit_json({"n": args.n, "sets": partition_Q(args.n)})
    else:
        groups = partition_Q(args.n, _ids(args.n))  # cycles of id strings
        sys.stdout.write("".join(f"Q{i}: (" + ") (".join(map(",".join, g)) + ")\n"
                                 for i, g in enumerate(groups)))
    return 0


_FORMAT = ("--format", {"choices": ("text", "json", "csv"), "default": "text"})
_FORMAT_NO_CSV = ("--format", {"choices": ("text", "json"), "default": "text"})
_N_ARG = ("--n", {"type": _n, "required": True})
_VALUES = (("--n", {"type": _n, "required": True, "help": "number of classes"}),
           ("--input", {"help": "comma-separated values or a file, one value per line"}),
           ("--seed", {"type": int, "help": "seed for generated input (default: $XBAR_SEED or 0)"}))

# Each subcommand's handler name, help and options, in help order, as (flag,
# add_argument keywords); "group" marks validate's --n and --layout, exactly one given.
_COMMANDS = {
    "build": ("_cmd_build", "construct the minimal layout for n classes", (_VALUES[0], _FORMAT)),
    "validate": ("_cmd_validate", "check a layout's structural claims", (
        ("--n", {"type": _n, "group": True, "help": "build and validate the layout for n classes"}),
        ("--layout", {"group": True, "help": "validate a layout JSON file instead"}), _FORMAT)),
    "sort": ("_cmd_sort", "run the phase-level enumeration sort", (*_VALUES, _FORMAT,
             ("--trace", {"help": "also dump the full trace as JSON lines to this path"}))),
    **{name: ("_cmd_index", f"index of the {name}imum via the gate circuit",
              (*_VALUES, _FORMAT_NO_CSV)) for name in ("min", "max")},
    "rank": ("_cmd_index", "index of the element with a given rank", (*_VALUES, _FORMAT_NO_CSV,
             ("--r", {"type": int, "required": True, "help": "target rank (0 = smallest)"}))),
    "search": ("_cmd_index", "smallest class index holding the key",
               (*_VALUES, _FORMAT_NO_CSV, ("--key", {"type": int, "required": True}))),
    "depth": ("_cmd_depth", "critical-path depth of a query circuit", (
        ("--circuit", {"choices": _CIRCUIT_NAMES, "required": True}), _N_ARG,
        ("--fanin", {"type": _fanin, "default": "unbounded",
                     "help": "'unbounded' or an integer fan-in limit >= 2"}), _FORMAT_NO_CSV)),
    "perm": ("_cmd_perm", "inspect shift powers and their cycle partition", (
        _N_ARG, ("--j", {"type": int, "help": "exponent; omit to list the Q partition"}),
        _FORMAT_NO_CSV)),
}


def _build_parser():
    import argparse
    parser = argparse.ArgumentParser(prog="xbar", description="1D crosspoint arrays: build "
                                     "layouts, simulate sorts, query circuits.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in _COMMANDS.items():
        p = subs.add_parser(name, help=summary)
        group = p.add_mutually_exclusive_group(required=True) if any(
            "group" in kw for _, kw in options) else p
        for flag, kw in options:
            kw = dict(kw)
            (group if kw.pop("group", False) else p).add_argument(flag, **kw)
        p.set_defaults(func=globals()[handler])  # looked up now, so a stand-in handler runs
    return parser


def _parse_exact(argv):
    """argparse's namespace for a well-formed argv (see the module docstring), else None."""
    command, *rest = argv or [None]
    if command not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[command]
    given = dict(zip(rest[::2], rest[1::2]))
    grouped = [flag in given for flag, kw in options if "group" in kw]
    if len(given) * 2 != len(rest) or not given.keys() <= dict(options).keys() \
            or any(text[:1] == "-" for text in given.values()) or grouped and sum(grouped) != 1:
        return None
    args = {"command": command, "func": globals()[handler]}
    for flag, kw in options:
        text = given.get(flag)
        try:
            value = kw.get("default") if text is None else kw.get("type", str)(text)
        except Exception:  # any refusal: argparse calls the type again and reports it
            return None
        if text is None and kw.get("required") or value not in kw.get("choices", (value,)):
            return None
        args[flag[2:]] = value
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_exact(argv) or _build_parser().parse_args(argv)
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # Unbuffered stdout (python -u, PYTHONUNBUFFERED) drops the rest of a short
        # write without an error; a BufferedWriter retries it, so a closed pipe raises.
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer), out.encoding, out.errors,
                                      line_buffering=out.line_buffering)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that closed early shows up here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Assumes the pipe is stdout, the only unguarded writer (trace file errors
        # are ValueError). Exit as SIGPIPE would; fd 1 to devnull so exit's flush can't raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if sys.stdout is not out:  # hand back the caller's stream, its raw file left open
            wrapper, sys.stdout = sys.stdout, out
            wrapper.detach().detach()


if __name__ == "__main__":
    raise SystemExit(main())
