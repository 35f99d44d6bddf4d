"""Command-line front end: solve, verify, oracle and reduce subcommands.

Results go to stdout as JSON, a one-line summary goes to stderr.  Exit
codes: 0 success, 1 failed verification, 2 input or parse errors, 3
search limit violations.  solve and oracle write their packing document
as text chunks, one per tree and then the tail (core._document), byte
for byte what json.dumps of packing_to_dict gives.  An exact solve,
complete or tree, knows the optimum before it builds a tree and prints
the summary first; its solver's _packing_text then yields the trees as
_emit asks for them (complete: root paths and adoption runs; tree: the
walk's granted levels), so the solve holds no parent map and no
document-sized string, only its solver's per-vertex state and one
tree's text, and --value-only takes the optimum and builds no tree.  A
greedy solve and oracle write from their parent maps
(core._packing_chunks).  The other results are small dicts passed to
json.dumps.  Every document reaches stdout, and the -o file, as a
sequence of text chunks.

The cyclic garbage collector is paused for the length of each command
and put back as the caller had it.  A call builds up to about a million
small containers (parsed JSON, parent maps, edge lists) with no
reference cycles, which reference counting frees; the collector's
repeated sweeps over them would only cost time.

Options are read from one table, COMMANDS, which also prints --help and
the usage line of a usage error (exit 2).  A value is the next word, or
follows "=" or a short flag (-ifile); a next word starting with "-" is a
value only if it is "-" or a negative number.  The last repeat wins.

verify parses the packing document and prints the report of
verifier.verify_document, which alone judges it.

A call loads, and compiles, only the modules its command runs: this
module imports core alone, and each solver and verifier entry point
below is a stand-in that imports its submodule when first called.
The console script and ``python -m treepack.cli`` go through run(),
which flushes the standard streams and ends the process without
tearing the interpreter down.
"""

import gc
import json
import os
import re
import stat
import sys
from collections.abc import Iterable
from contextlib import ExitStack
from types import SimpleNamespace

from .core import (
    SearchLimitExceeded,
    _on_first_call,
    _packing_chunks,
    _parse,
    instance_to_dict,
    load_instance,
    objective,
    packing_to_dict,  # unused here; the benchmark's tracer swaps cli.packing_to_dict
)


complete_text = _on_first_call("complete_solver", "_packing_text")
tree_text = _on_first_call("tree_solver", "_packing_text")
solve_tree = _on_first_call("tree_solver", "solve_tree")  # unused here; the benchmark's tracer swaps it
greedy_general = _on_first_call("greedy", "greedy_general")
brute_force_solve = _on_first_call("oracle", "brute_force_solve")
load_dimacs = _on_first_call("reduction", "load_dimacs")
reduce_3sat = _on_first_call("reduction", "reduce_3sat")
verify_document = _on_first_call("verifier", "verify_document")
verify_packing = _on_first_call("verifier", "verify_packing")  # unused here; the benchmark's tracer swaps it

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read(path: str, load, *args):
    """load(fh, *args) on the file at path, opened for binary reading."""
    with open(path, "rb") as fh:
        return load(fh, *args)


def _write(path: str, chunks: Iterable[str], *more: tuple[str, Iterable[str]], echo=None) -> None:
    """Write the chunks over path, then each (path, chunks) pair of more, in place.

    echo, if given, is called with each chunk just before it is written.
    Every path is opened before any chunk is written, and each file is
    closed, and a regular file trimmed to its end, before the next is
    written; devices and FIFOs are written but never truncated.  Opening
    without O_TRUNC matters: on ext4, truncating a file whose last
    contents are still being written back waits for that writeback.  The
    inode is kept, so symlinks are followed and links, mode and owner
    survive.  If an open or a write fails, every file is closed, each one
    this call created is removed, and the error propagates; a file that
    existed and was not yet written keeps its bytes.
    """
    outputs = [(path, chunks), *more]
    with ExitStack() as undo:
        files = []
        for path, _ in outputs:
            made = not os.path.lexists(path)
            files.append(undo.enter_context(open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb")))
            if made:
                undo.callback(os.remove, path)
        for fh, (_, chunks) in zip(files, outputs):
            with fh:
                for chunk in chunks:
                    if echo is not None:
                        echo(chunk)
                    fh.write(chunk.encode("utf-8"))
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
        undo.pop_all()  # every file is written: keep them


def _emit(chunks: Iterable[str], path: str | None = None) -> None:
    """Print a document's text chunks, and write the same chunks over path if given.

    path is opened before the first chunk, so a path that cannot be
    opened fails the command before anything reaches stdout.
    """
    if sys.stdout is None:  # file descriptor 1 was closed when Python started
        raise OSError("standard output is closed")
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        _write(path, chunks, echo=sys.stdout.write)


def _note(message: str) -> None:
    """Print a summary or error line to stderr; if stderr is closed, drop it."""
    try:
        sys.stderr.write(message + "\n")
    except (AttributeError, OSError):  # no stream, or a closed descriptor
        pass


def cmd_solve(args: SimpleNamespace) -> int:
    inst = _read(args.instance, load_instance)
    alg = inst.kind if args.alg == "auto" else args.alg  # the kind names its exact solver
    if alg == "general":
        alg = "greedy"
        _note("general instance: greedy baseline, result is heuristic, not optimal")
    if alg == "greedy":
        packing = greedy_general(inst)
        value, chunks = objective(packing), _packing_chunks(packing)
    else:  # the optimum now; the trees, one chunk each, as _emit asks for them
        value, chunks = (complete_text if alg == "complete" else tree_text)(inst)
    if args.value_only:
        chunks = [json.dumps({"objective": value}) + "\n"]
    _note(f"objective {value} ({alg}, kind={inst.kind}, n={inst.n}, K={inst.num_trees})")
    _emit(chunks, args.output)
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    inst = _read(args.instance, load_instance)
    report = verify_document(inst, _read(args.packing, _parse, "packing"))
    _emit([json.dumps(report) + "\n"])
    if report["valid"]:
        _note("packing is valid")
        return EXIT_OK
    _note(f"packing is invalid: {len(report['violations'])} violation(s)")
    return EXIT_INVALID


def cmd_oracle(args: SimpleNamespace) -> int:
    inst = _read(args.instance, load_instance)
    value, packing = brute_force_solve(inst, max_n=args.max_n, max_k=args.max_k)
    _note(f"exhaustive optimum {value} (n={inst.n}, K={inst.num_trees})")
    _emit(_packing_chunks(packing), args.output)
    return EXIT_OK


def _same_file(a: str, b: str) -> bool:
    """Do paths a and b name one file: one path once resolved, or one inode when both exist?"""
    both = os.path.exists(a) and os.path.exists(b)
    return os.path.realpath(a) == os.path.realpath(b) or both and os.path.samefile(a, b)


def cmd_reduce(args: SimpleNamespace) -> int:
    if args.labels is not None and _same_file(args.labels, args.output):
        raise ValueError(f"-o and --labels name the same file: {args.labels}")
    reduction = reduce_3sat(_read(args.cnf, load_dimacs))
    gadget, gamma = reduction.instance, reduction.gamma
    sidecar = []
    if args.labels is not None:
        labels = {str(v): role for v, role in sorted(reduction.labels.items())}
        sidecar.append((args.labels, [json.dumps({"gamma": gamma, "labels": labels}) + "\n"]))
    _write(args.output, [json.dumps(instance_to_dict(gadget)) + "\n"], *sidecar)  # both opened, then written
    summary = {"num_vertices": gadget.n, "num_edges": len(gadget.edges), "gamma": gamma}
    _emit([json.dumps(summary) + "\n"])
    _note(f"gadget written to {args.output}: {gadget.n} vertices, threshold {gamma}")
    return EXIT_OK


_INSTANCE = ("-i", "--instance"), ..., str, "instance JSON file"
_OUTPUT = ("-o", "--output"), None, str, "also write the result JSON here"

# Per command: handler, help, options.  Per option: flags (the last one names the
# attribute), default (... if required), kind (int, str, choices tuple, bool switch), help.
COMMANDS = {
    "solve": (cmd_solve, "solve an instance", [_INSTANCE, _OUTPUT,
        (("--alg",), "auto", ("auto", "greedy"), "solver (default auto)"),
        (("--value-only",), False, bool, "emit the objective only")]),
    "verify": (cmd_verify, "verify a packing against an instance",
        [_INSTANCE, (("-p", "--packing"), ..., str, "packing JSON file")]),
    "oracle": (cmd_oracle, "exhaustive exact search (small instances)", [_INSTANCE, _OUTPUT,
        (("--max-n",), 8, int, "vertex count limit (default 8)"),
        (("--max-k",), 3, int, "tree count limit (default 3)")]),
    "reduce": (cmd_reduce, "turn a 3-CNF into a packing instance", [
        (("--cnf",), ..., str, "DIMACS CNF file"),
        (("-o", "--output"), ..., str, "instance JSON to write"),
        (("--labels",), None, str, "sidecar JSON for the threshold and vertex roles")]),
}  # fmt: skip
_VALUE = {bool: "", int: " N", str: " FILE"}  # how help shows the value of each kind


def _exit(command: str | None, error: str = "") -> None:
    """Print usage and the error to stderr and exit 2, or help to stdout and exit 0."""
    usage = "usage: treepack {" + ",".join(COMMANDS) + "} ..."
    rows = [f"  {name:8} {about}" for name, (_, about, _) in COMMANDS.items()]
    if command:
        usage, rows = f"usage: treepack {command} [-h]", [f"{COMMANDS[command][1]}:"]
        for flags, default, kind, text in COMMANDS[command][2]:
            value = " {" + ",".join(kind) + "}" if isinstance(kind, tuple) else _VALUE[kind]
            usage += f" {flags[0]}{value}" if default is ... else f" [{flags[0]}{value}]"
            rows.append(f"  {', '.join(flags) + value:34} {text}" + " (required)" * (default is ...))
    if error:
        rows = [f"{' '.join(filter(None, ['treepack', command]))}: error: {error}"]
    (_note if error else print)("\n".join([usage, *rows]))
    sys.exit(EXIT_INPUT if error else EXIT_OK)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command in argv and its options' values, read by the rules of COMMANDS."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:  # --help, or a usage error
        _exit(None, "" if command in ("-h", "--help") else f"expected a command, got {command!r}")
    (func, _, table), words = COMMANDS[command], iter(argv[1:])
    by_flag = {flag: option for option in table for flag in option[0]}
    values = {flags[-1]: default for flags, default, _, _ in table}
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in by_flag and word[:2] in by_flag and word[1] != "-":  # -ifile
            flag, eq, value = word[:2], "=", word[2:]
        if flag not in by_flag or eq and by_flag[flag][2] is bool:  # or --help
            _exit(command, "" if word in ("-h", "--help") else f"unrecognized argument {word!r}")
        flags, _, kind, _ = by_flag[flag]
        if kind is not bool and not eq:
            value = next(words, "--")
            if value[:1] == "-" and value != "-" and not re.fullmatch(r"-\d*\.?\d+", value):
                _exit(command, f"argument {flag}: expected a value")
        try:
            values[flags[-1]] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            _exit(command, f"argument {flag}: invalid int value {value!r}")
        if isinstance(kind, tuple) and value not in kind:
            _exit(command, f"argument {flag}: invalid choice {value!r}")
    if missing := [flag for flag, value in values.items() if value is ...]:
        _exit(command, "the following arguments are required: " + ", ".join(missing))
    values = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=command, func=func, **values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except SearchLimitExceeded as exc:
        _note(f"error: {exc}")
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """Console entry point: flush stdout and stderr, then end with main's code.

    os._exit skips the interpreter's teardown (clearing modules, the
    collector's last sweep, atexit handlers), which takes longer than a
    desk-size search.  Every file main writes is closed before it
    returns.  If the flush of stdout fails, the normal exit runs instead
    and reports it as before; so does an exception that escapes main.  A
    failed flush of stderr only drops its lines, as _note does.
    """
    try:
        code = main()
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    try:
        sys.stdout.flush()
    except (AttributeError, OSError, ValueError):  # no stream, a failed write, a closed file
        sys.exit(code)
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
