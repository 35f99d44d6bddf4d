"""Command-line front end: solve, verify, oracle and reduce subcommands.

Results go to stdout as JSON, a one-line summary goes to stderr.  Exit
codes: 0 success, 1 failed verification, 2 input or parse errors, 3
search limit violations.  solve and oracle write their packing document
as text straight from the parent maps (core._packing_json), byte for
byte what json.dumps of packing_to_dict gives; the other results are
small dicts passed to json.dumps.

The cyclic garbage collector is paused for the length of each command
and put back as the caller had it.  A call builds up to about a million
small containers (parsed JSON, parent maps, edge lists) with no
reference cycles, which reference counting frees; the collector's
repeated sweeps over them would only cost time.  The argument parser's
few hundred cyclic objects wait for the next collection after the call.

A call loads only the modules its command runs: this module imports
core alone, and each solver entry point below is a stand-in that imports
its submodule when first called.  The console script and ``python -m
treepack.cli`` go through run(), which also spares the process the
collector's sweep over every live object at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys
from importlib import import_module

from .core import (
    KIND_COMPLETE,
    KIND_GENERAL,
    KIND_TREE,
    MAX_VERTICES,
    Instance,
    SearchLimitExceeded,
    _packing_json,
    instance_to_dict,
    load_instance,
    load_packing,
    objective,
    packing_to_dict,  # unused here; the benchmark's tracer swaps cli.packing_to_dict
    verify_packing,
)


def _on_first_call(module: str, name: str):
    """A stand-in for treepack.<module>.<name> that imports the module when called.

    The stand-in stays the module attribute, so callers that swap it out
    (tests, the benchmark's tracer) keep working.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f"treepack.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


solve_complete = _on_first_call("complete_solver", "solve_complete")
solve_tree = _on_first_call("tree_solver", "solve_tree")
greedy_general = _on_first_call("oracle", "greedy_general")
brute_force_solve = _on_first_call("oracle", "brute_force_solve")
load_dimacs = _on_first_call("reduction", "load_dimacs")
reduce_3sat = _on_first_call("reduction", "reduce_3sat")
optimal_objective = _on_first_call("complete_solver", "optimal_objective")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read_instance(path: str) -> Instance:
    with open(path, "rb") as fh:
        return load_instance(fh)


def _write(path: str, text: str) -> None:
    """Write text over path in place, then trim a regular file to its end.

    Opening without O_TRUNC matters: on ext4, truncating a file whose
    last contents are still being written back waits for that writeback.
    The inode is kept, so symlinks are followed and links, mode and owner
    survive; devices and FIFOs are written but never truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _emit(text: str, path: str | None = None) -> None:
    """Print one JSON document as a line, and write the same line to path if given."""
    line = text + "\n"
    sys.stdout.write(line)
    if path:
        _write(path, line)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    alg = args.alg
    if alg == "auto":
        alg = {KIND_COMPLETE: "complete", KIND_TREE: "tree", KIND_GENERAL: "greedy"}[inst.kind]
        if alg == "greedy":
            _note("general instance: greedy baseline, result is heuristic, not optimal")
    if alg == "complete" and args.value_only:
        value, packing = optimal_objective(inst), None
    elif alg == "complete":
        packing = solve_complete(inst)
    elif alg == "tree":
        value, packing = solve_tree(inst, value_only=args.value_only)
    else:
        packing = greedy_general(inst)
    if packing is not None:
        value = objective(packing)
    if packing is None or args.value_only:
        text = json.dumps({"objective": value})
    else:
        text = _packing_json(packing)
    _note(f"objective {value} ({alg}, kind={inst.kind}, n={inst.n}, K={inst.num_trees})")
    _emit(text, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    with open(args.packing, "rb") as fh:
        packing = load_packing(fh, inst)
    report = verify_packing(inst, packing)
    _emit(json.dumps(report.to_dict()))
    if report.valid:
        _note("packing is valid")
        return EXIT_OK
    _note(f"packing is invalid: {len(report.violations)} violation(s)")
    return EXIT_INVALID


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    value, packing = brute_force_solve(inst, max_n=args.max_n, max_k=args.max_k)
    _note(f"exhaustive optimum {value} (n={inst.n}, K={inst.num_trees})")
    _emit(_packing_json(packing), args.output)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    with open(args.cnf, "rb") as fh:
        sat = load_dimacs(fh)
    reduction = reduce_3sat(sat, max_vertices=args.max_vertices)
    _write(args.output, json.dumps(instance_to_dict(reduction.instance)) + "\n")
    if args.labels:
        sidecar = {
            "gamma": reduction.gamma,
            "labels": {str(v): role for v, role in sorted(reduction.labels.items())},
        }
        _write(args.labels, json.dumps(sidecar) + "\n")
    summary = {
        "num_vertices": reduction.instance.n,
        "num_edges": len(reduction.instance.edges or ()),
        "gamma": reduction.gamma,
    }
    _emit(json.dumps(summary))
    _note(
        f"gadget written to {args.output}: {reduction.instance.n} vertices, "
        f"threshold {reduction.gamma}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Exact and heuristic solvers for capacity-bounded rooted-tree packing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("-i", "--instance", required=True, help="instance JSON file")
    p.add_argument("--alg", choices=("auto", "complete", "tree", "greedy"), default="auto")
    p.add_argument("-o", "--output", help="also write the result JSON here")
    p.add_argument("--value-only", action="store_true", help="emit the objective only")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a packing against an instance")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-p", "--packing", required=True, help="packing JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive exact search (small instances)")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--max-n", type=int, default=8, help="vertex count limit (default 8)")
    p.add_argument("--max-k", type=int, default=3, help="tree count limit (default 3)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="turn a 3-CNF into a packing instance")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file")
    p.add_argument("-o", "--output", required=True, help="instance JSON to write")
    p.add_argument("--labels", help="sidecar JSON for the threshold and vertex roles")
    p.add_argument(
        "--max-vertices",
        type=int,
        default=MAX_VERTICES,
        help=f"gadget vertex limit (default {MAX_VERTICES})",
    )
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
    """Console entry point: exit with main's code, without the collector's exit sweep.

    At exit CPython collects every generation once more, over every
    object still alive, including those the site imports made.  Freezing
    moves them all into the permanent generation, which that sweep skips;
    reference counting, module teardown, stream flushes and atexit still
    run.  main itself never freezes, so in-process callers are unaffected.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
