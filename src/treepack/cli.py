"""Command-line front end: solve, verify, oracle and reduce subcommands.

Results go to stdout as JSON, a one-line summary goes to stderr.  Exit
codes: 0 success, 1 failed verification, 2 input or parse errors, 3
search limit violations.

The cyclic garbage collector is paused for the length of each command
and put back as the caller had it.  A call builds up to about a million
small containers (parsed JSON, parent maps, edge lists) with no
reference cycles, which reference counting frees; the collector's
repeated sweeps over them would only cost time.  The argument parser's
few hundred cyclic objects wait for the next collection after the call.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys

from .complete_solver import solve_complete
from .core import (
    KIND_COMPLETE,
    KIND_GENERAL,
    KIND_TREE,
    Instance,
    instance_to_dict,
    load_instance,
    load_packing,
    objective,
    packing_to_dict,
    verify_packing,
)
from .oracle import SearchLimitExceeded, brute_force_solve, greedy_general
from .reduction import load_dimacs, reduce_3sat
from .tree_solver import solve_tree

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


def _emit(data: dict, path: str | None = None) -> None:
    """Encode data once as a JSON line; print it, and write it to path if given."""
    line = json.dumps(data) + "\n"
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
    if alg == "complete":
        packing = solve_complete(inst)
        value = objective(packing)
    elif alg == "tree":
        value, packing = solve_tree(inst, value_only=args.value_only)
    else:
        packing = greedy_general(inst)
        value = objective(packing)
    if args.value_only or packing is None:
        out = {"objective": value}
    else:
        out = packing_to_dict(packing)
    _note(f"objective {value} ({alg}, kind={inst.kind}, n={inst.n}, K={inst.num_trees})")
    _emit(out, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    with open(args.packing, "rb") as fh:
        packing = load_packing(fh, inst)
    report = verify_packing(inst, packing)
    _emit(report.to_dict())
    if report.valid:
        _note("packing is valid")
        return EXIT_OK
    _note(f"packing is invalid: {len(report.violations)} violation(s)")
    return EXIT_INVALID


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    value, packing = brute_force_solve(inst, max_n=args.max_n, max_k=args.max_k)
    _note(f"exhaustive optimum {value} (n={inst.n}, K={inst.num_trees})")
    _emit(packing_to_dict(packing), args.output)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    with open(args.cnf, "rb") as fh:
        sat = load_dimacs(fh)
    reduction = reduce_3sat(sat)
    _write(args.output, json.dumps(instance_to_dict(reduction.instance)) + "\n")
    if args.labels:
        sidecar = {
            "gamma": reduction.gamma,
            "labels": {str(v): role for v, role in sorted(reduction.labels.items())},
        }
        _write(args.labels, json.dumps(sidecar) + "\n")
    _emit(
        {
            "num_vertices": reduction.instance.n,
            "num_edges": len(reduction.instance.edges or ()),
            "gamma": reduction.gamma,
        }
    )
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


if __name__ == "__main__":
    sys.exit(main())
