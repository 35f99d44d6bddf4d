"""Shared builders for randomized test families, and the CLI's argparse reference."""

from __future__ import annotations

import argparse
import itertools
import random

from treepack import Instance, SatInstance
from treepack.cli import cmd_oracle, cmd_reduce, cmd_solve, cmd_verify
from treepack.core import MAX_VERTICES

# Worked example used across the reduction and CLI tests:
# (x1 v x2 v !x3) & (x1 v !x2 v x4) & (!x2 v x3 v !x4)
EXAMPLE_FORMULA = SatInstance(4, ((1, 2, -3), (1, -2, 4), (-2, 3, -4)))

EXAMPLE_DIMACS = """c worked example, 4 vars 3 clauses
p cnf 4 3
1 2 -3 0
1 -2 4 0
-2 3 -4 0
"""


def random_complete_instance(
    rng: random.Random, max_n: int = 6, max_k: int = 3, cap_hi: int = 3
) -> Instance:
    n = rng.randint(1, max_n)
    return Instance(
        kind="complete",
        n=n,
        capacities=tuple(rng.randint(0, cap_hi) for _ in range(n)),
        num_trees=rng.randint(1, min(n, max_k)),
        root=rng.randrange(n),
    )


def random_tree_instance(
    rng: random.Random, max_n: int = 8, max_k: int = 3, cap_hi: int = 3
) -> Instance:
    n = rng.randint(1, max_n)
    edges = tuple((rng.randrange(v), v) for v in range(1, n))
    return Instance(
        kind="tree",
        n=n,
        capacities=tuple(rng.randint(0, cap_hi) for _ in range(n)),
        num_trees=rng.randint(1, min(n, max_k)),
        root=rng.randrange(n),
        edges=edges,
    )


def random_general_instance(
    rng: random.Random, max_n: int = 7, max_k: int = 3, cap_hi: int = 3
) -> Instance:
    n = rng.randint(1, max_n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # spanning tree first
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Instance(
        kind="general",
        n=n,
        capacities=tuple(rng.randint(0, cap_hi) for _ in range(n)),
        num_trees=rng.randint(1, min(n, max_k)),
        root=rng.randrange(n),
        edges=tuple(sorted(edges)),
    )


def satlib_uf_text(seed: int = 20) -> tuple[str, str]:
    """A SATLIB uf20-91-style file, and the same text without its trailer.

    Like SATLIB's uf files: comment lines, a header with a double and a
    trailing space, leading spaces on clause lines, then "%", "0" and a
    blank line after the last clause.
    """
    rng = random.Random(seed)
    clauses = "".join(
        " " + " ".join(str(rng.choice((1, -1)) * rng.randint(1, 20)) for _ in range(3)) + " 0\n"
        for _ in range(91)
    )
    body = "c This Formular is generated by mcnf\nc\np cnf 20  91 \n" + clauses
    return body + "%\n0\n\n", body


def random_3cnf(rng: random.Random, max_vars: int = 4, max_clauses: int = 4) -> SatInstance:
    num_vars = rng.randint(1, max_vars)
    clauses = tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(3))
        for _ in range(rng.randint(1, max_clauses))
    )
    return SatInstance(num_vars, clauses)


def assignment_satisfies(sat: SatInstance, assignment: dict[int, bool]) -> bool:
    return all(
        any((lit > 0) == assignment[abs(lit)] for lit in clause) for clause in sat.clauses
    )


def cnf_satisfiable(sat: SatInstance) -> bool:
    """Exhaustive truth-table check, the independent side of the gadget test."""
    for bits in itertools.product((False, True), repeat=sat.num_vars):
        assignment = {i + 1: bits[i] for i in range(sat.num_vars)}
        if assignment_satisfies(sat, assignment):
            return True
    return False


# The CLI's argparse parser as it was before cli.parse_args replaced it;
# tests compare the two on valid argv.
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
