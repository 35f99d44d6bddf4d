"""Shared builders for randomized test families."""

from __future__ import annotations

import itertools
import random

from treepack import Instance, SatInstance

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
