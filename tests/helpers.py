"""Shared builders for randomized test families, small scopes and gadget witnesses, plus a reference.

tree_scope, complete_scope and graph_scope enumerate every instance of
a small scope once, for bounded-exhaustive checks, and disagreement
checks an exact solver's answers on one of them; tools/scope.py runs
them past the sizes tier-1 can afford.

stripe_vector expands the tree solver's excess lists back into the K
values that solve_mckp, the independent check of the tree DP, reads;
they are exact up to each vertex's reach, where its list stops.

reference_greedy is the greedy baseline's earlier quadratic form, with
the order in which a member offers its neighbors as a parameter:
id_order, the earlier rule, or capacity_order, greedy_general's.  Run
with id_order and in one pass (dead_ends_last=False), the earlier rule,
it also draws the general packings of test_differential.seeded_cases,
whose golden reports must not move with greedy's rule.

line_events counts the Python lines a call runs in chosen frames, a
work measure that, unlike time, is the same on every machine.

The other reference is the CLI's argparse parser, kept as the earlier
code that tests compare cli.parse_args with, less the options since
removed (--alg complete and tree, reduce --max-vertices).  The complete
solver's stages live with its tests, in test_complete_solver.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from treepack import (
    Instance,
    Packing,
    ReductionOutput,
    SatInstance,
    brute_force_solve,
    packing_to_dict,
    verify_packing,
)
from treepack.cli import cmd_oracle, cmd_reduce, cmd_solve, cmd_verify

# Worked example used across the reduction and CLI tests:
# (x1 v x2 v !x3) & (x1 v !x2 v x4) & (!x2 v x3 v !x4)
EXAMPLE_FORMULA = SatInstance(4, ((1, 2, -3), (1, -2, 4), (-2, 3, -4)))

EXAMPLE_DIMACS = """c worked example, 4 vars 3 clauses
p cnf 4 3
1 2 -3 0
1 -2 4 0
-2 3 -4 0
"""


def stripe_vector(excess: list[int], count: int) -> list[int]:
    """f(1..count) of a vertex from its excess list: f(k) = k + sum(excess[:k]), up to its reach."""
    padded = excess + [0] * (count - len(excess))
    return list(itertools.accumulate(1 + x for x in padded))


def line_events(run, counted) -> tuple[object, int]:
    """run() under sys.settrace: its result, and the line events of the frames that counted(frame) accepts."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if counted(frame) else None)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, events


def map_items(packing: Packing) -> list[list[tuple[int, int]]]:
    """The packing's parent maps as (child, parent) lists, in insertion order."""
    return [list(parent.items()) for parent in packing.trees]


def id_order(capacity: int, v: int) -> int:
    """The earlier greedy's offer order: ascending id."""
    return v


def capacity_order(capacity: int, v: int) -> tuple[int, int]:
    """greedy_general's offer order: descending input capacity, ties to the smaller id."""
    return -capacity, v


def reference_greedy(inst: Instance, order, dead_ends_last: bool = True) -> Packing:
    """Rescans every member list from the start on every turn: quadratic.

    Each member offers its non-member neighbors sorted by
    order(input capacity, id).  With dead_ends_last, greedy_general's
    rule: phase 1 adopts only vertices with capacity left, phase 2 the
    rest; then one leaf re-hang round, tree by tree, over the leaves
    whose parent has no capacity left when the tree's turn comes; then
    both phases again.  Without it, the earlier rule: one pass that
    adopts any vertex.
    """
    root = inst.root
    caps = list(inst.capacities)
    parents: list[dict[int, int]] = [{} for _ in range(inst.num_trees)]

    def offers(u: int) -> list[int]:
        return sorted(inst.neighbors(u), key=lambda w: order(inst.capacities[w], w))

    def member(v: int, tree: dict[int, int]) -> bool:
        return v == root or v in tree

    def adopt(alive: bool) -> None:
        grew = True
        while grew:
            grew = False
            for tree in parents:
                for u in [root, *tree]:
                    if caps[u] > 0:
                        w = next((w for w in offers(u) if not member(w, tree) and (caps[w] > 0 or not alive)), None)
                        if w is not None:
                            caps[u] -= 1
                            tree[w] = u
                            grew = True
                            break

    if not dead_ends_last:
        adopt(False)
        return Packing(root, parents)
    adopt(True)
    adopt(False)
    nears = [{v for v in [root, *tree] if caps[v] > 0} for tree in parents]
    for tree, near in zip(parents, nears):
        for x in [x for x in tree if caps[tree[x]] == 0 and x not in tree.values()]:
            if x in tree.values():
                continue
            p = tree[x]
            q = next((q for q in offers(x) if caps[q] > 0 and q in near), None)
            use = next(
                ((other, w) for other in parents if member(p, other) for w in offers(p) if not member(w, other)),
                None,
            )
            if q is not None and use is not None:
                other, w = use
                del tree[x]
                tree[x] = q
                caps[q] -= 1
                other[w] = p
    adopt(True)
    adopt(False)
    return Packing(root, parents)


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


def tree_shapes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """One rooted tree on vertices 0..n-1 per shape up to isomorphism, as its edges.

    Each tree is a parent array, parent[v] < v for v >= 1, given as the
    edges (parent[v], v); the root is 0.  Of all (n-1)! arrays, the first
    with each canonical form (the sorted nesting of its subtrees) is kept.
    """
    shapes: dict[str, tuple[tuple[int, int], ...]] = {}
    for parent in itertools.product(*(range(v) for v in range(1, n))):
        kids: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent, start=1):
            kids[p].append(v)
        forms = [""] * n
        for v in range(n - 1, -1, -1):  # children have larger ids
            forms[v] = "(" + "".join(sorted(forms[w] for w in kids[v])) + ")"
        shapes.setdefault(forms[0], tuple((p, v) for v, p in enumerate(parent, start=1)))
    return list(shapes.values())


def tree_scope(max_n: int = 5, cap_hi: int = 2, max_k: int = 3):
    """Every tree instance in the scope, rooted at 0.

    Each shape of tree_shapes(n) for n <= max_n, with every capacity
    vector over 0..cap_hi and K = 1..min(max_k, n).
    """
    for n in range(1, max_n + 1):
        for edges in tree_shapes(n):
            for caps in itertools.product(range(cap_hi + 1), repeat=n):
                for k in range(1, min(max_k, n) + 1):
                    yield Instance("tree", n, caps, k, root=0, edges=edges)


def complete_scope(max_n: int = 5, cap_hi: int = 2, max_k: int = 3, every_root: bool = False):
    """Every complete instance in the scope, up to relabelling, rooted at 0 or anywhere.

    The root's capacity is any of 0..cap_hi, the others are a sorted
    multiset over 0..cap_hi, and K = 1..min(max_k, n).  With every_root,
    the root also takes each place among the others: root r follows the
    r smallest of them, on vertices 0..r-1.
    """
    for n in range(1, max_n + 1):
        for root in range(n if every_root else 1):
            for root_cap in range(cap_hi + 1):
                for rest in itertools.combinations_with_replacement(range(cap_hi + 1), n - 1):
                    caps = (*rest[:root], root_cap, *rest[root:])
                    for k in range(1, min(max_k, n) + 1):
                        yield Instance("complete", n, caps, k, root=root)


def connected_graphs(n: int):
    """Every connected graph on vertices 0..n-1, as its sorted (u, v) edges with u < v."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = tuple(pair for i, pair in enumerate(pairs) if mask >> i & 1)
        reached = {0}
        for _ in range(n):  # a vertex is at most n - 1 edges from 0
            reached.update(*(pair for pair in edges if reached.intersection(pair)))
        if len(reached) == n:
            yield edges


def graph_scope(max_n: int = 4, cap_hi: int = 2, max_k: int = 3):
    """Every general instance in the scope, rooted at 0.

    Each connected graph on 0..n-1 for n <= max_n (connected_graphs: 1,
    1, 4 and 38 of them for n = 1..4), with every capacity vector over
    0..cap_hi and K = 1..min(max_k, n).
    """
    for n in range(1, max_n + 1):
        for edges in connected_graphs(n):
            for caps in itertools.product(range(cap_hi + 1), repeat=n):
                for k in range(1, min(max_k, n) + 1):
                    yield Instance("general", n, caps, k, root=0, edges=edges)


CAPACITY_SHAPES = ("random", "mostly_zero", "root_below_k", "root_above_k", "one_spare")


def disagreement(inst: Instance, value: int, packing: Packing, text) -> str | None:
    """What an exact solver's answers on inst get wrong, or None.

    value must equal brute_force_solve's, packing must verify with value
    as its stated objective, and text, the streamed document's (value,
    chunks), must give the same value and the bytes of packing_to_dict's
    document.
    """
    best = brute_force_solve(inst)[0]
    if value != best:
        return f"value {value}, oracle {best}"
    report = verify_packing(inst, packing, value)
    if not report["valid"]:
        return f"packing does not verify: {report['violations']}"
    streamed, chunks = text
    if streamed != value or "".join(chunks) != json.dumps(packing_to_dict(packing)) + "\n":
        return "the streamed document differs from the packing's"
    return None


def shaped_instance(rng: random.Random, make, max_n: int = 12) -> Instance:
    """An instance from make (any kind, random root, K up to n), capacities reshaped.

    The shape, drawn from CAPACITY_SHAPES, leaves the capacities as drawn,
    zeroes most of them, puts c_root below K or above it, or gives exactly
    one non-root vertex any capacity.
    """
    inst = make(rng, max_n=max_n, max_k=max_n, cap_hi=4)
    n, k, root = inst.n, inst.num_trees, inst.root
    caps = list(inst.capacities)
    shape = rng.choice(CAPACITY_SHAPES)
    if shape == "mostly_zero":
        caps = [c if rng.random() < 0.2 else 0 for c in caps]
    elif shape == "root_below_k":
        caps[root] = rng.randint(0, k - 1)
    elif shape == "root_above_k":
        caps[root] = rng.randint(k + 1, 2 * k + 2)
    elif shape == "one_spare" and n > 1:
        caps = [0] * n
        caps[root] = rng.randint(0, k + 1)
        caps[rng.choice([v for v in range(n) if v != root])] = rng.randint(1, 2 * n)
    return Instance(inst.kind, n, tuple(caps), k, root, inst.edges)


def capacity_features(inst: Instance) -> list[str]:
    """The capacity cases an instance falls in, for tests to count their coverage."""
    caps, root, k = inst.capacities, inst.root, inst.num_trees
    spare = sum(c > 0 for v, c in enumerate(caps) if v != root)
    features = {
        "root_below_k": caps[root] < k,
        "root_above_k": caps[root] > k,
        "mostly_zero": sum(c == 0 for c in caps) * 2 > inst.n,
        "one_spare": spare == 1,
        "none_spare": spare == 0,
        "k_is_n": k == inst.n > 1,
    }
    return [name for name, hit in features.items() if hit]


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


def true_literals(clause: tuple[int, ...], assignment: dict[int, bool]) -> list[int]:
    return [lit for lit in clause if (lit > 0) == assignment[abs(lit)]]


def planted_3cnf(
    rng: random.Random, num_vars: int, num_clauses: int
) -> tuple[SatInstance, dict[int, bool]]:
    """A random 3-CNF satisfied by a random planted assignment, and that assignment.

    Each clause takes three distinct variables with random signs and is
    drawn again until it holds a literal true under the assignment.
    """
    assignment = {i: rng.random() < 0.5 for i in range(1, num_vars + 1)}
    clauses = []
    while len(clauses) < num_clauses:
        clause = tuple(rng.choice((1, -1)) * i for i in rng.sample(range(1, num_vars + 1), 3))
        if true_literals(clause, assignment):
            clauses.append(clause)
    return SatInstance(num_vars, tuple(clauses)), assignment


def gadget_witness(out: ReductionOutput, sat: SatInstance, assignment: dict[int, bool]) -> Packing:
    """The one-tree packing the hardness proof builds from an assignment.

    root -> each selector -> its variable's true literal -> each clause
    under its first true literal; vertex ids come from out.labels, not
    from the gadget's layout.  A satisfying assignment gives a tree of
    exactly gamma vertices.  A clause with no true literal hangs under its
    first literal's vertex, which is not in the tree, so verify_packing
    reports the clause (and that literal) as not connected.
    """
    vertex = {role: v for v, role in out.labels.items()}
    parent = {}
    for i in range(1, sat.num_vars + 1):
        parent[vertex[f"selector_{i}"]] = vertex["root"]
        parent[vertex[f"x{i}" if assignment[i] else f"not_x{i}"]] = vertex[f"selector_{i}"]
    for j, clause in enumerate(sat.clauses, start=1):
        lit = (true_literals(clause, assignment) or clause)[0]
        parent[vertex[f"clause_{j}"]] = vertex[f"x{lit}" if lit > 0 else f"not_x{-lit}"]
    return Packing(vertex["root"], (parent,))


def assignment_satisfies(sat: SatInstance, assignment: dict[int, bool]) -> bool:
    return all(
        any((lit > 0) == assignment[abs(lit)] for lit in clause) for clause in sat.clauses
    )


def satisfied_clauses(sat: SatInstance, assignment: dict[int, bool]) -> int:
    """How many of the formula's clauses the assignment makes true."""
    return sum(bool(true_literals(clause, assignment)) for clause in sat.clauses)


def cnf_satisfiable(sat: SatInstance) -> bool:
    """Exhaustive truth-table check, the independent side of the gadget test."""
    for bits in itertools.product((False, True), repeat=sat.num_vars):
        assignment = {i + 1: bits[i] for i in range(sat.num_vars)}
        if assignment_satisfies(sat, assignment):
            return True
    return False


def max_sat(sat: SatInstance) -> int:
    """The most clauses one assignment satisfies, by truth table: the gadget optimum is 1 + 2n + this."""
    return max(
        satisfied_clauses(sat, dict(enumerate(bits, start=1)))
        for bits in itertools.product((False, True), repeat=sat.num_vars)
    )


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
    p.add_argument("--alg", choices=("auto", "greedy"), default="auto")
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
