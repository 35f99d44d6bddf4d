"""Bounded-exhaustive checks of the exact solvers: every instance of a small scope, once.

Trees: every shape up to n = 5, capacities 0..2, K = 1..min(3, n), root 0.
Complete graphs: n <= 5, root 0, the other capacities as a sorted
multiset over 0..2.  Each solver's value must equal the oracle's (and, on
complete graphs, the closed form), its packing must verify with that
objective, and its streamed document must be the bytes of the packing's.
General graphs: every connected graph up to n = 4, capacities 0..2,
K = 1..min(3, n), root 0.  The oracle's packing must verify with its
value, greedy's must verify and never beat it (pinned: how many it
solves to the optimum, and its total gap), and on a graph that is a
tree or complete the oracle must equal that kind's exact solver; on one
graph per class up to relabelling, and K <= 2, it must also equal
test_oracle's second exhaustive search.  tools/scope.py runs the tree
and complete scopes further.
One-edge changes: every packing one edge away from a solver's packing
on a smaller scope (trees and complete graphs to n = 4, general graphs
to n = 3) must get test_differential.reference_verify's report, both
from verify_packing and from verify_document on its packing document.
Gadget trees: on 300 small random formulas, the oracle's and greedy's
gadget packings and every one-edge change of either that still verifies
must encode an assignment that satisfies at least obj - 1 - 2n clauses
(the reduction module's L-reduction bound).
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from helpers import (
    complete_scope,
    connected_graphs,
    disagreement,
    graph_scope,
    max_sat,
    random_3cnf,
    satisfied_clauses,
    tree_scope,
    tree_shapes,
)
from test_differential import reference_verify
from test_oracle import naive_best
from treepack import (
    Instance,
    Packing,
    brute_force_solve,
    extract_assignment,
    greedy_general,
    objective,
    optimal_objective,
    packing_to_dict,
    reduce_3sat,
    solve_complete,
    solve_tree,
    verify_packing,
)
from treepack import complete_solver, tree_solver
from treepack.verifier import verify_document


def test_tree_shapes_count_the_rooted_trees():
    # OEIS A000081: rooted trees on n unlabeled vertices.
    assert [len(tree_shapes(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    for n in range(1, 7):
        for edges in tree_shapes(n):
            assert [v for _, v in edges] == list(range(1, n))
            assert all(p < v for p, v in edges)


def test_every_small_tree():
    count = 0
    for inst in tree_scope():
        assert disagreement(inst, *solve_tree(inst), tree_solver._packing_text(inst)) is None, inst
        count += 1
    assert count == 3 + 18 + 2 * 27 * 3 + 4 * 81 * 3 + 9 * 243 * 3 == 7716


def test_every_small_complete_instance():
    count = 0
    for inst in complete_scope():
        answers = optimal_objective(inst), solve_complete(inst), complete_solver._packing_text(inst)
        assert disagreement(inst, *answers) is None, inst
        count += 1
    assert count == 3 * (1 * 1 + 3 * 2 + 6 * 3 + 10 * 3 + 15 * 3) == 300


def test_every_small_general_instance():
    count, as_kind = 0, {"tree": 0, "complete": 0}
    greedy_optimal = greedy_gap = 0
    for inst in graph_scope():
        value, packing = brute_force_solve(inst)
        assert verify_packing(inst, packing, value)["valid"], inst
        greedy = greedy_general(inst)
        assert verify_packing(inst, greedy)["valid"], inst
        assert objective(greedy) <= value, inst
        greedy_optimal += objective(greedy) == value
        greedy_gap += value - objective(greedy)
        n, caps, k, edges = inst.n, inst.capacities, inst.num_trees, inst.edges
        if len(edges) == n - 1:
            assert solve_tree(Instance("tree", n, caps, k, 0, edges), value_only=True)[0] == value, inst
            as_kind["tree"] += 1
        if len(edges) == n * (n - 1) // 2:
            assert optimal_objective(Instance("complete", n, caps, k)) == value, inst
            as_kind["complete"] += 1
        count += 1
    assert count == 3 + 18 + 4 * 27 * 3 + 38 * 81 * 3 == 9579
    # Labeled trees (Cayley: n^(n-2)) and the one complete graph, per n.
    assert as_kind == {"tree": 3 + 18 + 3 * 81 + 16 * 243, "complete": 3 + 18 + 81 + 243}
    # Greedy's quality where the optimum is known.  In one pass, with
    # capacity order, it was optimal on 9,038 with a total gap of 633;
    # putting dead ends last alone kept both.
    assert (greedy_optimal, greedy_gap) == (9070, 601)


def rooted_form(n: int, edges: tuple) -> tuple:
    """The graph's smallest edge list under the relabellings that fix vertex 0."""
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in ((0, *perm) for perm in itertools.permutations(range(1, n)))
    )


def test_oracle_matches_a_second_search_on_small_graphs():
    # naive_best takes about 19 ms on an n = 4 instance with K = 3, so
    # this takes one graph per rooted class, and K <= 2.
    firsts: dict[tuple, tuple] = {}
    for n in range(1, 5):
        for edges in connected_graphs(n):
            firsts.setdefault((n, rooted_form(n, edges)), edges)
    assert len(firsts) == 1 + 1 + 3 + 11
    representatives = set(firsts.values())  # an edge list fixes its n: vertex n - 1 is on an edge
    count = 0
    for inst in graph_scope(max_k=2):
        if inst.edges in representatives:
            assert brute_force_solve(inst)[0] == naive_best(inst), inst
            count += 1
    assert count == 3 + 18 + 3 * 27 * 2 + 11 * 81 * 2


def one_edge_changes(packing: Packing, n: int):
    """Every packing that differs from packing in one edge of one tree.

    Per tree: each edge deleted; each child re-parented to every vertex
    but its parent, itself and the root included; and each vertex outside
    the tree hung under each member, the new edge listed last, so the
    document no longer lists the tree root outward.
    """
    trees = packing.trees
    for ti, parent in enumerate(trees):
        members = {packing.root, *parent}
        changed = [{c: p for c, p in parent.items() if c != child} for child in parent]
        changed += [{**parent, child: v} for child in parent for v in range(n) if v != parent[child]]
        changed += [{**parent, w: u} for u in members for w in range(n) if w not in members]
        for tree in changed:
            yield Packing(packing.root, (*trees[:ti], tree, *trees[ti + 1 :]))


@pytest.mark.parametrize(
    "scope, solve, counts",
    [
        (lambda: tree_scope(4), lambda inst: solve_tree(inst)[1], (12699, 1122)),
        (lambda: complete_scope(4), solve_complete, (1631, 191)),
        (lambda: graph_scope(3), lambda inst: brute_force_solve(inst)[1], (2356, 323)),
    ],
    ids=["tree", "complete", "general"],
)
def test_every_one_edge_change_gets_the_reference_report(scope, solve, counts):
    # counts: the damaged packings, and how many of them still verify.
    damaged = still_valid = 0
    for inst in scope():
        for packing in one_edge_changes(solve(inst), inst.n):
            expected = reference_verify(inst, packing)
            assert verify_packing(inst, packing) == expected, (inst, packing)
            document = json.loads(json.dumps(packing_to_dict(packing)))
            assert verify_document(inst, document) == expected, (inst, packing)
            damaged += 1
            still_valid += expected["valid"]
    assert (damaged, still_valid) == counts


def test_every_gadget_tree_near_the_solvers_encodes_obj_minus_1_minus_2n_clauses():
    # The L-reduction's beta = 1: MAX-SAT - sat(T) <= OPT - obj(T) for every
    # verified tree T, with equality reached on some tree.
    rng = random.Random(5)
    slacks, packings = set(), 0
    for _ in range(300):
        sat = random_3cnf(rng, max_vars=3, max_clauses=8)
        out = reduce_3sat(sat)
        inst, n, best = out.instance, sat.num_vars, max_sat(sat)
        opt, oracle = brute_force_solve(inst, max_n=inst.n, max_k=1)
        # The solvers' neighbourhoods overlap, and a tree on a non-edge never
        # verifies: the verifier sees each remaining tree once.
        arcs = {*inst.edges, *((v, u) for u, v in inst.edges)}
        distinct = {}
        for solved in (oracle, greedy_general(inst)):
            for packing in (solved, *one_edge_changes(solved, inst.n)):
                tree = packing.trees[0]
                if arcs.issuperset(tree.items()):
                    distinct.setdefault(tuple(sorted(tree.items())), packing)
        for packing in distinct.values():
            if not verify_packing(inst, packing)["valid"]:
                continue
            found = satisfied_clauses(sat, extract_assignment(out, packing))
            assert found >= objective(packing) - 1 - 2 * n, (sat, packing)
            slacks.add((opt - objective(packing)) - (best - found))
            packings += 1
    assert packings == 2752
    assert min(slacks) == 0
