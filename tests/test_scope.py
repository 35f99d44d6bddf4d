"""Bounded-exhaustive checks of the exact solvers: every instance of a small scope, once.

Trees: every shape up to n = 5, capacities 0..2, K = 1..min(3, n), root 0.
Complete graphs: n <= 5, root 0, the other capacities as a sorted
multiset over 0..2.  Each solver's value must equal the oracle's (and, on
complete graphs, the closed form), its packing must verify with that
objective, and its streamed document must be the bytes of the packing's.
"""

from __future__ import annotations

import json

from helpers import complete_scope, tree_scope, tree_shapes
from treepack import (
    brute_force_solve,
    objective,
    optimal_objective,
    packing_to_dict,
    solve_complete,
    solve_tree,
    verify_packing,
)
from treepack import complete_solver, tree_solver


def check_packing(inst, value, packing, packing_text) -> None:
    report = verify_packing(inst, packing)
    assert report["valid"], (inst, report["violations"])
    assert objective(packing) == value, inst
    best, chunks = packing_text(inst)
    assert best == value, inst
    assert "".join(chunks) == json.dumps(packing_to_dict(packing)) + "\n", inst


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
        value, packing = solve_tree(inst)
        assert value == brute_force_solve(inst)[0], inst
        check_packing(inst, value, packing, tree_solver._packing_text)
        count += 1
    assert count == 3 + 18 + 2 * 27 * 3 + 4 * 81 * 3 + 9 * 243 * 3 == 7716


def test_every_small_complete_instance():
    count = 0
    for inst in complete_scope():
        value = optimal_objective(inst)
        assert value == brute_force_solve(inst)[0], inst
        check_packing(inst, value, solve_complete(inst), complete_solver._packing_text)
        count += 1
    assert count == 3 * (1 * 1 + 3 * 2 + 6 * 3 + 10 * 3 + 15 * 3) == 300
