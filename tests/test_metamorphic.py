"""Metamorphic relations of the exact optimum f on trees and complete graphs.

Each relation compares the solvers' value on an instance with their value
on a transformed copy, so it needs no reference solver:

- relabelling the vertices leaves f unchanged, and on a complete graph
  objective(solve_complete) still equals the closed form;
- one more unit of capacity at one vertex gives f <= f' <= f + n (drop the
  one child edge over the old capacity, and with it at most n - 1
  vertices);
- one more tree gives f + 1 <= f' <= f + n (add a null tree; drop a tree);
- on a tree, greedy_general <= f <= the closed form of the complete graph
  with the same capacities, K and root.

Desk and medium sizes, seeded.
"""

from __future__ import annotations

import random

import pytest

from helpers import random_complete_instance, random_tree_instance
from treepack import Instance, greedy_general, objective, optimal_objective, solve_complete, solve_tree

SIZES = {"desk": dict(max_n=8, max_k=3, cap_hi=3), "medium": dict(max_n=150, max_k=25, cap_hi=6)}
CASES = {"desk": 400, "medium": 60}
FAMILIES = {"tree": random_tree_instance, "complete": random_complete_instance}


def exact(inst: Instance) -> int:
    if inst.kind == "tree":
        return solve_tree(inst, value_only=True)[0]
    return objective(solve_complete(inst))


def variant(inst: Instance, capacities=None, num_trees=None, root=None, edges=None) -> Instance:
    return Instance(
        inst.kind,
        inst.n,
        inst.capacities if capacities is None else capacities,
        inst.num_trees if num_trees is None else num_trees,
        inst.root if root is None else root,
        inst.edges if edges is None else edges,
    )


def cases(family: str, size: str):
    rng = random.Random(f"{family}-{size}")
    for _ in range(CASES[size]):
        yield rng, FAMILIES[family](rng, **SIZES[size])


parametrize = pytest.mark.parametrize(
    "family, size", [(family, size) for family in FAMILIES for size in SIZES]
)


@parametrize
def test_relabelling_keeps_the_value(family, size):
    for rng, inst in cases(family, size):
        label = list(range(inst.n))
        rng.shuffle(label)
        capacities = [0] * inst.n
        for v, c in enumerate(inst.capacities):
            capacities[label[v]] = c
        edges = None if inst.edges is None else tuple((label[u], label[v]) for u, v in inst.edges)
        relabelled = variant(inst, capacities=capacities, root=label[inst.root], edges=edges)
        assert exact(relabelled) == exact(inst)
        if inst.kind == "complete":
            assert exact(relabelled) == optimal_objective(relabelled)


@parametrize
def test_one_more_capacity_unit(family, size):
    for rng, inst in cases(family, size):
        capacities = list(inst.capacities)
        capacities[rng.randrange(inst.n)] += 1
        f, bumped = exact(inst), exact(variant(inst, capacities=capacities))
        assert f <= bumped <= f + inst.n


@parametrize
def test_one_more_tree(family, size):
    for _, inst in cases(family, size):
        if inst.num_trees < inst.n:
            f, bumped = exact(inst), exact(variant(inst, num_trees=inst.num_trees + 1))
            assert f + 1 <= bumped <= f + inst.n


@pytest.mark.parametrize("size", SIZES)
def test_tree_between_greedy_and_complete_relaxation(size):
    for _, inst in cases("tree", size):
        relaxed = Instance("complete", inst.n, inst.capacities, inst.num_trees, inst.root)
        assert objective(greedy_general(inst)) <= exact(inst) <= optimal_objective(relaxed)
