"""Metamorphic relations of the exact optimum f, and of greedy, on trees and complete graphs.

Each relation compares the solvers' value on an instance with their value
on a transformed copy, so it needs no reference solver:

- relabelling the vertices leaves f unchanged, and on a complete graph
  objective(solve_complete) still equals the closed form;
- one more unit of capacity at one vertex gives f <= f' <= f + n (drop the
  one child edge over the old capacity, and with it at most n - 1
  vertices);
- one more tree gives f + 1 <= f' <= f + n (add a null tree; drop a tree);
- on a tree, greedy_general <= f <= the closed form of the complete graph
  with the same capacities, K and root;
- greedy_general on a complete graph builds the same packing, map order
  included, as on that graph given as kind general with every edge, which
  pins the shared offer list of a complete kind to one list per vertex.

Desk and medium sizes, seeded, and a large-K size whose K ranges up to n
(at most 400), past the medium size's K <= 25.  The greedy relation also
runs on one complete graph with K = n = 600, capacities 0..2 and a root
of capacity K, where most trees end among vertices that died early.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from helpers import map_items, random_complete_instance, random_tree_instance
from treepack import Instance, greedy_general, objective, optimal_objective, solve_complete, solve_tree

SIZES = {
    "desk": dict(max_n=8, max_k=3, cap_hi=3),
    "medium": dict(max_n=150, max_k=25, cap_hi=6),
    "large-k": dict(max_n=400, max_k=400, cap_hi=40),
}
CASES = {"desk": 400, "medium": 60, "large-k": 30}
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


def k_equals_n(n: int) -> Instance:
    """K = n trees, capacities 0..2 and a root of capacity K: most vertices die early, under many trees."""
    rng = random.Random(n)
    return Instance("complete", n, (n, *(rng.randint(0, 2) for _ in range(n - 1))), n, 0)


@pytest.mark.parametrize("size", [*SIZES, "k-equals-n"])
def test_greedy_complete_equals_greedy_on_every_edge(size):
    insts = [k_equals_n(600)] if size == "k-equals-n" else [inst for _, inst in cases("complete", size)]
    for inst in insts:
        edges = tuple(combinations(range(inst.n), 2))
        general = Instance("general", inst.n, inst.capacities, inst.num_trees, inst.root, edges)
        got, want = greedy_general(inst), greedy_general(general)
        assert map_items(got) == map_items(want)
