"""Greedy baseline: shaped capacities against the reference, and pins on its work and memory.

greedy_general grows each tree in one suspended scan that reads membership
from the tree's parent map and, on complete kinds, passes over range(n)
once per tree.  These tests compare it, map order included, with
test_differential.reference_greedy on shaped capacities, and pin three
costs that earlier code paid: an (n - 1)-tuple of neighbors per turn on
complete kinds, n bytes per tree, and a member's neighbors read again
after another tree spent its capacity.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

from helpers import (
    capacity_features,
    map_items,
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
    shaped_instance,
)
from test_differential import reference_greedy
from treepack import Instance, greedy_general, objective

FAMILIES = (random_complete_instance, random_tree_instance, random_general_instance)


def test_matches_reference_greedy():
    rng = random.Random(2101)
    seen = Counter()
    for i in range(3000):
        inst = shaped_instance(rng, FAMILIES[i % 3], max_n=rng.choice((8, 20, 60)))
        got, want = greedy_general(inst), reference_greedy(inst)
        assert got.root == want.root
        assert map_items(got) == map_items(want), inst
        seen.update([inst.kind, *capacity_features(inst)])
    assert min(seen.values()) >= 100, seen


def test_complete_kind_lists_no_neighbors(monkeypatch):
    rng = random.Random(2102)
    complete = Instance("complete", 400, tuple(rng.randint(0, 4) for _ in range(400)), 6, 17)
    general = random_general_instance(rng, max_n=30)
    want = reference_greedy(complete)
    calls = Counter()
    neighbors = Instance.neighbors

    def counted(self, v):
        calls[self.kind] += 1
        return neighbors(self, v)

    monkeypatch.setattr(Instance, "neighbors", counted)
    got = greedy_general(complete)
    greedy_general(general)
    assert calls["complete"] == 0
    assert calls["general"] > 0  # the count sees the calls that are made
    assert map_items(got) == map_items(want)


def sparse_general_instance(rng: random.Random, n: int, k: int, cap_lo: int, cap_hi: int) -> Instance:
    """A random recursive tree plus random edges up to 2n, rooted at 0."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    caps = tuple(rng.randint(cap_lo, cap_hi) for _ in range(n))
    return Instance("general", n, caps, k, 0, tuple(sorted(edges)))


def test_each_tree_reads_each_members_neighbors_once(monkeypatch):
    # General-mix's shape: n = 3000, m = 2n, K = 3, capacities 1..3, and a
    # root that can serve each neighbor in every tree, so the trees compete
    # for the other vertices' capacity.
    drawn = sparse_general_instance(random.Random(2104), 3000, 3, 1, 3)
    caps = (3 * len(drawn.neighbors(0)), *drawn.capacities[1:])
    inst = Instance("general", drawn.n, caps, 3, 0, drawn.edges)
    calls = 0
    neighbors = Instance.neighbors

    def counted(self, v):
        nonlocal calls
        calls += 1
        return neighbors(self, v)

    monkeypatch.setattr(Instance, "neighbors", counted)
    packing = greedy_general(inst)
    assert 0 < calls <= objective(packing), (calls, objective(packing))


def test_memory_follows_the_output_not_n_times_k():
    # n = K = 3000: a member array per tree alone would take 9 MB.
    inst = sparse_general_instance(random.Random(2103), 3000, 3000, 0, 2)
    tracemalloc.start()
    try:
        greedy_general(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak
