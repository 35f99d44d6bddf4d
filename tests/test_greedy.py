"""Greedy baseline: families of instances against the reference, its rules, and pins on its quality, work and memory.

greedy_general grows each tree in one suspended scan per phase that reads
membership from the tree's parent map and, on complete kinds, where every
vertex offers the one capacity rank, passes over that rank at most once
per tree and phase; then one round moves leaves onto spare capacity.
These tests compare it, map order included, with
helpers.reference_greedy, the earlier quadratic implementation, run with
capacity_order and its rescans, on four families; pin by hand the cases
where that order and the earlier id order part, and where dead ends
last and the leaf round each gain one; floor its objective on the
general-mix shape; and pin four costs that earlier code paid, or that
a copy without a cursor pays: an (n - 1)-tuple of neighbors per turn on
complete kinds, n bytes per tree, a member's neighbors read again after
another tree spent its capacity, and a leaf round whose q searches read
the rank from its head.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest

from helpers import (
    capacity_features,
    capacity_order,
    line_events,
    map_items,
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
    reference_greedy,
    shaped_instance,
)
from treepack import Instance, greedy, greedy_general, objective

FAMILIES = (random_complete_instance, random_tree_instance, random_general_instance)


def shaped():
    """The three kinds in turn, in helpers.shaped_instance's capacity shapes; each kind and shape 100 times."""
    rng = random.Random(2101)
    seen = Counter()
    for i in range(3000):
        inst = shaped_instance(rng, FAMILIES[i % 3], max_n=rng.choice((8, 20, 60)))
        yield inst
        seen.update([inst.kind, *capacity_features(inst)])
    assert min(seen.values()) >= 100, seen


def small():
    rng = random.Random(6)
    for i in range(900):
        yield FAMILIES[i % 3](rng, max_n=14, max_k=4, cap_hi=4)


def larger():
    rng = random.Random(7)
    for make, n in ((random_complete_instance, 120), (random_general_instance, 400)):
        for _ in range(5):
            yield make(rng, max_n=n, max_k=5, cap_hi=3)


def long_path():
    n = 2000
    yield Instance("general", n, (3,) * n, 3, edges=tuple((v, v + 1) for v in range(n - 1)))


@pytest.mark.parametrize("cases", [shaped, small, larger, long_path], ids=lambda cases: cases.__name__)
def test_matches_reference_greedy(cases):
    for inst in cases():
        got, want = greedy_general(inst), reference_greedy(inst, capacity_order)
        assert got.root == want.root
        assert map_items(got) == map_items(want), inst


@pytest.mark.parametrize(
    "inst, want",
    [
        # Vertex 2 carries the tree on to 3; in id order the root's one unit went to 1, a dead end.
        (Instance("general", 4, (1, 0, 2, 0), 1, 0, ((0, 1), (0, 2), (2, 3))), [[(2, 0), (3, 2)]]),
        (Instance("complete", 4, (1, 0, 0, 2), 1), [[(3, 0), (1, 3), (2, 3)]]),
        # Equal capacities: the smaller id first.
        (Instance("general", 5, (1, 1, 1, 0, 0), 1, 0, ((0, 1), (0, 2), (1, 3), (2, 4))), [[(1, 0), (3, 1)]]),
    ],
    ids=["general", "complete", "ties"],
)
def test_high_capacity_neighbors_are_offered_first(inst, want):
    assert map_items(greedy_general(inst)) == want
    assert map_items(reference_greedy(inst, capacity_order)) == want


@pytest.mark.parametrize(
    "inst, want, earlier",
    [
        # Tree 0 takes 3's second unit for 5.  In one pass tree 1 had spent
        # 3's first unit on 4, dead since tree 0's turn; now it skips 4 for
        # 5, which is live and carries it on to 4: 9 -> 10.
        (
            Instance("general", 6, (3, 0, 1, 2, 1, 1), 2, 0, ((0, 1), (0, 2), (0, 4), (2, 3), (3, 4), (3, 5), (4, 5))),
            [[(2, 0), (4, 0), (3, 4), (5, 3)], [(2, 0), (3, 2), (5, 3), (4, 5)]],
            9,
        ),
        # Phase 2 hangs the dead 1 under the root, whose last unit 2 needs.
        # The re-hang moves 1 under 3, which has a unit left, and the root
        # spends the unit it got back on 2: 3 -> 4, the optimum.
        (
            Instance("general", 4, (2, 0, 0, 1), 1, 0, ((0, 1), (0, 2), (0, 3), (1, 3))),
            [[(3, 0), (1, 3), (2, 0)]],
            3,
        ),
    ],
    ids=["dead-ends-last", "re-hang"],
)
def test_dead_ends_go_last_and_leaves_move_onto_spare_capacity(inst, want, earlier):
    got = greedy_general(inst)
    assert map_items(got) == want
    assert map_items(reference_greedy(inst, capacity_order)) == want
    assert objective(reference_greedy(inst, capacity_order, dead_ends_last=False)) == earlier
    assert objective(got) == earlier + 1


@pytest.fixture
def neighbor_calls(monkeypatch) -> Counter:
    """Counts Instance.neighbors calls by the instance's kind."""
    calls = Counter()
    neighbors = Instance.neighbors

    def counted(self, v):
        calls[self.kind] += 1
        return neighbors(self, v)

    monkeypatch.setattr(Instance, "neighbors", counted)
    return calls


def test_complete_kind_lists_no_neighbors(neighbor_calls):
    rng = random.Random(2102)
    complete = Instance("complete", 400, tuple(rng.randint(0, 4) for _ in range(400)), 6, 17)
    general = random_general_instance(rng, max_n=30)
    want = reference_greedy(complete, capacity_order)
    neighbor_calls.clear()
    got = greedy_general(complete)
    greedy_general(general)
    assert neighbor_calls["complete"] == 0
    assert neighbor_calls["general"] > 0  # the count sees the calls that are made
    assert map_items(got) == map_items(want)


def test_q_searches_read_on_from_their_cursors_on_complete_kinds():
    # Capacities floor(2000 / sqrt(v + 1)), shuffled: many leaves move.  The
    # q searches read 245,168 lines here; read from the head of the one
    # rank each time, as the general kind's first search does, they read
    # 23 million, several passes over the rank per tree.
    n = k = 2000
    caps = [int(2000 / (v + 1) ** 0.5) for v in range(n)]
    random.Random(10).shuffle(caps)
    inst = Instance("complete", n, tuple(caps), k)

    def in_spare_member(frame) -> bool:  # spare_member and the generator it drives
        code, caller = frame.f_code, frame.f_back
        return code.co_filename == greedy.__file__ and "spare_member" in (code.co_name, caller and caller.f_code.co_name)

    packing, events = line_events(lambda: greedy_general(inst), in_spare_member)
    assert objective(packing) == 177002
    assert 0 < events <= n * k // 10, events


def sparse_general_instance(rng: random.Random, n: int, k: int, cap_lo: int, cap_hi: int) -> Instance:
    """A random recursive tree plus random edges up to 2n, rooted at 0."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    caps = tuple(rng.randint(cap_lo, cap_hi) for _ in range(n))
    return Instance("general", n, caps, k, 0, tuple(sorted(edges)))


def test_each_tree_reads_each_members_neighbors_once(neighbor_calls):
    # General-mix's shape: n = 3000, m = 2n, K = 3, capacities 1..3, and a
    # root that can serve each neighbor in every tree, so the trees compete
    # for the other vertices' capacity.
    drawn = sparse_general_instance(random.Random(2104), 3000, 3, 1, 3)
    caps = (3 * len(drawn.neighbors(0)), *drawn.capacities[1:])
    inst = Instance("general", drawn.n, caps, 3, 0, drawn.edges)
    neighbor_calls.clear()
    packing = greedy_general(inst)
    calls = neighbor_calls["general"]
    assert 0 < calls <= objective(packing), (calls, objective(packing))


def test_objective_floor_on_the_general_mix_shape():
    # The instance above; in one pass, with capacity order, greedy reached 4354.
    drawn = sparse_general_instance(random.Random(2104), 3000, 3, 1, 3)
    caps = (3 * len(drawn.neighbors(0)), *drawn.capacities[1:])
    inst = Instance("general", drawn.n, caps, 3, 0, drawn.edges)
    assert objective(greedy_general(inst)) >= 4754


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
