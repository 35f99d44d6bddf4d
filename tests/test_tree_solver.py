"""Tree solver tests: knapsack DP, greedy merge, stripe vectors, reconstruction."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tree_instance
from treepack import (
    Instance,
    brute_force_solve,
    objective,
    solve_mckp,
    solve_tree,
    stripe_values,
    verify_packing,
)
from treepack.tree_solver import greedy_allocation


def mckp_brute_force(stripes: int, capacity: int, child_values) -> int:
    """Independent oracle: try every allocation tuple."""
    best = stripes
    levels = range(stripes + 1)
    for combo in itertools.product(levels, repeat=len(child_values)):
        if sum(combo) > capacity:
            continue
        gain = sum(vec[i - 1] for vec, i in zip(child_values, combo) if i)
        best = max(best, stripes + gain)
    return best


def random_value_vector(rng: random.Random, length: int) -> list[int]:
    vec = [rng.randint(1, 3)]
    for _ in range(length - 1):
        vec.append(vec[-1] + rng.randint(1, 3))
    return vec


def tree_instance(edges, caps, k, root=0):
    return Instance(
        kind="tree", n=len(caps), capacities=tuple(caps), num_trees=k, root=root, edges=edges
    )


def rooted_children(inst: Instance) -> tuple[dict[int, list[int]], list[int]]:
    from collections import deque

    children = {v: [] for v in range(inst.n)}
    seen = {inst.root}
    queue = deque([inst.root])
    order = [inst.root]
    while queue:
        u = queue.popleft()
        for w in inst.neighbors(u):
            if w not in seen:
                seen.add(w)
                children[u].append(w)
                order.append(w)
                queue.append(w)
    return children, order


def subtree_sizes(inst: Instance) -> dict[int, int]:
    children, order = rooted_children(inst)
    size = {}
    for u in reversed(order):
        size[u] = 1 + sum(size[w] for w in children[u])
    return size


@st.composite
def tree_instances(draw, max_n: int = 30, max_k: int = 8, cap_hi: int = 6) -> Instance:
    n = draw(st.integers(1, max_n))
    edges = tuple((draw(st.integers(0, v - 1)), v) for v in range(1, n))
    return Instance(
        kind="tree",
        n=n,
        capacities=tuple(draw(st.lists(st.integers(0, cap_hi), min_size=n, max_size=n))),
        num_trees=draw(st.integers(1, min(n, max_k))),
        root=draw(st.integers(0, n - 1)),
        edges=edges,
    )


class TestSolveMckp:
    def test_no_children(self):
        assert solve_mckp(3, 5, []) == (3, [])

    def test_two_leaf_children(self):
        value, allocation = solve_mckp(2, 2, [[1, 2], [1, 2]])
        assert value == 4
        assert allocation == [2, 0]  # lowest-capacity optimum under leftmost slices

    def test_saturated_capacity_serves_all_children_fully(self):
        vectors = [[1, 2], [1, 3], [2, 4]]
        value, allocation = solve_mckp(2, 2 * 3, vectors)
        assert value == 2 + 2 + 3 + 4
        assert allocation == [2, 2, 2]

    def test_zero_capacity(self):
        value, allocation = solve_mckp(2, 0, [[1, 2], [1, 2]])
        assert value == 2
        assert allocation == [0, 0]

    def test_plateau_beyond_top_level_demand(self):
        vectors = [[1, 3, 4], [2, 2, 5]]
        k = 3
        saturated = solve_mckp(k, k * len(vectors), vectors)[0]
        for extra in (1, 2, 10):
            assert solve_mckp(k, k * len(vectors) + extra, vectors)[0] == saturated

    def test_matches_brute_force(self):
        rng = random.Random(123)
        for _ in range(300):
            k = rng.randint(1, 3)
            d = rng.randint(0, 4)
            capacity = rng.randint(0, k * d + 2)
            vectors = [random_value_vector(rng, k) for _ in range(d)]
            value, allocation = solve_mckp(k, capacity, vectors)
            assert value == mckp_brute_force(k, capacity, vectors)
            assert sum(allocation) <= capacity
            assert all(0 <= a <= k for a in allocation)
            gain = sum(vec[a - 1] for vec, a in zip(vectors, allocation) if a)
            assert value == k + gain

    def test_short_child_vector_rejected(self):
        with pytest.raises(ValueError, match="child 0"):
            solve_mckp(3, 1, [[1, 2]])

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="stripes"):
            solve_mckp(0, 1, [])
        with pytest.raises(ValueError, match="capacity"):
            solve_mckp(1, -1, [])


class TestStripeValues:
    def test_star_with_two_leaves(self):
        inst = tree_instance(((0, 1), (0, 2)), (1, 0, 0), 2)
        values = stripe_values(inst)
        assert values[0] == [2, 3]
        assert values[1] == [1, 2]
        assert values[2] == [1, 2]

    def test_three_path(self):
        inst = tree_instance(((0, 1), (1, 2)), (1, 1, 0), 2)
        values = stripe_values(inst)
        assert values[2] == [1, 2]
        assert values[1] == [2, 3]
        assert values[0] == [3, 4]

    def test_leaves_score_their_stripe_count(self):
        rng = random.Random(9)
        for _ in range(30):
            inst = random_tree_instance(rng)
            values = stripe_values(inst)
            for v in range(inst.n):
                neighbors = inst.neighbors(v)
                if v != inst.root and len(neighbors) == 1:
                    assert values[v] == list(range(1, inst.num_trees + 1))

    def test_monotone_with_unit_steps_and_bounds(self):
        rng = random.Random(10)
        for _ in range(60):
            inst = random_tree_instance(rng)
            values = stripe_values(inst)
            sizes = subtree_sizes(inst)
            for v, vec in values.items():
                for k in range(1, inst.num_trees + 1):
                    assert k <= vec[k - 1] <= k * sizes[v]
                for k in range(1, inst.num_trees):
                    assert vec[k] >= vec[k - 1] + 1

    def test_kind_mismatch(self):
        inst = Instance(kind="complete", n=3, capacities=(1, 1, 1), num_trees=1)
        with pytest.raises(ValueError, match="tree"):
            stripe_values(inst)


class TestSolveTree:
    def test_single_vertex(self):
        inst = Instance(kind="tree", n=1, capacities=(4,), num_trees=1, edges=())
        value, packing = solve_tree(inst)
        assert value == 1
        assert packing is not None and not packing.trees[0]

    def test_three_path_packing(self):
        inst = tree_instance(((0, 1), (1, 2)), (1, 1, 0), 2)
        value, packing = solve_tree(inst)
        assert value == 4
        assert packing.trees[0] == {1: 0, 2: 1}
        assert packing.trees[1] == {}

    def test_star_with_tight_root(self):
        inst = tree_instance(((0, 1), (0, 2), (0, 3)), (2, 0, 0, 0), 1)
        value, packing = solve_tree(inst)
        assert value == 3
        assert len(packing.trees[0]) == 2  # the root and two children

    def test_value_only_skips_reconstruction(self):
        inst = tree_instance(((0, 1), (1, 2)), (1, 1, 0), 2)
        value, packing = solve_tree(inst, value_only=True)
        assert value == 4
        assert packing is None

    def test_matches_oracle(self):
        rng = random.Random(314)
        for _ in range(80):
            inst = random_tree_instance(rng)
            oracle_value, _ = brute_force_solve(inst)
            value, packing = solve_tree(inst)
            assert value == oracle_value, inst
            report = verify_packing(inst, packing)
            assert report["valid"], report["violations"]
            assert objective(packing) == value

    def test_deep_path_does_not_recurse(self):
        n = 3000
        edges = tuple((v - 1, v) for v in range(1, n))
        inst = Instance(
            kind="tree", n=n, capacities=(1,) * n, num_trees=1, root=0, edges=edges
        )
        value, packing = solve_tree(inst)
        assert value == n
        assert len(packing.trees[0]) == n - 1  # every vertex but the root

    def test_kind_mismatch(self):
        inst = Instance(kind="complete", n=3, capacities=(1, 1, 1), num_trees=1)
        with pytest.raises(ValueError, match="tree"):
            solve_tree(inst)


class TestGreedyMerge:
    @settings(max_examples=200, deadline=None)
    @given(tree_instances())
    def test_stripe_vectors_are_concave_with_unit_marginals(self, inst):
        for vec in stripe_values(inst).values():
            gains = [b - a for a, b in zip([0] + vec, vec)]
            assert min(gains) >= 1
            assert all(x >= y for x, y in zip(gains, gains[1:])), vec

    def test_greedy_matches_mckp_at_every_vertex(self):
        rng = random.Random(2024)
        for _ in range(300):
            inst = random_tree_instance(rng, max_n=25, max_k=6, cap_hi=6)
            values = stripe_values(inst)
            children, _ = rooted_children(inst)
            for u, kids in children.items():
                if not kids:
                    continue
                vecs = [values[w] for w in kids]
                for k in range(1, inst.num_trees + 1):
                    value, allocation = solve_mckp(k, inst.capacities[u], vecs)
                    assert values[u][k - 1] == value
                    assert greedy_allocation(k, inst.capacities[u], vecs) == allocation

    def test_wide_star(self):
        # Guards the fast path: a knapsack per vertex and per k takes minutes here.
        n, k, root_capacity = 2000, 10, 5000
        inst = Instance(
            kind="tree",
            n=n,
            capacities=(root_capacity,) + (1,) * (n - 1),
            num_trees=k,
            root=0,
            edges=tuple((0, v) for v in range(1, n)),
        )
        value, packing = solve_tree(inst)
        assert value == k + min(root_capacity, (n - 1) * k) == 5010
        report = verify_packing(inst, packing)
        assert report["valid"], report["violations"]
        assert objective(packing) == value


def hub_tree_instance(rng: random.Random, max_n: int = 40) -> Instance:
    """A tree whose non-hub vertices hang off one of a few hubs, K up to n."""
    n = rng.randint(2, max_n)
    hubs = rng.randint(1, min(3, n))
    edges = [(rng.randrange(v), v) for v in range(1, hubs)]
    edges += [(rng.randrange(hubs), v) for v in range(hubs, n)]
    caps = [rng.choice((0, 1, 2, 3)) for _ in range(n)]
    for h in range(hubs):
        caps[h] = rng.randint(0, 3 * n)
    return Instance(
        kind="tree",
        n=n,
        capacities=tuple(caps),
        num_trees=rng.randint(1, n),
        root=rng.randrange(n),
        edges=tuple(edges),
    )


class TestNestedTrees:
    """Every vertex holds a prefix of the stripes, so tree t+1 lies inside tree t."""

    def test_each_tree_is_a_sub_map_of_the_one_before(self):
        rng = random.Random(1013)
        saw_proper_subtree = False
        for i in range(400):
            if i % 2:
                inst = hub_tree_instance(rng)
            else:
                inst = random_tree_instance(rng, max_n=30, max_k=30, cap_hi=4)
            value, packing = solve_tree(inst)
            assert objective(packing) == value
            for earlier, later in zip(packing.trees, packing.trees[1:]):
                assert later.items() <= earlier.items(), inst
                # same insertion order: the later map is a subsequence of the earlier one
                assert list(later.items()) == [
                    item for item in earlier.items() if item[0] in later
                ]
                saw_proper_subtree |= len(later) < len(earlier)
        assert saw_proper_subtree
