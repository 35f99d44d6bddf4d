"""Tree solver tests: knapsack DP, greedy merge, excess lists, reconstruction."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import map_items, random_tree_instance, stripe_vector
from treepack import (
    Instance,
    Packing,
    brute_force_solve,
    objective,
    packing_to_dict,
    solve_mckp,
    solve_tree,
    stripe_values,
    verify_packing,
)
from treepack.tree_solver import _packing_text, greedy_allocation


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


def reaches(inst: Instance) -> dict[int, int]:
    """The most trees each vertex can be served by: K at the root, min(reach(u), c_u) below u."""
    children, order = rooted_children(inst)
    reach = {inst.root: inst.num_trees}
    for u in order:
        for w in children[u]:
            reach[w] = min(reach[u], inst.capacities[u])
    return reach


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
        _, values = stripe_values(inst)
        assert values[0] == [1]  # f = [2, 3]
        assert values[1] == []  # f = [1, 2]
        assert values[2] == []

    def test_three_path(self):
        inst = tree_instance(((0, 1), (1, 2)), (1, 1, 0), 2)
        _, values = stripe_values(inst)
        assert values[2] == []  # f = [1, 2]
        assert values[1] == [1]  # f = [2, 3]
        assert values[0] == [2]  # f = [3, 4]

    @pytest.mark.parametrize(
        "inst, children",
        [(tree_instance((), (1,), 1), [()]), (tree_instance(((0, 1),), (1, 1), 1), [[1], ()])],
        ids=["lone root", "leaf with capacity"],
    )
    def test_vertices_that_serve_no_child_keep_the_empty_tuple(self, inst, children):
        assert stripe_values(inst)[0] == children

    def test_leaves_score_their_stripe_count(self):
        rng = random.Random(9)
        for _ in range(30):
            inst = random_tree_instance(rng)
            _, values = stripe_values(inst)
            for v in range(inst.n):
                neighbors = inst.neighbors(v)
                if v != inst.root and len(neighbors) == 1:
                    assert values[v] == []

    def test_monotone_with_unit_steps_and_bounds(self):
        rng = random.Random(10)
        for _ in range(60):
            inst = random_tree_instance(rng)
            _, values = stripe_values(inst)
            sizes = subtree_sizes(inst)
            for v, excess in values.items():
                assert len(excess) <= inst.num_trees and all(x >= 1 for x in excess)
                vec = stripe_vector(excess, inst.num_trees)
                for k in range(1, inst.num_trees + 1):
                    assert k <= vec[k - 1] <= k * sizes[v]
                for k in range(1, inst.num_trees):
                    assert vec[k] >= vec[k - 1] + 1

    def test_lists_stay_short_on_a_large_tree(self):
        # n*K = 1,000,000: each list must end at its last marginal above 1.
        rng = random.Random(4000)
        n = 1000
        inst = Instance(
            kind="tree",
            n=n,
            capacities=tuple(rng.randint(0, 3) for _ in range(n)),
            num_trees=n,
            root=0,
            edges=tuple((rng.randrange(v), v) for v in range(1, n)),
        )
        assert sum(map(len, stripe_values(inst)[1].values())) <= 2 * n

    def test_lists_stop_at_the_reach(self):
        # A path of capacity-K vertices under a root of capacity 1: every
        # vertex below the root is served by at most one tree.  Without the
        # cut at the reach the lists hold (n - 1)**2 entries.
        n = 1000
        inst = tree_instance(tuple((v, v + 1) for v in range(n - 1)), (1,) + (n,) * (n - 1), n)
        _, values = stripe_values(inst)
        assert sum(map(len, values.values())) <= 2 * n
        assert solve_tree(inst, value_only=True)[0] == n + (n - 1)
        reach = reaches(inst)
        assert all(len(values[v]) <= reach[v] for v in range(n))

    def test_each_solve_path_calls_it_once(self, monkeypatch):
        """A tracer times the merge by wrapping tree_solver.stripe_values, so
        every solve path calls it once, through the module attribute."""
        import treepack.tree_solver as tree_solver

        calls = []
        real = tree_solver.stripe_values
        monkeypatch.setattr(tree_solver, "stripe_values", lambda inst: calls.append(inst) or real(inst))
        inst = Instance("tree", 3, (1, 1, 0), 2, edges=((0, 1), (1, 2)))
        paths = {
            "solve_tree": lambda: solve_tree(inst),
            "value_only": lambda: solve_tree(inst, value_only=True),
            "_packing_text": lambda: next(_packing_text(inst)[1]),
        }
        for name, path in paths.items():
            calls.clear()
            path()
            assert calls == [inst], name


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


class TestGreedyMerge:
    @settings(max_examples=200, deadline=None)
    @given(tree_instances())
    def test_stripe_vectors_are_concave_with_unit_marginals(self, inst):
        for excess in stripe_values(inst)[1].values():
            assert len(excess) <= inst.num_trees
            assert all(x >= y >= 1 for x, y in zip(excess, excess[1:] + [1])), excess
            vec = stripe_vector(excess, inst.num_trees)
            gains = [b - a for a, b in zip([0] + vec, vec)]
            assert min(gains) >= 1
            assert all(x >= y for x, y in zip(gains, gains[1:])), vec

    def test_greedy_matches_mckp_at_every_vertex(self):
        rng = random.Random(2024)
        for i in range(300):
            if i % 3:
                inst = random_tree_instance(rng, max_n=25, max_k=25, cap_hi=6)
            else:
                inst = hub_tree_instance(rng, max_n=16)
            count = inst.num_trees
            _, values = stripe_values(inst)
            children, _ = rooted_children(inst)
            reach = reaches(inst)
            for u, kids in children.items():
                if not kids:
                    continue
                excesses = [values[w] for w in kids]
                vecs = [stripe_vector(e, count) for e in excesses]
                vec = stripe_vector(values[u], count)
                for k in range(1, reach[u] + 1):  # a list stops at its vertex's reach
                    value, allocation = solve_mckp(k, inst.capacities[u], vecs)
                    assert vec[k - 1] == value
                    assert greedy_allocation(k, inst.capacities[u], excesses) == allocation

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

    def test_capacity_beyond_a_machine_word(self):
        # The unit-marginal fill hands out slots past a machine word.
        inst = tree_instance(((0, 1), (0, 2), (2, 3)), (10**30, 0, 10**30, 0), 3)
        value, packing = solve_tree(inst)
        assert value == 3 * 4
        assert all(tree == {1: 0, 2: 0, 3: 2} for tree in packing.trees)
        assert greedy_allocation(3, 10**30, [[], [2, 1]]) == [3, 3]


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


def reference_tree_maps(inst: Instance) -> list[dict[int, int]]:
    """The K parent maps filled directly by the walk: a grant of level s enters trees 0..s-1."""
    _, values = stripe_values(inst)
    maps: list[dict[int, int]] = [{} for _ in range(inst.num_trees)]
    stack = [(inst.root, -1, inst.num_trees)]
    while stack:
        u, up, level = stack.pop()
        kids = [w for w in inst.neighbors(u) if w != up]
        allocation = greedy_allocation(level, inst.capacities[u], [values[w] for w in kids])
        for w, granted in zip(kids, allocation):
            if granted:
                for s in range(granted):
                    maps[s][w] = u
                stack.append((w, u, granted))
    return maps


def text_case(rng: random.Random) -> Instance:
    """A relabelled random tree with a random root, K up to n, in one of several capacity shapes."""
    n = 1 if rng.random() < 0.05 else rng.randint(2, 50)
    label = list(range(n))
    rng.shuffle(label)
    if rng.random() < 0.3:  # a few hubs over long chains, or a random recursive tree
        edges = [(label[rng.randrange(min(v, 3))], label[v]) for v in range(1, n)]
    else:
        edges = [(label[rng.randrange(v)], label[v]) for v in range(1, n)]
    shape = rng.choice(("small", "up_to_n", "huge", "all_zero"))
    hi = {"small": 3, "up_to_n": n, "huge": 10**20}.get(shape, 0)
    caps = tuple(rng.randint(0, hi) for _ in range(n))
    return Instance("tree", n, caps, rng.randint(1, n), root=rng.randrange(n), edges=tuple(edges))


class TestTreePackingText:
    """The writer of granted levels gives the bytes of solve_tree's document."""

    def test_chunks_equal_the_packing_document(self):
        rng = random.Random(27)
        shapes = Counter()
        for _ in range(1500):
            inst = text_case(rng)
            value, packing = solve_tree(inst)
            assert map_items(packing) == map_items(Packing(inst.root, reference_tree_maps(inst)))
            best, chunks = _packing_text(inst)
            chunks = list(chunks)
            assert len(chunks) == inst.num_trees + 1
            assert "".join(chunks) == json.dumps(packing_to_dict(packing)) + "\n", inst
            assert best == value == objective(packing)
            caps = inst.capacities
            shapes["n1"] += inst.n == 1
            shapes["all_zero"] += not any(caps)
            shapes["huge"] += max(caps) > 2**64
            shapes["k_is_n"] += inst.num_trees == inst.n > 1
            shapes["nested"] += len(packing.trees[0]) > len(packing.trees[-1]) > 0
        assert min(shapes.values()) >= 20, shapes

    def test_worked_chunks(self):
        # The root's 3 slots grant vertex 1 level 2 and vertex 2 level 1;
        # vertex 1's one slot grants vertex 3 level 1.
        inst = Instance("tree", 4, (3, 1, 0, 0), 2, edges=((0, 1), (0, 2), (1, 3)))
        value, chunks = _packing_text(inst)
        assert value == 6
        assert list(chunks) == [
            '{"trees": [{"edges": [[0, 1], [0, 2], [1, 3]]}',
            ', {"edges": [[0, 1]]}',
            '], "objective": 6}\n',
        ]

    def test_the_walk_waits_for_the_first_chunk(self, monkeypatch):
        import treepack.tree_solver as tree_solver

        walks = []
        real = tree_solver._grants
        monkeypatch.setattr(tree_solver, "_grants", lambda *a: walks.append(1) or real(*a))
        inst = Instance("tree", 3, (1, 1, 0), 2, edges=((0, 1), (1, 2)))
        value, chunks = _packing_text(inst)
        assert value == 4 and walks == []
        assert next(chunks) == '{"trees": [{"edges": [[0, 1], [1, 2]]}'
        assert walks == [1]


class TestWalk:
    def test_expands_only_the_vertices_that_can_grant(self, monkeypatch):
        """One greedy_allocation per expanded vertex: the root, then each granted
        vertex with a non-empty excess list, which is one with children and capacity."""
        import treepack.tree_solver as tree_solver

        calls = []
        real = tree_solver.greedy_allocation
        monkeypatch.setattr(
            tree_solver, "greedy_allocation", lambda *a: calls.append(1) or real(*a)
        )
        rng = random.Random(28)
        shapes = Counter()
        for i in range(400):
            if i % 2:
                inst = hub_tree_instance(rng)
            else:
                inst = random_tree_instance(rng, max_n=30, max_k=30, cap_hi=2)
            children, values = stripe_values(inst)
            calls.clear()
            pairs, _ = tree_solver._grants(inst, children, values)
            granted = [w for w, _ in pairs]
            inner = [w for w in granted if inst.capacities[w] and len(inst.neighbors(w)) > 1]
            assert len(calls) == 1 + sum(1 for w in granted if values[w]) == 1 + len(inner)
            below = {c for w in granted if not inst.capacities[w] for c in inst.neighbors(w)}
            shapes["granted_leaf"] += any(len(inst.neighbors(w)) == 1 for w in granted)
            shapes["granted_zero_hub"] += any(
                not inst.capacities[w] and len(inst.neighbors(w)) > 1 for w in granted
            )
            shapes["subtree_below_a_zero_hub"] += bool(below - set(granted) - {inst.root})
        assert min(shapes.values()) >= 20, shapes
