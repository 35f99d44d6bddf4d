"""Exhaustive-search oracle and greedy baseline tests."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from functools import partial

import pytest

from helpers import (
    EXAMPLE_FORMULA,
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
)
from treepack import (
    Instance,
    SearchLimitExceeded,
    brute_force_solve,
    greedy_general,
    objective,
    optimal_objective,
    oracle,
    reduce_3sat,
    solve_tree,
    verify_packing,
)


def naive_best(inst: Instance) -> int:
    """Second, unrelated exhaustive search used to cross-check the oracle.

    Enumerates every rooted tree as (member set, parent assignment) via
    raw cartesian products, then every K-tuple of trees, with no pruning
    at all.  Only viable for very small instances.
    """
    others = [v for v in range(inst.n) if v != inst.root]
    trees: list[dict[int, int]] = []
    for size in range(len(others) + 1):
        for members in itertools.combinations(others, size):
            vset = {inst.root, *members}
            options = [
                [u for u in vset if u != v and inst.has_edge(u, v)] for v in members
            ]
            for combo in itertools.product(*options):
                parent = dict(zip(members, combo))
                ok = True
                for v in members:
                    walked = set()
                    x = v
                    while x != inst.root:
                        if x in walked:
                            ok = False
                            break
                        walked.add(x)
                        x = parent[x]
                    if not ok:
                        break
                if ok:
                    trees.append(parent)
    best = 0
    for picks in itertools.product(trees, repeat=inst.num_trees):
        load: Counter = Counter()
        for parent in picks:
            load.update(parent.values())
        if all(load[v] <= inst.capacities[v] for v in load):
            best = max(best, sum(1 + len(parent) for parent in picks))
    return best


class TestBruteForce:
    def test_triangle_single_tree(self):
        inst = Instance(kind="complete", n=3, capacities=(1, 1, 1), num_trees=1)
        value, packing = brute_force_solve(inst)
        assert value == 3
        assert objective(packing) == 3
        assert verify_packing(inst, packing)["valid"]

    def test_path_two_trees(self):
        inst = Instance(
            kind="tree", n=3, capacities=(1, 1, 1), num_trees=2, edges=((0, 1), (1, 2))
        )
        value, _ = brute_force_solve(inst)
        assert value == 4

    def test_all_zero_capacities(self):
        inst = Instance(kind="complete", n=4, capacities=(0, 0, 0, 0), num_trees=3)
        value, packing = brute_force_solve(inst, max_k=3)
        assert value == 3
        assert not any(packing.trees)

    def test_limits_enforced(self):
        big = Instance(kind="complete", n=9, capacities=(1,) * 9, num_trees=1)
        with pytest.raises(SearchLimitExceeded, match="n=9"):
            brute_force_solve(big)
        wide = Instance(kind="complete", n=8, capacities=(1,) * 8, num_trees=4)
        with pytest.raises(SearchLimitExceeded, match="K=4"):
            brute_force_solve(wide)
        assert brute_force_solve(wide, max_k=4)[0] >= 4

    def test_returned_packing_achieves_value(self):
        rng = random.Random(64)
        for _ in range(40):
            inst = random_general_instance(rng, max_n=5)
            value, packing = brute_force_solve(inst)
            assert verify_packing(inst, packing)["valid"]
            assert objective(packing) == value

    def test_dominates_any_verified_packing(self):
        rng = random.Random(65)
        for _ in range(40):
            inst = random_general_instance(rng, max_n=6)
            value, _ = brute_force_solve(inst)
            assert value >= objective(greedy_general(inst))

    def test_matches_complete_closed_form(self):
        rng = random.Random(66)
        for _ in range(30):
            inst = random_complete_instance(rng, max_n=5)
            value, _ = brute_force_solve(inst)
            assert value == optimal_objective(inst)

    def test_deterministic(self):
        inst = Instance(
            kind="general",
            n=5,
            capacities=(2, 1, 2, 0, 1),
            num_trees=2,
            edges=((0, 1), (0, 2), (1, 3), (2, 4), (3, 4)),
        )
        first = brute_force_solve(inst)
        second = brute_force_solve(inst)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(70)
        for _ in range(25):
            inst = random_general_instance(rng, max_n=4, max_k=2)
            assert brute_force_solve(inst)[0] == naive_best(inst), inst

    # How often the search called grow when this test was added.  A looser
    # bound still finds the optimum, so only this count shows it.
    GROW_CALLS = {
        "complete n=6 K=3": (Instance("complete", 6, (3,) * 6, 3), 37550),
        "complete root 2": (Instance("complete", 6, (2, 1, 3, 0, 1, 2), 3, root=2), 4265),
        "gadget": (reduce_3sat(EXAMPLE_FORMULA).instance, 1420),
    }

    @pytest.mark.parametrize("name", GROW_CALLS)
    def test_search_calls_grow_no_more_often(self, name):
        inst, before = self.GROW_CALLS[name]
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            calls += event == "call" and code.co_name == "grow" and code.co_filename == oracle.__file__

        sys.setprofile(profile)
        try:
            brute_force_solve(inst, max_n=inst.n)
        finally:
            sys.setprofile(None)
        assert 0 < calls <= before, calls


class TestGreedy:
    def test_all_zero_capacities_gives_null_trees(self):
        inst = Instance(kind="complete", n=4, capacities=(0, 0, 0, 0), num_trees=2)
        packing = greedy_general(inst)
        assert not any(packing.trees)
        assert objective(packing) == 2

    @pytest.mark.parametrize(
        "seed, make, optimum",
        [
            (67, partial(random_complete_instance, max_n=7, cap_hi=4), optimal_objective),
            (68, random_tree_instance, lambda inst: solve_tree(inst, value_only=True)[0]),
        ],
        ids=["complete", "tree"],
    )
    def test_never_beats_the_optimum(self, seed, make, optimum):
        rng = random.Random(seed)
        for _ in range(50):
            inst = make(rng)
            packing = greedy_general(inst)
            assert verify_packing(inst, packing)["valid"]
            assert objective(packing) <= optimum(inst)

    def test_output_verifies_on_general_graphs(self):
        rng = random.Random(69)
        for _ in range(50):
            inst = random_general_instance(rng)
            assert verify_packing(inst, greedy_general(inst))["valid"]
