"""Complete-graph solver tests: stage traces, closed form, oracle agreement."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from helpers import (
    capacity_features,
    random_complete_instance,
    shaped_instance,
)
from test_differential import reference_stage_paths
from treepack import (
    Instance,
    attach_stage,
    brute_force_solve,
    build_stage_paths,
    objective,
    optimal_objective,
    solve_complete,
    verify_packing,
)


def complete(caps, k, root=0):
    return Instance(kind="complete", n=len(caps), capacities=tuple(caps), num_trees=k, root=root)


class TestStagePaths:
    def test_single_vertex_paths_pay_nothing(self):
        inst = complete([5], 1)
        paths, residual = build_stage_paths(inst)
        assert paths == [[0]]
        assert residual == [5]

    def test_worked_trace(self):
        # First path covers everyone and pays all but the last vertex;
        # the second only finds the root and vertex 3 still funded.
        inst = complete([2, 1, 1, 1], 2)
        paths, residual = build_stage_paths(inst)
        assert paths == [[0, 1, 2, 3], [0, 3]]
        assert residual == [0, 0, 0, 1]

    def test_zero_root_capacity_gives_singletons(self):
        inst = complete([0, 4, 4], 3, root=0)
        paths, residual = build_stage_paths(inst)
        assert paths == [[0], [0], [0]]
        assert residual == [0, 4, 4]

    def test_one_funded_vertex_ends_every_active_path(self):
        # last = 3 is never charged; active = min(c_root, K) = 3.
        inst = complete([3, 0, 0, 5, 0], 4)
        paths, residual = build_stage_paths(inst)
        assert paths == [[0, 3], [0, 3], [0, 3], [0]]
        assert residual == [0, 0, 0, 5, 0]

    def test_matches_charged_stage_paths(self):
        # The closed form on shaped capacities against stage one charging
        # capacities path by path (test_differential.reference_stage_paths).
        rng = random.Random(2111)
        seen = Counter()
        for _ in range(2000):
            inst = shaped_instance(rng, random_complete_instance, max_n=rng.choice((6, 20, 60)))
            assert build_stage_paths(inst) == reference_stage_paths(inst), inst
            seen.update(capacity_features(inst))
        assert min(seen.values()) >= 100, seen

    def test_paths_only_visit_funded_vertices(self):
        rng = random.Random(21)
        for _ in range(50):
            inst = random_complete_instance(rng)
            paths, _ = build_stage_paths(inst)
            caps = list(inst.capacities)
            for path in paths:
                assert path[0] == inst.root
                assert len(set(path)) == len(path)
                for v in path[:-1]:
                    assert caps[v] > 0
                    caps[v] -= 1

    def test_kind_mismatch(self):
        inst = Instance(kind="tree", n=2, capacities=(1, 1), num_trees=1, edges=((0, 1),))
        with pytest.raises(ValueError, match="complete"):
            build_stage_paths(inst)


class TestAttachStage:
    def test_no_residual_keeps_paths(self):
        inst = complete([2, 1, 1, 1], 2)
        paths, residual = build_stage_paths(inst)
        packing = attach_stage(inst, [list(p) for p in paths], [0] * 4)
        for path, tree in zip(paths, packing.trees):
            assert {packing.root, *tree} == set(path)
            assert tree == {path[i]: path[i - 1] for i in range(1, len(path))}

    def test_ample_capacity_spans_everything(self):
        inst = complete([5, 5, 5], 2)
        packing = solve_complete(inst)
        assert all(len(t) == 2 for t in packing.trees)  # both non-root vertices
        assert objective(packing) == 6

    def test_worked_objective(self):
        packing = solve_complete(complete([2, 1, 1, 1], 2))
        assert objective(packing) == 7


class TestSolveComplete:
    def test_zero_capacity_root(self):
        packing = solve_complete(complete([0, 3, 3], 2))
        assert objective(packing) == 2
        assert not any(packing.trees)

    def test_root_only_funding(self):
        inst = complete([3, 0, 0, 0, 0], 2)
        packing = solve_complete(inst)
        assert objective(packing) == 5
        assert optimal_objective(inst) == 5

    def test_matches_closed_form_randomized(self):
        rng = random.Random(31337)
        for _ in range(300):
            inst = random_complete_instance(rng, max_n=12, max_k=5, cap_hi=12)
            packing = solve_complete(inst)
            assert objective(packing) == optimal_objective(inst)

    def test_output_verifies(self):
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(1, 10)
            inst = complete(
                [rng.randint(0, n) for _ in range(n)], rng.randint(1, n), root=rng.randrange(n)
            )
            report = verify_packing(inst, solve_complete(inst))
            assert report["valid"], report["violations"]

    def test_agrees_with_oracle(self):
        rng = random.Random(2024)
        for _ in range(40):
            inst = random_complete_instance(rng, max_n=5, max_k=2)
            value, _ = brute_force_solve(inst)
            assert objective(solve_complete(inst)) == value

    def test_non_null_tree_count(self):
        # Up to min(c_root, K) trees are non-null, with equality whenever
        # every one of the first min(c_root, K) stage paths reaches past
        # the root.  A degenerate path leaves the root's unit unspent, so
        # a later greedy tree may grab it, as in test_root_only_funding
        # where only one of two possible non-null trees appears.
        rng = random.Random(88)
        for _ in range(200):
            inst = random_complete_instance(rng, max_n=7, max_k=4, cap_hi=5)
            active = min(inst.capacities[inst.root], inst.num_trees)
            paths, _ = build_stage_paths(inst)
            packing = solve_complete(inst)
            non_null = sum(1 for t in packing.trees if t)
            assert non_null <= active
            if all(len(p) >= 2 for p in paths[:active]):
                assert non_null == active

    def test_explicit_undercount_example(self):
        inst = complete([3, 0, 0, 0, 0], 2)
        packing = solve_complete(inst)
        assert sum(1 for t in packing.trees if t) == 1
        assert objective(packing) == optimal_objective(inst)

    def test_deterministic(self):
        inst = complete([2, 1, 1, 1], 2)
        first = solve_complete(inst)
        second = solve_complete(inst)
        assert first == second
        assert [[(p, c) for c, p in t.items()] for t in first.trees] == [
            [(0, 1), (1, 2), (2, 3)],
            [(0, 3), (3, 1)],
        ]

    def test_kind_mismatch(self):
        for kind in ("general", "tree"):
            inst = Instance(kind=kind, n=2, capacities=(1, 1), num_trees=1, edges=((0, 1),))
            for solve in (solve_complete, optimal_objective):
                with pytest.raises(ValueError) as exc:
                    solve(inst)
                assert str(exc.value) == f"kind: expected a complete instance, got {kind!r}"
