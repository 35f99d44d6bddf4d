"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance here is exact equality; the only numeric slack is the
wall-clock budget attached to some criteria.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from helpers import (
    EXAMPLE_FORMULA,
    assignment_satisfies,
    cnf_satisfiable,
    random_3cnf,
    random_complete_instance,
    random_tree_instance,
    stripe_vector,
)
from treepack import (
    Instance,
    Packing,
    brute_force_solve,
    extract_assignment,
    objective,
    optimal_objective,
    reduce_3sat,
    solve_complete,
    solve_mckp,
    solve_tree,
    stripe_values,
    verify_packing,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def test_criterion_1_closed_form_on_complete_graphs():
    with criterion(1, "closed-form optimality on complete graphs"):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(500):
            n = rng.randint(1, 50)
            inst = Instance(
                kind="complete",
                n=n,
                capacities=tuple(rng.randint(0, n) for _ in range(n)),
                num_trees=rng.randint(1, min(n, 10)),
                root=rng.randrange(n),
            )
            assert objective(solve_complete(inst)) == optimal_objective(inst)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_oracle_equivalence_complete():
    with criterion(2, "oracle equivalence on complete instances"):
        rng = random.Random(202)
        start = time.perf_counter()
        for _ in range(200):
            inst = random_complete_instance(rng, max_n=6, max_k=3, cap_hi=3)
            value, _ = brute_force_solve(inst)
            assert objective(solve_complete(inst)) == value, inst
        assert time.perf_counter() - start < 120.0


def tree_family(seed: int, count: int = 200) -> list[Instance]:
    rng = random.Random(seed)
    return [random_tree_instance(rng, max_n=8, max_k=3, cap_hi=3) for _ in range(count)]


def test_criterion_3_oracle_equivalence_tree():
    with criterion(3, "oracle equivalence on tree instances"):
        start = time.perf_counter()
        for inst in tree_family(303):
            oracle_value, _ = brute_force_solve(inst)
            value, _ = solve_tree(inst, value_only=True)
            assert value == oracle_value, inst
        assert time.perf_counter() - start < 300.0


def test_criterion_4_reconstruction_soundness():
    with criterion(4, "tree packing reconstruction soundness"):
        for inst in tree_family(303):
            value, packing = solve_tree(inst)
            report = verify_packing(inst, packing)
            assert report["valid"], report["violations"]
            assert objective(packing) == value
            assert value == inst.num_trees + sum(stripe_values(inst)[1][inst.root])


def test_criterion_5_reduction_fidelity():
    with criterion(5, "3-SAT reduction fidelity"):
        start = time.perf_counter()
        example = reduce_3sat(EXAMPLE_FORMULA)
        assert example.gamma == 12
        assert cnf_satisfiable(EXAMPLE_FORMULA)
        rng = random.Random(505)
        formulas = [EXAMPLE_FORMULA]
        formulas += [random_3cnf(rng, max_vars=4, max_clauses=4) for _ in range(100)]
        for sat in formulas:
            out = reduce_3sat(sat)
            value, packing = brute_force_solve(out.instance, max_n=out.instance.n, max_k=1)
            reachable = value >= out.gamma
            assert reachable == cnf_satisfiable(sat), sat
            if reachable:
                assert assignment_satisfies(sat, extract_assignment(out, packing))
        assert time.perf_counter() - start < 300.0


def test_criterion_6_structural_goldens():
    with criterion(6, "gadget structural goldens"):
        out = reduce_3sat(EXAMPLE_FORMULA)
        inst = out.instance
        assert inst.n == 16
        assert len(inst.edges) == 21
        caps = sorted(inst.capacities, reverse=True)
        assert caps == [4] + [3] * 8 + [1] * 4 + [0] * 3
        assert inst.capacities[inst.root] == 4


def test_criterion_7_invariant_suites():
    with criterion(7, "solver and verifier invariants"):
        rng = random.Random(707)
        # value-vector invariants: leaf base case, monotone unit steps, bounds
        for _ in range(60):
            inst = random_tree_instance(rng, max_n=8, max_k=3, cap_hi=3)
            count = inst.num_trees
            for v, excess in stripe_values(inst)[1].items():
                assert len(excess) <= count and all(x >= 1 for x in excess)
                vec = stripe_vector(excess, count)
                neighbors = inst.neighbors(v)
                if v != inst.root and len(neighbors) == 1:
                    assert excess == []
                assert all(vec[k - 1] >= k for k in range(1, count + 1))
                assert all(vec[k] >= vec[k - 1] + 1 for k in range(1, count))
                assert vec[count - 1] <= count * inst.n
        # knapsack saturation: capacity beyond stripes * children changes nothing
        for _ in range(60):
            k = rng.randint(1, 3)
            d = rng.randint(1, 4)
            vectors = []
            for _ in range(d):
                vec = [rng.randint(1, 3)]
                for _ in range(k - 1):
                    vec.append(vec[-1] + rng.randint(1, 3))
                vectors.append(vec)
            saturated = solve_mckp(k, k * d, vectors)[0]
            for extra in (1, 3, 7):
                assert solve_mckp(k, k * d + extra, vectors)[0] == saturated
        # verifier soundness on adversarial packings
        inst = Instance(
            kind="tree",
            n=4,
            capacities=(1, 1, 1, 0),
            num_trees=2,
            edges=((0, 1), (1, 2), (2, 3)),
        )
        full = {1: 0, 2: 1, 3: 2}
        adversarial = [
            Packing(0, (full, {1: 0})),  # capacity of 0 exceeded
            Packing(0, ({2: 0}, {})),  # fake edge
            Packing(0, ({1: 2, 2: 1}, {})),  # cycle
            Packing(0, ({3: 2}, {})),  # orphan branch
            Packing(0, ({0: 1, 1: 0}, {})),  # rooted root
        ]
        for packing in adversarial:
            assert not verify_packing(inst, packing)["valid"]
        good = Packing(0, (full, {}))
        assert verify_packing(inst, good)["valid"]


def test_criterion_8_complexity_smoke():
    with criterion(8, "complexity smoke bounds"):
        rng = random.Random(808)
        n = 10_000
        inst = Instance(
            kind="complete",
            n=n,
            capacities=tuple(rng.randint(0, 10) for _ in range(n)),
            num_trees=10,
        )
        start = time.perf_counter()
        packing = solve_complete(inst)
        assert time.perf_counter() - start < 1.0
        assert objective(packing) == optimal_objective(inst)

        n = 300
        edges = tuple((rng.randrange(v), v) for v in range(1, n))
        tree_inst = Instance(
            kind="tree",
            n=n,
            capacities=tuple(rng.randint(0, 3) for _ in range(n)),
            num_trees=10,
            edges=edges,
        )
        start = time.perf_counter()
        value, packing = solve_tree(tree_inst)
        assert time.perf_counter() - start < 30.0
        assert verify_packing(tree_inst, packing)["valid"]
        assert objective(packing) == value
