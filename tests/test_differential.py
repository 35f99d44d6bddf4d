"""Differential tests: the linear-time code against the algorithms it replaced.

The reference functions below are the earlier, simpler implementations of
``RootedTree.edges``, ``verify_packing`` and ``greedy_general``, kept
verbatim apart from taking the tree or instance as an argument.  The
current code must give exactly the same results: the same edge order, the
same violation list in the same order, the same parent maps.
"""

from __future__ import annotations

import random
from collections import Counter, deque

from helpers import (
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
)
from treepack import (
    Instance,
    Packing,
    RootedTree,
    VerificationReport,
    Violation,
    greedy_general,
    packing_from_dict,
    packing_to_dict,
    solve_complete,
    solve_tree,
    verify_packing,
)


def reference_edges(tree: RootedTree) -> list[tuple[int, int]]:
    """Deque BFS with one sort per parent.  Loops forever if the root has a
    parent that the root reaches, so callers keep the root out of the map."""
    children: dict[int, list[int]] = {}
    for c, p in tree.parent.items():
        children.setdefault(p, []).append(c)
    for kids in children.values():
        kids.sort()
    out: list[tuple[int, int]] = []
    seen = {tree.root}
    queue = deque([tree.root])
    while queue:
        u = queue.popleft()
        for c in children.get(u, ()):
            out.append((u, c))
            seen.add(c)
            queue.append(c)
    if len(out) < len(tree.parent):
        rest = [(p, c) for c, p in tree.parent.items() if c not in seen]
        out.extend(sorted(rest, key=lambda e: e[1]))
    return out


def reference_verify(inst: Instance, packing: Packing) -> VerificationReport:
    """A has_edge call per edge and a memoized parent-chain walk per vertex."""
    trees = packing.trees
    violations: list[Violation] = []
    for ti, tree in enumerate(trees):
        if tree.root != inst.root:
            violations.append(
                Violation(ti, tree.root, f"tree rooted at {tree.root}, instance root is {inst.root}")
            )
            continue
        if tree.root in tree.parent:
            violations.append(Violation(ti, tree.root, "root must not have a parent"))
        bad_ids = set()
        for child in sorted(tree.parent):
            par = tree.parent[child]
            if not (0 <= child < inst.n and 0 <= par < inst.n):
                violations.append(
                    Violation(ti, child, f"edge ({par}, {child}) uses a vertex outside [0, {inst.n})")
                )
                bad_ids.add(child)
            elif not inst.has_edge(par, child):
                violations.append(
                    Violation(ti, child, f"edge ({par}, {child}) not in the instance graph")
                )
        status: dict[int, bool] = {tree.root: True}
        for v in sorted(tree.vertices):
            if v in status or v in bad_ids:
                continue
            chain: list[int] = []
            chain_set: set[int] = set()
            x = v
            while True:
                if x in status:
                    ok = status[x]
                    break
                if x in chain_set:
                    ok = False
                    break
                chain.append(x)
                chain_set.add(x)
                if x not in tree.parent:
                    ok = False
                    break
                x = tree.parent[x]
            for y in chain:
                status[y] = ok
                if not ok:
                    violations.append(Violation(ti, y, "not connected to the root"))
    totals: Counter = Counter()
    for tree in trees:
        for par in tree.parent.values():
            totals[par] += 1
    for v in sorted(totals):
        if 0 <= v < inst.n and totals[v] > inst.capacities[v]:
            violations.append(
                Violation(
                    None,
                    v,
                    f"capacity exceeded: {totals[v]} children across trees, capacity {inst.capacities[v]}",
                )
            )
    return VerificationReport(not violations, violations)


def reference_greedy(inst: Instance) -> Packing:
    """Rescans every member list from the start on every turn: quadratic."""
    count = inst.num_trees
    root = inst.root
    caps = list(inst.capacities)
    parents: list[dict[int, int]] = [{} for _ in range(count)]
    orders: list[list[int]] = [[root] for _ in range(count)]
    members: list[set[int]] = [{root} for _ in range(count)]
    grew = True
    while grew:
        grew = False
        for k in range(count):
            found = None
            for u in orders[k]:
                if caps[u] <= 0:
                    continue
                for w in inst.neighbors(u):
                    if w not in members[k]:
                        found = (u, w)
                        break
                if found:
                    break
            if found:
                u, w = found
                caps[u] -= 1
                parents[k][w] = u
                members[k].add(w)
                orders[k].append(w)
                grew = True
    return Packing(tuple(RootedTree(root, pm) for pm in parents))


FAMILIES = (
    (random_complete_instance, solve_complete),
    (random_tree_instance, lambda inst: solve_tree(inst)[1]),
    (random_general_instance, greedy_general),
)


def seeded_cases(seed: int, count: int, max_n: int = 12, max_k: int = 4):
    """(instance, valid packing) pairs cycling through the three kinds."""
    rng = random.Random(seed)
    for i in range(count):
        make, solve = FAMILIES[i % len(FAMILIES)]
        inst = make(rng, max_n=max_n, max_k=max_k, cap_hi=4)
        yield rng, inst, solve(inst)


def corrupt(rng: random.Random, inst: Instance, packing: Packing) -> Packing:
    """Apply one to four random faults to a valid packing."""
    n, root = inst.n, inst.root
    roots = [t.root for t in packing.trees]
    maps = [dict(t.parent) for t in packing.trees]
    for _ in range(rng.randint(1, 4)):
        ti = rng.randrange(len(maps))
        parent = maps[ti]
        v = rng.randrange(n)
        u = rng.randrange(n)
        fault = rng.choice(
            ("out_of_range", "wrong_root", "root_parent", "non_edge", "self_edge",
             "overflow", "cycle", "orphan", "delete")
        )
        if fault == "out_of_range":
            bad = rng.choice((-1, -3, n, n + 2))
            if rng.random() < 0.5:
                parent[v if v != root else bad] = bad
            else:
                parent[bad] = u
        elif fault == "wrong_root":
            roots[ti] = rng.choice([w for w in range(-1, n + 1) if w != root])
        elif fault == "root_parent":
            parent[root] = u
        elif fault == "non_edge" and v != root:
            parent[v] = u
        elif fault == "self_edge" and v != root:
            parent[v] = v
        elif fault == "overflow":
            for w in range(n):
                if w != root and w != u and rng.random() < 0.5:
                    parent[w] = u
        elif fault == "cycle" and root not in (u, v) and u != v:
            parent[u], parent[v] = v, u
        elif fault == "orphan" and v != root:
            parent[v] = n + rng.randrange(3)
        elif fault == "delete" and parent:
            del parent[rng.choice(sorted(parent))]
    return Packing(tuple(RootedTree(r, pm) for r, pm in zip(roots, maps)))


class TestEdgesMatchReference:
    def test_valid_trees(self):
        for _, _, packing in seeded_cases(1, 600):
            for tree in packing.trees:
                assert tree.edges() == reference_edges(tree)

    def test_damaged_parent_maps(self):
        checked = 0
        for rng, inst, packing in seeded_cases(2, 1500):
            for tree in corrupt(rng, inst, packing).trees:
                if tree.root in tree.parent:
                    continue  # the reference loops forever on some of these
                assert tree.edges() == reference_edges(tree)
                checked += 1
        assert checked > 2500

    def test_large_solver_trees(self):
        rng = random.Random(3)
        n = 3000
        inst = Instance("complete", n, tuple(rng.randint(0, 10) for _ in range(n)), 10)
        for tree in solve_complete(inst).trees:
            assert tree.edges() == reference_edges(tree)

    def test_root_with_parent_keeps_every_edge(self):
        # The root's own parent edge goes last, with the other remnants,
        # so saving and reloading restores the map exactly.
        trees = [
            RootedTree(0, {0: 1, 1: 0}),
            RootedTree(0, {0: 2, 1: 0, 2: 1}),
            RootedTree(0, {0: 3, 1: 0, 3: 5}),
            RootedTree(0, {0: 0, 2: 0}),
        ]
        for tree in trees:
            assert sorted(tree.edges()) == sorted((p, c) for c, p in tree.parent.items())
            reloaded = packing_from_dict(packing_to_dict(Packing((tree,))), 0)
            assert reloaded.trees[0].parent == tree.parent


class TestVerifyMatchesReference:
    def test_valid_packings(self):
        for _, inst, packing in seeded_cases(4, 600):
            report = verify_packing(inst, packing)
            assert report.valid
            assert report == reference_verify(inst, packing)

    def test_corrupted_packings(self):
        invalid = 0
        for rng, inst, packing in seeded_cases(5, 2000):
            damaged = corrupt(rng, inst, packing)
            report = verify_packing(inst, damaged)
            assert report == reference_verify(inst, damaged)
            invalid += not report.valid
        assert invalid > 1500

    def test_self_edges_on_complete_kind(self):
        inst = Instance("complete", 4, (3, 3, 3, 3), 1)
        packing = Packing((RootedTree(0, {1: 0, 2: 2, 3: 1}),))
        report = verify_packing(inst, packing)
        assert report == reference_verify(inst, packing)
        assert Violation(0, 2, "edge (2, 2) not in the instance graph") in report.violations


class TestGreedyMatchesReference:
    def test_seeded_families(self):
        rng = random.Random(6)
        for i in range(900):
            make = (random_complete_instance, random_tree_instance, random_general_instance)[i % 3]
            inst = make(rng, max_n=14, max_k=4, cap_hi=4)
            got, want = greedy_general(inst), reference_greedy(inst)
            assert [t.parent for t in got.trees] == [t.parent for t in want.trees]

    def test_larger_instances(self):
        rng = random.Random(7)
        for make, n in ((random_complete_instance, 120), (random_general_instance, 400)):
            for _ in range(5):
                inst = make(rng, max_n=n, max_k=5, cap_hi=3)
                got, want = greedy_general(inst), reference_greedy(inst)
                assert [t.parent for t in got.trees] == [t.parent for t in want.trees]

    def test_long_path(self):
        n = 2000
        inst = Instance(
            "general", n, (3,) * n, 3, edges=tuple((v, v + 1) for v in range(n - 1))
        )
        got, want = greedy_general(inst), reference_greedy(inst)
        assert [t.parent for t in got.trees] == [t.parent for t in want.trees]
