"""Differential tests: the linear-time code against the algorithms it replaced.

The reference functions below are the earlier, simpler implementations of
``verify_packing``, ``greedy_general``, ``packing_from_dict`` and the two
complete-solver stages, kept verbatim apart from taking the tree or
instance as an argument and building the report as its JSON document
(``violation``); ``Instance.has_edge`` is held to a set of the
instance's edges.  The current code must give exactly the same
results: the same violation list in the same order, the same paths and
residuals, the same parent maps in the same insertion order, the same
error for a malformed document.  Edges are listed in parent-map order,
so saving, loading and saving again must give the same document.
``long_route`` is treepack verify's output from the parent maps, which
the verifier's pass over a document's edge lists must reproduce.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from helpers import (
    map_items,
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
)
from treepack import (
    Instance,
    Packing,
    attach_stage,
    brute_force_solve,
    build_stage_paths,
    greedy_general,
    instance_to_dict,
    objective,
    optimal_objective,
    packing_from_dict,
    packing_to_dict,
    solve_complete,
    solve_tree,
    verify_packing,
)
from treepack import cli, core, verifier


def violation(tree: int | None, vertex: int, reason: str) -> dict:
    return {"tree": tree, "vertex": vertex, "reason": reason}


def reference_verify(inst: Instance, packing: Packing) -> dict:
    """A has_edge call per edge and a memoized parent-chain walk per vertex."""
    trees, root = packing.trees, packing.root
    violations: list[dict] = []
    for ti, parent in enumerate(trees):
        if root in parent:
            violations.append(violation(ti, root, "root must not have a parent"))
        bad_ids = set()
        for child in sorted(parent):
            par = parent[child]
            if not (0 <= child < inst.n and 0 <= par < inst.n):
                violations.append(
                    violation(ti, child, f"edge ({par}, {child}) uses a vertex outside [0, {inst.n})")
                )
                bad_ids.add(child)
            elif not inst.has_edge(par, child):
                violations.append(
                    violation(ti, child, f"edge ({par}, {child}) not in the instance graph")
                )
        status: dict[int, bool] = {root: True}
        for v in sorted({root, *parent, *parent.values()}):
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
                if x not in parent:
                    ok = False
                    break
                x = parent[x]
            for y in chain:
                status[y] = ok
                if not ok:
                    violations.append(violation(ti, y, "not connected to the root"))
    totals: Counter = Counter()
    for parent in trees:
        for par in parent.values():
            totals[par] += 1
    for v in sorted(totals):
        if 0 <= v < inst.n and totals[v] > inst.capacities[v]:
            violations.append(
                violation(
                    None,
                    v,
                    f"capacity exceeded: {totals[v]} children across trees, capacity {inst.capacities[v]}",
                )
            )
    return {"valid": not violations, "violations": violations}


def reference_packing_from_dict(data, root: int) -> Packing:
    """Per-edge loop: list, length, type and duplicate tests on every edge."""
    if not isinstance(data, dict) or "trees" not in data:
        raise ValueError("packing: missing field trees")
    trees_data = data["trees"]
    if not isinstance(trees_data, list):
        raise ValueError("trees: expected a list")
    trees = []
    for i, td in enumerate(trees_data):
        if not isinstance(td, dict) or "edges" not in td:
            raise ValueError(f"trees[{i}]: missing field edges")
        edges = td["edges"]
        if not isinstance(edges, list):
            raise ValueError(f"trees[{i}].edges: expected a list, got {type(edges).__name__}")
        parent: dict[int, int] = {}
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"trees[{i}].edges: each edge is a [parent, child] pair, got {e!r}")
            par, child = e
            if type(par) is not int or type(child) is not int:
                par = core._as_int(par, f"trees[{i}].edges")
                child = core._as_int(child, f"trees[{i}].edges")
            if child in parent:
                raise ValueError(f"trees[{i}]: vertex {child} has two parents")
            parent[child] = par
        trees.append(parent)
    return Packing(root, trees)


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
    return Packing(root, parents)


def reference_stage_paths(inst: Instance) -> tuple[list[list[int]], list[int]]:
    """Rebuilds every path from all n vertices: Theta(nK)."""
    caps = list(inst.capacities)
    root = inst.root
    rest = [v for v in range(inst.n) if v != root]
    paths: list[list[int]] = []
    for _ in range(inst.num_trees):
        if caps[root] == 0:
            paths.append([root])
            continue
        path = [root] + [v for v in rest if caps[v] > 0]
        for v in path[:-1]:
            caps[v] -= 1
        paths.append(path)
    return paths, caps


def reference_attach(inst: Instance, paths: list[list[int]], residual: list[int]) -> Packing:
    """Builds the full O(n) list of missing vertices for every tree."""
    caps = list(residual)
    trees = []
    for path in paths:
        parent = {path[i]: path[i - 1] for i in range(1, len(path))}
        members = set(path)
        missing = [v for v in range(inst.n) if v not in members]
        at = 0
        for v in path:
            while at < len(missing) and caps[v] > 0:
                parent[missing[at]] = v
                at += 1
                caps[v] -= 1
            if at == len(missing):
                break
        trees.append(parent)
    return Packing(inst.root, trees)


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


def corrupt_maps(rng: random.Random, inst: Instance, maps: list[dict[int, int]]) -> None:
    """Apply one to four random faults to a packing's parent maps, in place."""
    n, root = inst.n, inst.root
    for _ in range(rng.randint(1, 4)):
        ti = rng.randrange(len(maps))
        parent = maps[ti]
        v = rng.randrange(n)
        u = rng.randrange(n)
        fault = rng.choice(
            ("out_of_range", "root_parent", "non_edge", "self_edge",
             "overflow", "cycle", "orphan", "delete")
        )
        if fault == "out_of_range":
            bad = rng.choice((-1, -3, n, n + 2))
            if rng.random() < 0.5:
                parent[v if v != root else bad] = bad
            else:
                parent[bad] = u
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


def corrupt(rng: random.Random, inst: Instance, packing: Packing) -> Packing:
    """A damaged copy of a valid packing: corrupt_maps on copies of its maps."""
    maps = [dict(parent) for parent in packing.trees]
    corrupt_maps(rng, inst, maps)
    return Packing(inst.root, maps)


def assert_map_order_round_trip(packing: Packing, root: int) -> None:
    """save -> load -> save is exact, and loading keeps each map's order."""
    text = json.dumps(packing_to_dict(packing))
    reloaded = packing_from_dict(json.loads(text), root)
    assert json.dumps(packing_to_dict(reloaded)) == text
    assert reloaded.root == root
    for parent, back in zip(packing.trees, reloaded.trees):
        assert list(back.items()) == list(parent.items())


class TestEdgesInMapOrder:
    def test_valid_trees(self):
        for _, inst, packing in seeded_cases(1, 600):
            assert_map_order_round_trip(packing, inst.root)

    def test_damaged_parent_maps(self):
        checked = 0
        for rng, inst, packing in seeded_cases(2, 1500):
            damaged = corrupt(rng, inst, packing)
            assert_map_order_round_trip(damaged, inst.root)
            checked += len(damaged.trees)
        assert checked > 2500

    def test_large_solver_trees(self):
        rng = random.Random(3)
        n = 3000
        inst = Instance("complete", n, tuple(rng.randint(0, 10) for _ in range(n)), 10)
        assert_map_order_round_trip(solve_complete(inst), inst.root)

    def test_root_with_parent_keeps_every_edge(self):
        trees = [
            {0: 1, 1: 0},
            {0: 2, 1: 0, 2: 1},
            {0: 3, 1: 0, 3: 5},
            {0: 0, 2: 0},
        ]
        for tree in trees:
            assert_map_order_round_trip(Packing(0, (tree,)), 0)


def no_sort(*args, **kwargs):
    raise AssertionError("the verifier sorted a tree")


def root_outward(inst: Instance, parent: dict[int, int], mark: list[int], ti: int) -> bool:
    """The verifier's one-pass check over a parent map, as verify_packing runs it."""
    return verifier._outward_edges(inst, zip(parent.values(), parent), mark, [0] * inst.n, ti)


class TestVerifyMatchesReference:
    def test_valid_packings(self):
        for _, inst, packing in seeded_cases(4, 600):
            report = verify_packing(inst, packing)
            assert report["valid"]
            assert report == reference_verify(inst, packing)

    def test_corrupted_packings(self):
        invalid = 0
        for rng, inst, packing in seeded_cases(5, 2000):
            damaged = corrupt(rng, inst, packing)
            report = verify_packing(inst, damaged)
            assert report == reference_verify(inst, damaged)
            invalid += not report["valid"]
        assert invalid > 1500

    def test_corrupted_reloaded_packings(self):
        # Reloaded maps list edges root outward, so undamaged trees take the
        # ordered pass and each fault lands in a map the pass reads in order.
        outward = fallback = invalid = 0
        for rng, inst, packing in seeded_cases(10, 2000):
            reloaded = packing_from_dict(packing_to_dict(packing), inst.root)
            damaged = corrupt(rng, inst, reloaded)
            report = verify_packing(inst, damaged)
            assert report == reference_verify(inst, damaged)
            invalid += not report["valid"]
            for parent in damaged.trees:
                ordered = root_outward(inst, parent, [-1] * inst.n, 0)
                outward += ordered
                fallback += not ordered
        assert invalid > 1500
        assert outward > 2000 and fallback > 1500

    def test_reordered_valid_packings_take_the_fallback(self):
        fallback = 0
        for rng, inst, packing in seeded_cases(11, 900, max_n=16):
            maps = []
            for parent in packing.trees:
                items = list(parent.items())
                if rng.random() < 0.5:
                    items.reverse()
                else:
                    rng.shuffle(items)
                maps.append(dict(items))
            shuffled = Packing(inst.root, maps)
            report = verify_packing(inst, shuffled)
            assert report["valid"]
            assert report == reference_verify(inst, shuffled)
            mark = [-1] * inst.n
            fallback += sum(
                not root_outward(inst, t, mark, ti) for ti, t in enumerate(shuffled.trees)
            )
        assert fallback > 500

    def test_capacity_overflow_in_root_outward_packings(self, monkeypatch):
        # Each tree grows by leaves appended in order, so every tree still
        # passes the ordered pass and only the capacity totals can fail:
        # no tree is sorted.
        monkeypatch.setattr(verifier, "sorted", no_sort, raising=False)
        invalid = 0
        for rng, inst, packing in seeded_cases(12, 900):
            maps = []
            for tree in packing.trees:
                parent = dict(tree)
                members = [inst.root, *parent]
                for w in range(inst.n):
                    if w in members:
                        continue
                    adopter = next((u for u in members if inst.has_edge(u, w)), None)
                    if adopter is not None and rng.random() < 0.5:
                        parent[w] = adopter
                        members.append(w)
                maps.append(parent)
            grown = Packing(inst.root, maps)
            assert all(root_outward(inst, t, [-1] * inst.n, 0) for t in grown.trees)
            report = verify_packing(inst, grown)
            assert report == reference_verify(inst, grown)
            assert all(v["tree"] is None for v in report["violations"])
            invalid += not report["valid"]
        assert invalid > 300

    def test_root_outward_trees_skip_sort_and_walk(self, monkeypatch):
        sorted_args = []

        def counting_sorted(items, **kwargs):
            items = list(items)
            sorted_args.append(items)
            return sorted(items, **kwargs)

        monkeypatch.setattr(verifier, "sorted", counting_sorted, raising=False)
        rng = random.Random(13)
        for _ in range(30):
            for make, solve in FAMILIES:
                inst = make(rng, max_n=60, max_k=5, cap_hi=4)
                sorted_args.clear()
                assert verify_packing(inst, solve(inst))["valid"]
                assert sorted_args == []  # no fallback sort, and overflows come in id order
                desk = make(rng, max_n=5, max_k=3, cap_hi=3)
                sorted_args.clear()
                assert verify_packing(desk, brute_force_solve(desk)[1])["valid"]
                assert sorted_args == []

    def test_self_edges_on_complete_kind(self):
        inst = Instance("complete", 4, (3, 3, 3, 3), 1)
        packing = Packing(0, ({1: 0, 2: 2, 3: 1},))
        report = verify_packing(inst, packing)
        assert report == reference_verify(inst, packing)
        assert violation(0, 2, "edge (2, 2) not in the instance graph") in report["violations"]


class Vertex(int):
    """An int subclass: accepted by the loader, though JSON never yields one."""


def malform(rng: random.Random, doc: dict) -> dict:
    """Apply one to three random faults to a packing document's edges."""
    trees = doc["trees"]
    for _ in range(rng.randint(1, 3)):
        tree = rng.choice(trees)
        edges = tree["edges"]
        k = rng.randrange(len(edges) + 1)
        fault = rng.choice(
            ("not_list", "short", "long", "float", "bool", "string", "unhashable",
             "subclass", "duplicate", "tree_shape")
        )
        if fault == "not_list":
            edges.insert(k, rng.choice(((0, 1), "0 1", 7, None, {"p": 0})))
        elif fault == "short":
            edges.insert(k, rng.choice(([], [rng.randrange(9)])))
        elif fault == "long":
            edges.insert(k, [0, 1, 2])
        elif fault == "float":
            edges.insert(k, rng.choice(([0, 1.0], [0.0, 1], [0, float("nan")])))
        elif fault == "bool":
            edges.insert(k, rng.choice(([0, True], [False, 1])))
        elif fault == "string":
            edges.insert(k, [0, "1"])
        elif fault == "unhashable":
            edges.insert(k, rng.choice(([0, [1]], [0, {}], [[0], 1])))
        elif fault == "subclass":
            edges.insert(k, [Vertex(rng.randrange(9)), Vertex(100 + rng.randrange(50))])
        elif fault == "duplicate":
            children = [e[1] for e in edges if isinstance(e, list) and len(e) == 2]
            if children:
                edges.insert(k, [rng.randrange(9), rng.choice(children)])
        elif fault == "tree_shape":
            trees[trees.index(tree)] = rng.choice(({}, [], {"edges": "x"}, {"edges": None}))
            break
    return doc


def load_outcome(load, doc: dict, root: int):
    """Parent maps with their insertion order, or the ValueError's text."""
    try:
        return map_items(load(doc, root))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestPackingFromDictMatchesReference:
    def test_valid_documents(self):
        for _, inst, packing in seeded_cases(12, 900):
            doc = packing_to_dict(packing)
            want = load_outcome(reference_packing_from_dict, doc, inst.root)
            assert load_outcome(packing_from_dict, doc, inst.root) == want
            assert not isinstance(want, str)

    def test_malformed_documents(self):
        errors = Counter()
        for rng, inst, packing in seeded_cases(13, 3000):
            doc = malform(rng, packing_to_dict(packing))
            want = load_outcome(reference_packing_from_dict, doc, inst.root)
            assert load_outcome(packing_from_dict, doc, inst.root) == want
            if isinstance(want, str):
                errors[want.split(":")[2].split()[0]] += 1
        assert errors["vertex"] > 100  # "two parents"
        assert errors["each"] > 300 and errors["expected"] > 300

    def test_two_parents_reported_before_a_later_type_error(self):
        doc = {"trees": [{"edges": [[0, 1], [2, 1], [0, 2.0]]}]}
        with pytest.raises(ValueError, match=r"^trees\[0\]: vertex 1 has two parents$"):
            packing_from_dict(doc, 0)
        doc = {"trees": [{"edges": [[0, 1], [0, 2.0], [2, 1]]}]}
        with pytest.raises(ValueError, match=r"^trees\[0\].edges: expected an integer, got 2.0$"):
            packing_from_dict(doc, 0)


def long_route(inst: Instance, doc: object) -> tuple[int, str, str]:
    """verify's exit code, stdout and stderr from the parent maps: packing_from_dict, then verify_packing."""
    try:
        packing = packing_from_dict(doc, inst.root)
        stated = core._as_int(doc["objective"], "objective") if "objective" in doc else None
        report = verify_packing(inst, packing, stated)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    out = json.dumps(report) + "\n"
    if report["valid"]:
        return 0, out, "packing is valid\n"
    return 1, out, f"packing is invalid: {len(report['violations'])} violation(s)\n"


C4 = Instance("complete", 4, (2, 1, 1, 1), 2)
T3 = Instance("tree", 3, (1, 1, 0), 2, edges=((0, 1), (1, 2)))
G4 = Instance("general", 4, (2, 1, 1, 1), 2, edges=((0, 1), (0, 2), (1, 3), (2, 3)))


def c4_doc(first: object, **extra) -> dict:
    """A C4 document: the given first tree's edges, then the valid tree [[0, 3]]."""
    return {"trees": [{"edges": first}, {"edges": [[0, 3]]}], **extra}


VALID_C4 = [[0, 1], [1, 2]]  # with the second tree, 5 occurrences; vertex 0 has 2 children

EXPLICIT_DOCUMENTS = {
    "objective absent": (C4, c4_doc(VALID_C4)),
    "objective equal": (C4, c4_doc(VALID_C4, objective=5)),
    "objective null": (C4, c4_doc(VALID_C4, objective=None)),
    "objective true": (C4, c4_doc(VALID_C4, objective=True)),
    "objective 5.0": (C4, c4_doc(VALID_C4, objective=5.0)),
    "objective -1": (C4, c4_doc(VALID_C4, objective=-1)),
    "objective one low": (C4, c4_doc(VALID_C4, objective=4)),
    "objective one high": (C4, c4_doc(VALID_C4, objective=6)),
    "objective -1, one edge": (C4, {"trees": [{"edges": [[0, 1]]}, {"edges": []}], "objective": -1}),
    "bool child": (C4, c4_doc([[0, True]])),
    "bool parent": (C4, c4_doc([[0, 1], [True, 2]])),
    "float child": (C4, c4_doc([[0, 1.0]])),
    "float parent": (C4, c4_doc([[0, 1], [1.0, 2]])),
    "negative child": (C4, c4_doc([[0, -1]])),
    "negative parent": (C4, c4_doc([[-1, 1]])),
    "child n": (C4, c4_doc([[0, 4]])),
    "parent n": (C4, c4_doc([[0, 1], [4, 2]])),
    "duplicate child": (C4, c4_doc([[0, 1], [0, 1]])),
    "child with two parents": (C4, c4_doc([[0, 1], [0, 2], [2, 1]])),
    "root as child": (C4, c4_doc([[0, 1], [1, 0]])),
    "root as its own child": (C4, c4_doc([[0, 0]])),
    "child before its parent": (C4, c4_doc([[1, 2], [0, 1]])),
    "self edge": (C4, c4_doc([[0, 1], [2, 2]])),
    "1-list edge": (C4, c4_doc([[0, 1], [0]])),
    "3-list edge": (C4, c4_doc([[0, 1, 2]])),
    "empty edge": (C4, c4_doc([[]])),
    "string edge": (C4, c4_doc(["01"])),
    "edges a number": (C4, c4_doc(5)),
    "edges an object": (C4, c4_doc({"0": 1})),
    "edges null": (C4, c4_doc(None)),
    "tree without edges": (C4, {"trees": [{}, {"edges": [[0, 3]]}]}),
    "tree a list": (C4, {"trees": [[[0, 1]], {"edges": [[0, 3]]}]}),
    "trees an object": (C4, {"trees": {"edges": [[0, 1]]}}),
    "trees a number": (C4, {"trees": 2}),
    "no trees": (C4, {"objective": 2}),
    "document a list": (C4, [{"edges": [[0, 1]]}, {"edges": []}]),
    "document null": (C4, None),
    "one tree for K=2": (C4, {"trees": [{"edges": [[0, 1]]}]}),
    "three trees for K=2": (C4, {"trees": [{"edges": []}] * 3}),
    "capacity overflow": (C4, c4_doc([[0, 1], [0, 2]])),
    "capacity overflow off the root": (C4, c4_doc([[0, 1], [1, 2], [1, 3]])),
    "valid tree": (T3, {"trees": [{"edges": [[0, 1], [1, 2]]}, {"edges": [[0, 1]]}], "objective": 5}),
    "edge missing from a tree": (T3, {"trees": [{"edges": [[0, 2]]}, {"edges": []}]}),
    "valid general": (G4, {"trees": [{"edges": [[0, 1], [1, 3]]}, {"edges": [[0, 2]]}]}),
    "edge missing from a general graph": (G4, {"trees": [{"edges": [[0, 3]]}, {"edges": []}]}),
    "float child, objective x": (C4, c4_doc([[0, 1.0]], objective="x")),
    "one tree for K=2, objective x": (C4, {"trees": [{"edges": [[0, 1]]}], "objective": "x"}),
    "capacity overflow, objective x": (C4, c4_doc([[0, 1], [0, 2]], objective="x")),
}

# Which error wins when a document has two faults: the loader's, then the
# stated objective's, then verify_packing's tree count; violations last.
FIRST_ERRORS = {
    "float child, objective x": "trees[0].edges: expected an integer, got 1.0",
    "one tree for K=2, objective x": "objective: expected an integer, got 'x'",
    "capacity overflow, objective x": "objective: expected an integer, got 'x'",
}


class TestVerifyDocumentMatchesLongRoute:
    """treepack verify's one pass over the edge lists gives what the parent maps give.

    Each document goes through a file, as verify reads it, and the
    outcome is compared with long_route on the same parsed document.
    """

    @pytest.fixture
    def verify(self, tmp_path, capsys, monkeypatch):
        """Run verify on (instance, document); count the documents that took the long route."""
        real = core.packing_from_dict

        def counting(data, root):
            _verify.loads += 1
            return real(data, root)

        monkeypatch.setattr(core, "packing_from_dict", counting)
        inst_path, pack_path = tmp_path / "inst.json", tmp_path / "pack.json"

        def _verify(inst: Instance, doc: object) -> tuple[int, str, str]:
            inst_path.write_text(json.dumps(instance_to_dict(inst)))
            pack_path.write_text(text := json.dumps(doc))
            code = cli.main(["verify", "-i", str(inst_path), "-p", str(pack_path)])
            out, err = capsys.readouterr()
            assert (code, out, err) == long_route(inst, json.loads(text)), text
            return code, out, err

        _verify.loads = 0
        return _verify

    def test_valid_documents(self, verify):
        for rng, inst, packing in seeded_cases(20, 450):
            doc = packing_to_dict(packing)
            if rng.random() < 0.3:
                del doc["objective"]
            assert verify(inst, doc)[0] == 0
        assert verify.loads == 0  # no valid document written root outward loads parent maps

    def test_reordered_valid_documents(self, verify):
        for rng, inst, packing in seeded_cases(21, 300):
            doc = packing_to_dict(packing)
            for tree in doc["trees"]:
                rng.shuffle(tree["edges"])
            assert verify(inst, doc)[0] == 0
        assert verify.loads > 100

    def test_damaged_parent_maps(self, verify):
        codes = Counter()
        for rng, inst, packing in seeded_cases(22, 1200):
            doc = packing_to_dict(corrupt(rng, inst, packing))
            if rng.random() < 0.3:
                doc["objective"] += rng.choice((-1, 1))
            codes[verify(inst, doc)[0]] += 1
        assert codes[1] > 900  # an id out of range is a violation, not an input error
        assert verify.loads > 1000

    def test_malformed_documents(self, verify):
        codes = Counter()
        for rng, inst, packing in seeded_cases(23, 1200):
            codes[verify(inst, malform(rng, packing_to_dict(packing)))[0]] += 1
        assert codes[2] > 1000 and codes[1] + codes[0] > 40  # a subclass id reads back as an int

    @pytest.mark.parametrize("inst, doc", EXPLICIT_DOCUMENTS.values(), ids=EXPLICIT_DOCUMENTS)
    def test_explicit_documents(self, verify, inst, doc):
        if verify(inst, doc)[0] != 0:
            assert verify.loads == 1  # the pass accepts no faulty file

    @pytest.mark.parametrize("name", FIRST_ERRORS)
    def test_first_error_wins(self, verify, name):
        assert verify(*EXPLICIT_DOCUMENTS[name]) == (2, "", f"error: {FIRST_ERRORS[name]}\n")


class TestGreedyMatchesReference:
    def test_seeded_families(self):
        rng = random.Random(6)
        for i in range(900):
            make = (random_complete_instance, random_tree_instance, random_general_instance)[i % 3]
            inst = make(rng, max_n=14, max_k=4, cap_hi=4)
            got, want = greedy_general(inst), reference_greedy(inst)
            assert got == want

    def test_larger_instances(self):
        rng = random.Random(7)
        for make, n in ((random_complete_instance, 120), (random_general_instance, 400)):
            for _ in range(5):
                inst = make(rng, max_n=n, max_k=5, cap_hi=3)
                got, want = greedy_general(inst), reference_greedy(inst)
                assert got == want

    def test_long_path(self):
        n = 2000
        inst = Instance(
            "general", n, (3,) * n, 3, edges=tuple((v, v + 1) for v in range(n - 1))
        )
        got, want = greedy_general(inst), reference_greedy(inst)
        assert got == want


def complete_case(rng: random.Random) -> Instance:
    """A complete instance, n <= 40, K <= n, any root, mixed capacity shapes."""
    n = rng.choice((1, 2, 3)) if rng.random() < 0.1 else rng.randint(1, 40)
    shape = rng.choice(("uniform", "mostly_zero", "root_zero", "root_short", "rich"))
    if shape == "mostly_zero":
        caps = [rng.randint(1, 3) if rng.random() < 0.15 else 0 for _ in range(n)]
    elif shape == "rich":
        caps = [rng.randint(0, 2 * n) for _ in range(n)]
    else:
        caps = [rng.randint(0, 8) for _ in range(n)]
    k = rng.randint(1, n)
    root = rng.randrange(n)
    if shape == "root_zero":
        caps[root] = 0
    elif shape == "root_short":
        caps[root] = rng.randint(0, max(0, k - 1))  # K above the root capacity
    return Instance("complete", n, tuple(caps), k, root)


def assert_stages_match(inst: Instance) -> None:
    """Both stages, drawn one tree at a time, against the references."""
    paths, residual = build_stage_paths(inst)
    want_paths, want_residual = reference_stage_paths(inst)
    assert residual == want_residual
    got = attach_stage(inst)
    assert iter(paths) is paths and iter(got) is got  # lazy: nothing is built up front
    want = reference_attach(inst, want_paths, want_residual)
    prev = None
    for (path, runs), want_path, parent in zip(got, want_paths, want.trees, strict=True):
        assert path == want_path
        assert (path is prev) == (path == prev)  # an unchanged path is the same list
        # the runs are the map's adoptions, and none is empty
        assert [(c, p) for p, ids in runs for c in ids] == list(parent.items())[len(path) - 1 :]
        assert all(ids for _, ids in runs)
        prev = path
    assert next(got, None) is None
    assert map_items(solve_complete(inst)) == map_items(want)
    assert residual == want_residual  # attach spends its own residual, not this one


class TestCompleteStagesMatchReference:
    def test_seeded_instances(self):
        rng = random.Random(8)
        shapes = Counter()
        for _ in range(5000):
            inst = complete_case(rng)
            assert_stages_match(inst)
            caps, root, k = inst.capacities, inst.root, inst.num_trees
            shapes["n1"] += inst.n == 1
            shapes["root_zero"] += caps[root] == 0
            shapes["k_above_root"] += k > caps[root]
            shapes["mostly_zero"] += sum(c == 0 for c in caps) * 2 > inst.n
        assert min(shapes.values()) >= 100, shapes

    def test_edge_shapes(self):
        for caps, k, root in (
            ([0], 1, 0),
            ([7], 1, 0),
            ([0, 0, 0, 0], 4, 2),
            ([4, 0, 0, 0, 0], 3, 0),
            ([0, 5, 5, 5], 2, 0),
            ([1, 9, 9, 9, 9], 5, 0),
            ([3, 3, 3, 3, 3, 3], 6, 5),
            ([40] * 40, 40, 17),
            ([10**30, 2**63, 0, 5], 3, 0),  # capacities beyond a machine word
            ([2, 0, 2**64, 1], 4, 1),
        ):
            assert_stages_match(Instance("complete", len(caps), tuple(caps), k, root))

    def test_many_trees_large_n(self):
        rng = random.Random(9)
        n, k = 20000, 2000
        caps = [rng.randint(0, 10) for _ in range(n)]
        caps[0] = k
        inst = Instance("complete", n, tuple(caps), k)
        packing = solve_complete(inst)
        assert verify_packing(inst, packing)["valid"]
        assert objective(packing) == optimal_objective(inst)


def hub_instance(rng: random.Random, kind: str, degree: int) -> Instance:
    """A tree or general graph whose vertex 0 is adjacent to `degree` others."""
    n = degree + 1 + rng.randint(0, 20)
    edges = {(0, v) for v in range(1, degree + 1)}
    edges |= {(rng.randrange(v), v) for v in range(degree + 1, n)}
    if kind == "general":
        for _ in range(n):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
    caps = tuple(rng.randint(0, 3) for _ in range(n))
    return Instance(kind, n, caps, 1, root=rng.randrange(n), edges=tuple(sorted(edges)))


class TestHasEdgeMatchesEdgeSet:
    """has_edge searches the sorted adjacency; the reference is a set of the edges."""

    def cases(self):
        rng = random.Random(2024)
        for _ in range(40):
            yield random_tree_instance(rng, max_n=12)
            yield random_general_instance(rng, max_n=12)
        for kind in ("tree", "general"):
            yield hub_instance(rng, kind, degree=60)

    def test_every_pair_in_and_around_the_range(self):
        seen_hub = False
        for inst in self.cases():
            n = inst.n
            edge_set = set(inst.edges)
            seen_hub |= any(len(inst.neighbors(v)) >= 50 for v in range(n))
            for u in range(-1, n + 1):
                for v in range(-1, n + 1):
                    in_range = 0 <= u < n and 0 <= v < n and u != v
                    expected = in_range and (min(u, v), max(u, v)) in edge_set
                    assert inst.has_edge(u, v) is expected, (inst, u, v)
        assert seen_hub
