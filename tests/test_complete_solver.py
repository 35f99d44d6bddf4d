"""Complete-graph solver tests: stage traces, closed form, oracle agreement, references.

reference_stage_paths and reference_attach are the earlier, simpler
implementations of the two stages, kept verbatim apart from taking the
instance as an argument; reference_stage_paths then lists each path's
inner vertices by descending capacity, ties by id, the solver's chain
order.  assert_matches_reference holds the solver to
them on each family of instances: the same paths and residuals, the same
parent maps in the same insertion order, and the streamed document's
bytes and value.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from helpers import (
    capacity_features,
    line_events,
    map_items,
    random_complete_instance,
    shaped_instance,
)
from treepack import (
    Instance,
    Packing,
    attach_stage,
    brute_force_solve,
    build_stage_paths,
    objective,
    optimal_objective,
    packing_to_dict,
    solve_complete,
    verify_packing,
)
from treepack import complete_solver
from treepack.complete_solver import _packing_text


def complete(caps, k, root=0):
    return Instance(kind="complete", n=len(caps), capacities=tuple(caps), num_trees=k, root=root)


def stage_paths(inst: Instance) -> tuple[list[list[int]], list[int]]:
    """build_stage_paths with its lazy paths drawn into a list."""
    paths, residual = build_stage_paths(inst)
    return list(paths), residual


class TestStagePaths:
    def test_single_vertex_paths_pay_nothing(self):
        inst = complete([5], 1)
        paths, residual = stage_paths(inst)
        assert paths == [[0]]
        assert residual == [5]

    def test_worked_trace(self):
        # First path covers everyone and pays all but the last vertex;
        # the second only finds the root and vertex 3 still funded.
        inst = complete([2, 1, 1, 1], 2)
        paths, residual = stage_paths(inst)
        assert paths == [[0, 1, 2, 3], [0, 3]]
        assert residual == [0, 0, 0, 1]

    def test_zero_root_capacity_gives_singletons(self):
        inst = complete([0, 4, 4], 3, root=0)
        paths, residual = stage_paths(inst)
        assert paths == [[0], [0], [0]]
        assert residual == [0, 4, 4]

    def test_chain_order_is_descending_capacity(self):
        # chain = [2, 3, 1]: capacity 3, 2, then 1; last = 4.  Each level
        # cuts the chain's tail of capacity k, so every path is a prefix.
        inst = complete([3, 1, 3, 2, 1], 3)
        paths, residual = stage_paths(inst)
        assert paths == [[0, 2, 3, 1, 4], [0, 2, 3, 4], [0, 2, 4]]
        assert residual == [0, 0, 0, 0, 1]

    def test_one_funded_vertex_ends_every_active_path(self):
        # last = 3 is never charged; active = min(c_root, K) = 3.
        inst = complete([3, 0, 0, 5, 0], 4)
        paths, residual = stage_paths(inst)
        assert paths == [[0, 3], [0, 3], [0, 3], [0]]
        assert residual == [0, 0, 0, 5, 0]


class TestAttachStage:
    def test_no_residual_keeps_paths(self):
        # Both paths are [0, 1, 2, 3]: every vertex is in, so none is adopted.
        inst = complete([3, 2, 2, 2], 2)
        paths, residual = stage_paths(inst)
        assert all(sorted(path) == [0, 1, 2, 3] for path in paths) and any(residual)
        assert list(attach_stage(inst)) == [(path, []) for path in paths]

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
            paths, _ = stage_paths(inst)
            packing = solve_complete(inst)
            non_null = sum(1 for t in packing.trees if t)
            assert non_null <= active
            if all(len(p) >= 2 for p in paths[:active]):
                assert non_null == active

    def test_many_trees_large_n(self):
        rng = random.Random(9)
        n, k = 20000, 2000
        caps = [rng.randint(0, 10) for _ in range(n)]
        caps[0] = k
        inst = Instance("complete", n, tuple(caps), k)
        packing = solve_complete(inst)
        assert verify_packing(inst, packing)["valid"]
        assert objective(packing) == optimal_objective(inst)

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

class TestPackingText:
    """The tree-by-tree writer: one path per chunk, and worked chunks."""

    def test_one_path_per_chunk_asked_for(self, monkeypatch):
        """The objective comes first; path k is built when tree k's chunk is asked for."""
        drawn = []
        real = complete_solver.build_stage_paths

        def counted(inst):
            paths, residual = real(inst)
            return (drawn.append(path) or path for path in paths), residual

        monkeypatch.setattr(complete_solver, "build_stage_paths", counted)
        inst = complete([5, 2, 3, 1, 0, 4], 4)
        value, chunks = _packing_text(inst)
        assert value == optimal_objective(inst) and drawn == []
        for k in range(inst.num_trees):
            next(chunks)
            assert len(drawn) == k + 1
        assert next(chunks) == f'], "objective": {value}}}\n'
        assert drawn == stage_paths(inst)[0]

    def test_text_costs_no_python_step_per_occurrence(self):
        """Drawing the whole document runs O(n + K + adopted ids) lines of complete_solver.

        The objective, 76,167, is 25 times n + K; the paths' text is cut
        from the chain's, so only the residuals and the levels cost lines.
        """
        rng = random.Random(40)
        n, k = 3000, 60
        caps = [rng.randint(0, 50) for _ in range(n)]
        caps[0] = k
        inst = complete(caps, k)
        value, chunks = _packing_text(inst)
        text, events = line_events(lambda: "".join(chunks), lambda f: f.f_code.co_filename == complete_solver.__file__)
        adopted = sum(len(ids) for _, runs in attach_stage(inst) for _, ids in runs)
        assert value == 76167 and json.loads(text)["objective"] == value
        assert events <= 2 * (n + k + adopted), events

    def test_worked_chunks(self):
        inst = complete([2, 1, 1, 1], 2)
        value, chunks = _packing_text(inst)
        assert value == 7
        assert list(chunks) == [
            '{"trees": [{"edges": [[0, 1], [1, 2], [2, 3]]}',
            ', {"edges": [[0, 3], [3, 1]]}',
            '], "objective": 7}\n',
        ]


def reference_stage_paths(inst: Instance) -> tuple[list[list[int]], list[int]]:
    """Rebuilds every path from all n vertices: Theta(nK).

    Each level filters the vertices with capacity left; the ones between
    the root and the last are then listed by (-input capacity, id).
    """
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
        inner = sorted(path[1:-1], key=lambda v: (-inst.capacities[v], v))
        paths.append(path[:1] + inner + path[-1:] if len(path) > 1 else path)
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


def assert_matches_reference(inst: Instance) -> None:
    """Both stages, drawn one tree at a time, and the streamed document, against the references.

    The document's value must be the closed form's, and its packing must
    verify with that value as the stated objective.
    """
    paths, residual = build_stage_paths(inst)
    want_paths, want_residual = reference_stage_paths(inst)
    assert residual == want_residual, inst
    got = attach_stage(inst)
    assert iter(paths) is paths and iter(got) is got  # lazy: nothing is built up front
    want = reference_attach(inst, want_paths, want_residual)
    prev = None
    for (path, runs), want_path, parent in zip(got, want_paths, want.trees, strict=True):
        assert path == want_path, inst
        assert (path is prev) == (path == prev)  # an unchanged path is the same list
        # the runs are the map's adoptions, and none is empty
        assert [(c, p) for p, ids in runs for c in ids] == list(parent.items())[len(path) - 1 :]
        assert all(ids for _, ids in runs)
        prev = path
    assert next(got, None) is None
    packing = solve_complete(inst)
    assert map_items(packing) == map_items(want), inst  # same maps, same order
    assert residual == want_residual  # attach spends its own residual, not this one
    value, chunks = _packing_text(inst)
    chunks = list(chunks)
    assert len(chunks) == inst.num_trees + 1
    assert "".join(chunks) == json.dumps(packing_to_dict(packing)) + "\n", inst
    assert value == objective(packing) == optimal_objective(inst)
    report = verify_packing(inst, packing, value)
    assert report["valid"], report["violations"]


# Each family below yields its instances; the last four then assert how
# often they drew each of their shapes.


def funded():
    rng = random.Random(21)
    for _ in range(50):
        yield random_complete_instance(rng)


def closed_form():
    rng = random.Random(31337)
    for _ in range(300):
        yield random_complete_instance(rng, max_n=12, max_k=5, cap_hi=12)


def verified():
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(1, 10)
        yield complete([rng.randint(0, n) for _ in range(n)], rng.randint(1, n), root=rng.randrange(n))


def shaped():
    """helpers.shaped_instance's capacity shapes, n up to 60."""
    rng = random.Random(2111)
    seen = Counter()
    for _ in range(2000):
        inst = shaped_instance(rng, random_complete_instance, max_n=rng.choice((6, 20, 60)))
        yield inst
        seen.update(capacity_features(inst))
    assert min(seen.values()) >= 100, seen


def text_shapes():
    """A random root and K up to n, n up to 60, capacities up to 10**20."""
    rng = random.Random(26)
    shapes = Counter()
    for _ in range(1500):
        n = 1 if rng.random() < 0.05 else rng.randint(1, 60)
        shape = rng.choice(("small", "up_to_n", "huge", "all_zero", "root_zero"))
        hi = {"small": 3, "up_to_n": n, "huge": 10**20}.get(shape, 3)
        caps = [0] * n if shape == "all_zero" else [rng.randint(0, hi) for _ in range(n)]
        root = rng.randrange(n)
        if shape == "root_zero":
            caps[root] = 0
        inst = complete(caps, rng.randint(1, n), root)
        yield inst
        paths = stage_paths(inst)[0]
        shapes["reused_path"] += any(a is b and len(a) > 1 for a, b in zip(paths, paths[1:]))
        shapes["n1"] += n == 1
        shapes["root_zero"] += caps[root] == 0
        shapes["all_zero"] += not any(caps)
        shapes["huge"] += max(caps) > 2**64
        shapes["k_is_n"] += inst.num_trees == n > 1
    assert min(shapes.values()) >= 20, shapes


def mixed_shapes():
    """n up to 40, K up to n, any root, mixed capacity shapes."""
    rng = random.Random(8)
    shapes = Counter()
    for _ in range(5000):
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
        yield complete(caps, k, root)
        shapes["n1"] += n == 1
        shapes["root_zero"] += caps[root] == 0
        shapes["k_above_root"] += k > caps[root]
        shapes["mostly_zero"] += sum(c == 0 for c in caps) * 2 > n
    assert min(shapes.values()) >= 100, shapes


def edge_shapes():
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
        yield complete(caps, k, root)


@pytest.mark.parametrize(
    "cases",
    [funded, closed_form, verified, shaped, text_shapes, mixed_shapes, edge_shapes],
    ids=lambda cases: cases.__name__,
)
def test_matches_reference(cases):
    for inst in cases():
        assert_matches_reference(inst)
