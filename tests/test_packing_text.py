"""The packing document as text: the same bytes as json.dumps, and the counted objective.

A greedy solve and oracle write their packing straight from the parent
maps (core._packing_chunks), one chunk per tree and then the tail,
instead of encoding packing_to_dict.  These tests hold the joined chunks
to the reference json.dumps(packing_to_dict(p)) + "\n", and their count
to K + 1, on every solver's output, null trees and n = 1 included, and
on the damaged packings of the Hypothesis strategy, negative ids
included, and on ids outside the instance; pin that the writer reads
each map through one items() call; and hold objective to the vertex
count on packings that verify.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given

from helpers import (
    map_items,
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
)
from test_properties import packings
from treepack import (
    Instance,
    Packing,
    brute_force_solve,
    greedy_general,
    instance_to_dict,
    objective,
    packing_from_dict,
    packing_to_dict,
    solve_complete,
    solve_tree,
    verify_packing,
)
from treepack.cli import main
from treepack.core import _packing_chunks


def reference(packing: Packing) -> str:
    """The document every writer must give: json.dumps of packing_to_dict, and a newline."""
    return json.dumps(packing_to_dict(packing)) + "\n"


def written(packing: Packing) -> str:
    """_packing_chunks' document joined, after checking it comes as K + 1 chunks."""
    chunks = list(_packing_chunks(packing))
    assert len(chunks) == len(packing.trees) + 1
    return "".join(chunks)


def _family(kind: str) -> list[tuple[Instance, Packing]]:
    """Seeded instances of one kind with the packing its solver returns."""
    rng = random.Random(f"packing-text:{kind}")
    pairs = []
    for _ in range(30):
        if kind == "complete":
            inst = random_complete_instance(rng, max_n=12, max_k=6)
            pairs.append((inst, solve_complete(inst)))
        elif kind == "tree":
            inst = random_tree_instance(rng, max_n=12, max_k=6)
            pairs.append((inst, solve_tree(inst)[1]))
        elif kind == "general":
            inst = random_general_instance(rng, max_n=12, max_k=6)
            pairs.append((inst, greedy_general(inst)))
        else:
            inst = random_complete_instance(rng, max_n=4, max_k=2, cap_hi=2)
            pairs.append((inst, brute_force_solve(inst)[1]))
    if kind == "complete":
        # Null trees (no root capacity left) and a packing of a few thousand edges.
        for inst in (
            Instance("complete", 5, (1, 2, 2, 0, 1), 4, root=0),
            Instance("complete", 2000, tuple(i % 4 for i in range(2000)), 9, root=3),
        ):
            pairs.append((inst, solve_complete(inst)))
    return pairs


KINDS = ("complete", "tree", "general", "oracle")


@pytest.mark.parametrize("kind", KINDS)
class TestSolverPackings:
    def test_text_equals_json_dumps(self, kind):
        for inst, packing in _family(kind):
            assert written(packing) == reference(packing)

    def test_text_loads_to_the_same_maps_in_order(self, kind):
        for inst, packing in _family(kind):
            loaded = packing_from_dict(json.loads(written(packing)), inst.root)
            assert map_items(loaded) == map_items(packing)

    def test_objective_counts_vertices(self, kind):
        for inst, packing in _family(kind):
            assert verify_packing(inst, packing)["valid"]
            sizes = [len({packing.root, *parent, *parent.values()}) for parent in packing.trees]
            assert objective(packing) == sum(sizes)


def test_family_has_null_trees():
    for kind in ("complete", "general", "oracle"):
        packings_ = [packing for _, packing in _family(kind)]
        assert any(not parent for packing in packings_ for parent in packing.trees), kind
    for kind in ("general", "oracle"):  # the greedy and oracle writer's families hold n = 1 too
        assert any(inst.n == 1 for inst, _ in _family(kind)), kind


def test_null_packing_text():
    assert list(_packing_chunks(Packing(2, ({}, {})))) == [
        '{"trees": [{"edges": []}',
        ', {"edges": []}',
        '], "objective": 2}\n',
    ]


def test_ids_outside_the_instance_written_as_json_dumps():
    """Each id is formatted as it is: -1 and n = 3 are written as -1 and 3."""
    packing = Packing(0, ({3: 0, -1: 3}, {2: -1}))
    assert written(packing) == reference(packing)


class _CountedMap(dict):
    """A parent map that counts the calls that read it whole."""

    def __init__(self, items: dict[int, int]) -> None:
        super().__init__(items)
        self.calls: Counter = Counter()

    def __iter__(self):
        self.calls["__iter__"] += 1
        return super().__iter__()

    def values(self):
        self.calls["values"] += 1
        return super().values()

    def items(self):
        self.calls["items"] += 1
        return super().items()


def test_writer_reads_each_map_through_one_items_call():
    plain = [{1: 0, 2: 1, 3: 1}, {3: 0}, {}]
    counted = [_CountedMap(parent) for parent in plain]
    text = written(Packing(0, counted))
    assert text == reference(Packing(0, plain))
    assert [dict(parent.calls) for parent in counted] == [{"items": 1}] * 3


class TestDamagedPackings:
    @given(packings())
    def test_text_equals_json_dumps(self, packing):
        assert written(packing) == reference(packing)

    @given(packings())
    def test_text_loads_to_the_same_maps_in_order(self, packing):
        text = written(packing)
        loaded = packing_from_dict(json.loads(text), packing.root)
        assert map_items(loaded) == map_items(packing)


class TestCliStdout:
    """solve and oracle print the reference document."""

    def _run(self, capsys, tmp_path, inst: Instance, *argv: str) -> str:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        assert main([*argv, "-i", str(path)]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("kind", ("complete", "tree", "general"))
    def test_solve(self, capsys, tmp_path, kind):
        for inst, packing in _family(kind)[:8]:
            out = self._run(capsys, tmp_path, inst, "solve")
            assert out == reference(packing)

    @pytest.mark.parametrize("kind", ("complete", "tree", "general"))
    def test_oracle(self, capsys, tmp_path, kind):
        rng = random.Random(f"packing-text-oracle:{kind}")
        make = {
            "complete": random_complete_instance,
            "tree": random_tree_instance,
            "general": random_general_instance,
        }[kind]
        for _ in range(6):
            inst = make(rng, max_n=4, max_k=2, cap_hi=2)
            out = self._run(capsys, tmp_path, inst, "oracle")
            assert out == reference(brute_force_solve(inst)[1])
