"""The packing document as text: the same bytes as json.dumps, and the counted objective.

solve and oracle write their packing straight from the parent maps
(core._packing_json) instead of encoding packing_to_dict.  These tests hold
that text to json.dumps(packing_to_dict(p)) on every solver's output,
null trees included, on the damaged packings of the Hypothesis strategy
and on trees with ids outside the writer's [0, n) id table, and hold
objective to the vertex count on packings that verify.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given

from helpers import random_complete_instance, random_general_instance, random_tree_instance
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
from treepack.core import _packing_json


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


def _map_items(packing: Packing) -> list[list[tuple[int, int]]]:
    return [list(parent.items()) for parent in packing.trees]


@pytest.mark.parametrize("kind", KINDS)
class TestSolverPackings:
    def test_text_equals_json_dumps(self, kind):
        for inst, packing in _family(kind):
            assert _packing_json(packing, inst.n) == json.dumps(packing_to_dict(packing))

    def test_text_loads_to_the_same_maps_in_order(self, kind):
        for inst, packing in _family(kind):
            loaded = packing_from_dict(json.loads(_packing_json(packing, inst.n)), inst.root)
            assert _map_items(loaded) == _map_items(packing)

    def test_objective_counts_vertices(self, kind):
        for inst, packing in _family(kind):
            assert verify_packing(inst, packing).valid
            sizes = [len({packing.root, *parent, *parent.values()}) for parent in packing.trees]
            assert objective(packing) == sum(sizes)


def test_family_has_null_trees():
    packings_ = [packing for _, packing in _family("complete")]
    assert any(not parent for packing in packings_ for parent in packing.trees)


def test_null_packing_text():
    packing = Packing(2, ({}, {}))
    assert _packing_json(packing, 3) == '{"trees": [{"edges": []}, {"edges": []}], "objective": 2}'


@pytest.mark.parametrize(
    "parent",
    [{1: -1}, {-1: 0}, {1: 0, -1: 1}, {3: 0}, {1: 0, 2: 7}, {5: 9}],
    ids=["parent -1", "child -1", "later child -1", "child n", "parent n+4", "both past n"],
)
def test_ids_outside_the_table(parent):
    # A valid tree next to a damaged one: each tree picks its own way to write ids.
    packing = Packing(0, ({1: 0, 2: 1}, parent))
    assert _packing_json(packing, 3) == json.dumps(packing_to_dict(packing))


# The damaged trees' ids run from -3 to 12: some fall inside [0, DAMAGED_N), some not.
DAMAGED_N = 8


class TestDamagedPackings:
    @given(packings())
    def test_text_equals_json_dumps(self, packing):
        assert _packing_json(packing, DAMAGED_N) == json.dumps(packing_to_dict(packing))

    @given(packings())
    def test_text_loads_to_the_same_maps_in_order(self, packing):
        text = _packing_json(packing, DAMAGED_N)
        loaded = packing_from_dict(json.loads(text), packing.root)
        assert _map_items(loaded) == _map_items(packing)


class TestCliStdout:
    """solve and oracle print json.dumps(packing_to_dict(...)) and a newline."""

    def _run(self, capsys, tmp_path, inst: Instance, *argv: str) -> str:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        assert main([*argv, "-i", str(path)]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("kind", ("complete", "tree", "general"))
    def test_solve(self, capsys, tmp_path, kind):
        for inst, packing in _family(kind)[:8]:
            out = self._run(capsys, tmp_path, inst, "solve")
            assert out == json.dumps(packing_to_dict(packing)) + "\n"

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
            assert out == json.dumps(packing_to_dict(brute_force_solve(inst)[1])) + "\n"
