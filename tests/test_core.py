"""Model, verifier and JSON round-trip tests."""

from __future__ import annotations

import io
import json
import random
import re

import pytest

from helpers import random_complete_instance, random_general_instance, random_tree_instance
from treepack import (
    Instance,
    Packing,
    ReductionOutput,
    SatInstance,
    greedy_general,
    instance_from_dict,
    load_instance,
    load_packing,
    objective,
    packing_from_dict,
    packing_to_dict,
    solve_complete,
    verify_packing,
)


def path3_instance(num_trees: int = 2) -> Instance:
    return Instance(
        kind="tree", n=3, capacities=(1, 1, 1), num_trees=num_trees, edges=((0, 1), (1, 2))
    )


def full_path_tree() -> dict[int, int]:
    return {1: 0, 2: 1}


def model_values():
    """One value of each model type, built by keyword."""
    inst = Instance(kind="complete", n=2, capacities=(1, 0), num_trees=1)
    sat = SatInstance(num_vars=1, clauses=((1, 1, -1),))
    return [
        inst,
        Packing(root=0, trees=({1: 0},)),
        sat,
        ReductionOutput(instance=inst, gamma=2, labels={0: "root"}),
    ]


class TestValueClasses:
    def test_keyword_construction_with_defaults(self):
        inst = Instance(kind="tree", n=2, capacities=[1, 0], num_trees=1, edges=[(1, 0)])
        assert (inst.root, inst.capacities, inst.edges) == (0, (1, 0), ((0, 1),))
        assert Instance(kind="complete", n=1, capacities=(0,), num_trees=1).edges is None
        assert inst == Instance("tree", 2, (1, 0), 1, 0, ((0, 1),))

    def test_equality_by_class_and_fields(self):
        values, again = model_values(), model_values()
        for i, value in enumerate(values):
            for j, other in enumerate(again):
                assert (value == other) is (i == j)
                assert (value != other) is (i != j)
        assert Packing(0, ({1: 0},)) != Packing(1, ({1: 0},))
        assert Packing(0, ({1: 0},)) == Packing(0, [{1: 0}])

    def test_equal_instances_hash_equal(self):
        a = Instance(kind="general", n=3, capacities=(1, 1, 1), num_trees=1, edges=((0, 1), (2, 1)))
        b = Instance("general", 3, [1, 1, 1], 1, 0, [[1, 0], [1, 2]])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SatInstance(1, ((1, 1, -1),)), SatInstance(1, [[1, 1, -1]])}) == 2

    def test_values_holding_dicts_do_not_hash(self):
        _, packing, _, reduction = model_values()
        for value in (packing, reduction):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)

    def test_repr_names_every_field(self):
        for value in model_values():
            assert set(vars(value)) == set(value._fields)
            text = repr(value)
            assert text.startswith(type(value).__name__ + "(")
            for name in value._fields:
                assert f"{name}={getattr(value, name)!r}" in text

    def test_fields_are_read_only(self):
        for value in model_values():
            for name in value._fields:
                before = getattr(value, name)
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
                assert getattr(value, name) is before
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_cached_adjacency_after_construction(self):
        inst = path3_instance()
        assert inst.neighbors(1) == (0, 2)
        assert inst.neighbors(1) is inst.neighbors(1)

    def test_neighbors_cannot_change_the_instance(self):
        for inst in (path3_instance(), Instance("complete", 3, (1, 1, 1), 1)):
            with pytest.raises(AttributeError):
                inst.neighbors(1).append(0)
            assert inst.neighbors(1) == (0, 2)
            assert inst.has_edge(1, 2)


class TestInstanceValidation:
    def test_load_complete_instance(self):
        raw = b'{"kind": "complete", "n": 4, "root": 0, "capacities": [2, 1, 1, 1], "K": 2}'
        inst = load_instance(io.BytesIO(raw))
        assert inst.kind == "complete"
        assert inst.n == 4
        assert inst.capacities == (2, 1, 1, 1)
        assert inst.num_trees == 2
        assert inst.edges is None

    def test_root_defaults_to_zero(self):
        inst = instance_from_dict(
            {"kind": "complete", "n": 3, "capacities": [1, 1, 1], "K": 1}
        )
        assert inst.root == 0

    def test_cyclic_edges_are_not_a_tree(self):
        data = {
            "kind": "tree",
            "n": 3,
            "edges": [[0, 1], [1, 2], [2, 0]],
            "capacities": [1, 1, 1],
            "K": 1,
        }
        with pytest.raises(ValueError, match="not a tree"):
            instance_from_dict(data)

    def test_k_zero_rejected(self):
        data = {"kind": "complete", "n": 3, "capacities": [1, 1, 1], "K": 0}
        with pytest.raises(ValueError, match="K: out of range"):
            instance_from_dict(data)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="K: out of range"):
            Instance(kind="complete", n=3, capacities=(1, 1, 1), num_trees=4)

    def test_disconnected_general_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Instance(
                kind="general",
                n=4,
                capacities=(1, 1, 1, 1),
                num_trees=1,
                edges=((0, 1), (2, 3)),
            )

    def test_complete_with_edges_rejected(self):
        with pytest.raises(ValueError, match="edges: must be omitted"):
            Instance(kind="complete", n=3, capacities=(1, 1, 1), num_trees=1, edges=((0, 1),))

    def test_missing_edges_rejected(self):
        with pytest.raises(ValueError, match="edges: required"):
            Instance(kind="general", n=2, capacities=(1, 1), num_trees=1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Instance(kind="general", n=2, capacities=(1, 1), num_trees=1, edges=((0, 0), (0, 1)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            Instance(
                kind="general", n=2, capacities=(1, 1), num_trees=1, edges=((0, 1), (1, 0))
            )

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacities: negative"):
            Instance(kind="complete", n=2, capacities=(1, -1), num_trees=1)

    @pytest.mark.parametrize("bad", [True, False, 1.5, "1", None, 2.0])
    def test_non_integer_capacity_named(self, bad):
        message = f"capacities: expected an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Instance(kind="complete", n=3, capacities=(1, bad, -1), num_trees=1)

    def test_capacity_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="capacities: expected 3"):
            Instance(kind="complete", n=3, capacities=(1, 1), num_trees=1)

    def test_root_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="root"):
            Instance(kind="complete", n=3, capacities=(1, 1, 1), num_trees=1, root=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Instance(kind="hypercube", n=3, capacities=(1, 1, 1), num_trees=1)

    def test_missing_fields_named(self):
        with pytest.raises(ValueError, match="missing field"):
            instance_from_dict({"kind": "complete", "n": 2})

    def test_capacity_zero_accepted(self):
        inst = Instance(kind="complete", n=2, capacities=(0, 0), num_trees=1)
        assert inst.capacities == (0, 0)

    def test_single_vertex_tree(self):
        inst = Instance(kind="tree", n=1, capacities=(2,), num_trees=1, edges=())
        assert inst.n == 1


class TestVerifyPacking:
    def test_null_packing_valid(self):
        inst = path3_instance(num_trees=1)
        report = verify_packing(inst, Packing(0, ({},)))
        assert report == {"valid": True, "violations": []}

    def test_two_full_paths_overrun_capacity(self):
        inst = path3_instance()
        packing = Packing(0, (full_path_tree(), full_path_tree()))
        report = verify_packing(inst, packing)
        assert not report["valid"]
        over = {v["vertex"] for v in report["violations"] if "capacity exceeded" in v["reason"]}
        assert over == {0, 1}

    def test_full_path_plus_null_valid(self):
        inst = path3_instance()
        report = verify_packing(inst, Packing(0, (full_path_tree(), {})))
        assert report["valid"]

    def test_edge_outside_graph_flagged(self):
        inst = path3_instance(num_trees=1)
        packing = Packing(0, ({2: 0},))  # (0, 2) is not a path edge
        report = verify_packing(inst, packing)
        assert not report["valid"]
        assert any("not in the instance graph" in v["reason"] for v in report["violations"])

    def test_parent_cycle_flagged(self):
        inst = Instance(kind="complete", n=4, capacities=(3, 3, 3, 3), num_trees=1)
        packing = Packing(0, ({1: 2, 2: 1},))
        report = verify_packing(inst, packing)
        assert not report["valid"]
        assert any("not connected to the root" in v["reason"] for v in report["violations"])

    def test_orphan_branch_flagged(self):
        inst = Instance(kind="complete", n=4, capacities=(3, 3, 3, 3), num_trees=1)
        packing = Packing(0, ({3: 2},))  # 2 never joins the root
        report = verify_packing(inst, packing)
        assert not report["valid"]
        assert any(v["vertex"] in (2, 3) for v in report["violations"])

    def test_root_with_parent_flagged(self):
        inst = Instance(kind="complete", n=3, capacities=(2, 2, 2), num_trees=1)
        packing = Packing(0, ({0: 1, 1: 0},))
        report = verify_packing(inst, packing)
        assert not report["valid"]
        assert any("root must not have a parent" in v["reason"] for v in report["violations"])

    def test_vertex_out_of_range_flagged(self):
        inst = Instance(kind="complete", n=3, capacities=(2, 2, 2), num_trees=1)
        packing = Packing(0, ({7: 0},))
        report = verify_packing(inst, packing)
        assert not report["valid"]
        assert any("outside" in v["reason"] for v in report["violations"])

    def test_tree_count_mismatch_raises(self):
        inst = path3_instance(num_trees=2)
        with pytest.raises(ValueError, match="needs K=2"):
            verify_packing(inst, Packing(0, ({},)))

    def test_wrong_root_raises(self):
        inst = path3_instance(num_trees=1)
        with pytest.raises(ValueError, match=r"^packing rooted at 1, instance root is 0$"):
            verify_packing(inst, Packing(1, ({},)))
        inst = Instance(kind="complete", n=3, capacities=(2, 2, 2), num_trees=2, root=2)
        with pytest.raises(ValueError, match=r"^packing rooted at 0, instance root is 2$"):
            verify_packing(inst, Packing(0, ({1: 0, 2: 1}, {})))

    @pytest.mark.parametrize(
        "trees",
        [({1.0: 0}, {2: 0}), ({True: 0}, {2: 0}), ({1: 0, 2: 1.0}, {3: 0}), ({1: True}, {2: 0})],
        ids=["float child", "bool child", "float parent after a sound edge", "bool parent"],
    )
    def test_id_not_an_integer_raises_the_loaders_error(self, trees):
        inst = Instance(kind="complete", n=4, capacities=(2, 1, 1, 1), num_trees=2)
        packing = Packing(0, trees)
        with pytest.raises(ValueError) as loaded:
            packing_from_dict(packing_to_dict(packing), 0)
        with pytest.raises(ValueError) as verified:
            verify_packing(inst, packing)
        assert str(verified.value) == str(loaded.value)
        assert str(verified.value).startswith("trees[0].edges: expected an integer, got ")

    def test_int_subclass_ids_accepted(self):
        """As the loader accepts them: the report is the one for plain ints."""

        class Vertex(int):
            pass

        inst = Instance(kind="complete", n=4, capacities=(1, 1, 1, 1), num_trees=2)
        for plain in (({1: 0}, {2: 0}), ({1: 0}, {2: 1, 3: 2})):  # valid, then over capacity
            subclassed = [{Vertex(c): Vertex(p) for c, p in t.items()} for t in plain]
            report = verify_packing(inst, Packing(0, subclassed))
            assert report == verify_packing(inst, Packing(0, plain))

    def test_maps_kept_as_given(self):
        maps = [{1: 0}, {}]
        packing = Packing(0, maps)
        assert len(packing.trees) == 2
        assert all(kept is given for kept, given in zip(packing.trees, maps))

    def test_report_is_its_json_document(self):
        inst = Instance(kind="complete", n=5, capacities=(1, 1, 0, 1, 1), num_trees=2)
        packing = Packing(
            0,
            (
                {0: 1, 1: 0, 2: 1, 9: 2},  # root parent, capacity, range
                {3: 4, 4: 3, 1: 0},  # cycle, shared capacity
            ),
        )
        report = verify_packing(inst, packing)
        capacity = "capacity exceeded: {} children across trees, capacity {}"
        expected = {
            "valid": False,
            "violations": [
                {"tree": 0, "vertex": 0, "reason": "root must not have a parent"},
                {"tree": 0, "vertex": 9, "reason": "edge (2, 9) uses a vertex outside [0, 5)"},
                {"tree": 1, "vertex": 3, "reason": "not connected to the root"},
                {"tree": 1, "vertex": 4, "reason": "not connected to the root"},
                {"tree": None, "vertex": 0, "reason": capacity.format(2, 1)},
                {"tree": None, "vertex": 1, "reason": capacity.format(2, 1)},
                {"tree": None, "vertex": 2, "reason": capacity.format(1, 0)},
            ],
        }
        assert report == expected
        assert json.dumps(report) == json.dumps(expected)

    def test_valid_packings_respect_objective_bounds(self):
        rng = random.Random(4242)
        for _ in range(40):
            inst = random_general_instance(rng)
            packing = greedy_general(inst)
            report = verify_packing(inst, packing)
            assert report["valid"]
            value = objective(packing)
            assert value <= inst.num_trees + sum(inst.capacities)
            assert value <= inst.num_trees * inst.n


class TestObjective:
    def test_null_trees_count_their_root(self):
        packing = Packing(0, ({}, {}, {}))
        assert objective(packing) == 3

    def test_path_plus_null(self):
        assert objective(Packing(0, (full_path_tree(), {}))) == 4

    def test_reordering_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_complete_instance(rng)
            packing = solve_complete(inst)
            shuffled = list(packing.trees)
            rng.shuffle(shuffled)
            assert objective(Packing(packing.root, shuffled)) == objective(packing)


class TestPackingIO:
    def test_null_packing_json(self):
        data = packing_to_dict(Packing(0, ({},)))
        assert data == {"trees": [{"edges": []}], "objective": 1}

    def test_path_edges_parent_first(self):
        data = packing_to_dict(Packing(0, (full_path_tree(),)))
        assert data["trees"][0]["edges"] == [[0, 1], [1, 2]]

    def test_round_trip_preserves_parent_maps(self):
        rng = random.Random(5)
        inst = random_tree_instance(rng, max_n=8)
        packing = greedy_general(inst)
        buf = io.StringIO(json.dumps(packing_to_dict(packing)))
        again = load_packing(buf, inst)
        assert again == packing
        assert again.root == inst.root

    def test_loaded_packing_takes_the_given_root(self):
        data = {"trees": [{"edges": [[2, 1]]}, {"edges": []}]}
        for root in (0, 2, 7):
            packing = packing_from_dict(data, root)
            assert packing.root == root
            assert packing.trees == ({1: 2}, {})

    def test_duplicate_child_rejected(self):
        inst = path3_instance(num_trees=1)
        raw = '{"trees": [{"edges": [[0, 1], [2, 1]]}]}'
        with pytest.raises(ValueError, match="two parents"):
            load_packing(io.StringIO(raw), inst)

    def test_missing_trees_field_rejected(self):
        inst = path3_instance(num_trees=1)
        with pytest.raises(ValueError, match="trees"):
            load_packing(io.StringIO("{}"), inst)

    def test_non_list_edges_rejected(self):
        inst = path3_instance(num_trees=1)
        for raw in ('{"trees": [{"edges": 5}]}', '{"trees": [{"edges": null}]}'):
            with pytest.raises(ValueError, match=r"trees\[0\]\.edges"):
                load_packing(io.StringIO(raw), inst)

    def test_deeply_nested_json_is_value_error(self):
        inst = path3_instance(num_trees=1)
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ValueError, match="instance: JSON nested too deeply"):
            load_instance(io.StringIO(deep))
        with pytest.raises(ValueError, match="packing: JSON nested too deeply"):
            load_packing(io.StringIO(deep), inst)
