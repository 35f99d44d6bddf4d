"""Hypothesis properties: the complete-graph closed form and the JSON round trips."""

from __future__ import annotations

import json

from hypothesis import given
from hypothesis import strategies as st

from treepack import (
    Instance,
    Packing,
    instance_from_dict,
    instance_to_dict,
    objective,
    optimal_objective,
    packing_from_dict,
    packing_to_dict,
    solve_complete,
    verify_packing,
)


def _capacities(draw, n: int) -> tuple[int, ...]:
    return tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))


@st.composite
def complete_instances(draw, max_n: int = 40) -> Instance:
    n = draw(st.integers(1, max_n))
    return Instance(
        kind="complete",
        n=n,
        capacities=_capacities(draw, n),
        num_trees=draw(st.integers(1, n)),
        root=draw(st.integers(0, n - 1)),
    )


@st.composite
def graph_instances(draw, max_n: int = 12) -> Instance:
    """A tree or general instance; edges come in either orientation."""
    kind = draw(st.sampled_from(("tree", "general")))
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if kind == "general" and n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pairs, max_size=n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Instance(
        kind=kind,
        n=n,
        capacities=_capacities(draw, n),
        num_trees=draw(st.integers(1, n)),
        root=draw(st.integers(0, n - 1)),
        edges=tuple((v, u) if flip else (u, v) for (u, v), flip in zip(sorted(edges), flips)),
    )


@st.composite
def packings(draw) -> Packing:
    """Valid trees next to damaged ones: cycles, orphans, a root with a parent,
    self-edges and negative ids.  Ids lie in [-3, 16)."""
    root = draw(st.integers(0, 6))
    valid = st.integers(1, 10).flatmap(
        lambda n: st.tuples(*(st.integers(0, v - 1) for v in range(1, n))).map(
            lambda parents: {root + v: root + p for v, p in enumerate(parents, start=1)}
        )
    )
    ids = st.integers(-3, 12)
    damaged = st.dictionaries(ids, ids, max_size=12)
    trees = draw(st.lists(st.one_of(valid, damaged), min_size=1, max_size=4))
    return Packing(root, trees)


class TestClosedForm:
    @given(complete_instances())
    def test_solver_meets_closed_form_and_verifies(self, inst):
        packing = solve_complete(inst)
        assert objective(packing) == optimal_objective(inst)
        report = verify_packing(inst, packing)
        assert report["valid"], report["violations"]


class TestRoundTrips:
    @given(st.one_of(complete_instances(max_n=12), graph_instances()))
    def test_instance_round_trip(self, inst):
        data = instance_to_dict(inst)
        assert instance_from_dict(data) == inst
        assert instance_from_dict(json.loads(json.dumps(data))) == inst

    @given(packings())
    def test_packing_round_trip_restores_parent_maps(self, packing):
        data = packing_to_dict(packing)
        for doc in (data, json.loads(json.dumps(data))):
            assert packing_from_dict(doc, packing.root) == packing
