"""Golden output: the exact packings the oracle, the greedy and the tree DP write.

The other tests check values, feasibility and agreement between solvers,
which any optimal packing passes.  This one pins the packing text itself:
the sha256 of `_packing_json` over a seeded family, so a change to a
solver's search or walk order that keeps every value still shows here.
A deliberate change of output must replace the digest and say so.
"""

from __future__ import annotations

import hashlib
import random

from helpers import (
    random_3cnf,
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
)
from treepack import brute_force_solve, greedy_general, reduce_3sat, solve_tree
from treepack.core import _packing_json

GOLDEN = "c80dd0bf336946b378a37b41cf17762434cec882e2c7795d59bbfc3c53501f9e"


def packing_texts():
    """One line per solver call: the solver's name, its value and its packing text."""
    rng = random.Random(1517)
    for _ in range(40):
        for make in (random_complete_instance, random_tree_instance, random_general_instance):
            inst = make(rng, max_n=6)
            value, packing = brute_force_solve(inst)
            yield f"oracle {value} {_packing_json(packing, inst.n)}"
            yield f"greedy {_packing_json(greedy_general(inst), inst.n)}"
            if inst.kind == "tree":
                value, packing = solve_tree(inst)
                yield f"tree {value} {_packing_json(packing, inst.n)}"
    for _ in range(12):
        inst = reduce_3sat(random_3cnf(rng, max_vars=3, max_clauses=3)).instance
        value, packing = brute_force_solve(inst, max_n=inst.n)
        yield f"gadget {value} {_packing_json(packing, inst.n)}"
        yield f"greedy {_packing_json(greedy_general(inst), inst.n)}"


def digest() -> str:
    return hashlib.sha256("\n".join(packing_texts()).encode()).hexdigest()


def test_packings_match_the_golden_digest():
    assert digest() == GOLDEN
