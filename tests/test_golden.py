"""Golden output: the exact packings the solvers write and the verifier's reports.

The other tests check values, feasibility and agreement between solvers,
which any optimal packing passes.  This one pins the packing text itself:
the sha256 of `_packing_json` over a seeded family, so a change to a
solver's search or walk order that keeps every value still shows here.
It pins the verifier's reports the same way: the sha256 of each
report's JSON over valid packings and copies damaged by the faults of
test_differential.corrupt_maps.  A deliberate change of output must
replace the digest and say so.
"""

from __future__ import annotations

import hashlib
import json
import random

from helpers import (
    random_3cnf,
    random_complete_instance,
    random_general_instance,
    random_tree_instance,
)
from test_differential import corrupt_maps, seeded_cases
from treepack import (
    brute_force_solve,
    greedy_general,
    packing_from_dict,
    packing_to_dict,
    reduce_3sat,
    solve_tree,
    verify_packing,
)
from treepack.core import _packing_json

GOLDEN = "c80dd0bf336946b378a37b41cf17762434cec882e2c7795d59bbfc3c53501f9e"
GOLDEN_REPORTS = "e0b8143073c6056e74cc3d8a641f488ab1c5b602c560ccbd84cef482f2ebe6eb"


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


def verifier_reports():
    """One line per report: a valid packing's, then its damaged copy's.

    The damaged copy is read from its document, as the verify command reads it.
    """
    for rng, inst, packing in seeded_cases(1519, 600):
        yield json.dumps(verify_packing(inst, packing).to_dict())
        maps = [{c: p for p, c in tree["edges"]} for tree in packing_to_dict(packing)["trees"]]
        corrupt_maps(rng, inst, maps)
        doc = {"trees": [{"edges": [[p, c] for c, p in parent.items()]} for parent in maps]}
        yield json.dumps(verify_packing(inst, packing_from_dict(doc, inst.root)).to_dict())


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_packings_match_the_golden_digest():
    assert digest(packing_texts()) == GOLDEN


def test_verifier_reports_match_the_golden_digest():
    assert digest(verifier_reports()) == GOLDEN_REPORTS
