"""Golden output: the exact packings the solvers write and the verifier's reports.

The other tests check values, feasibility and agreement between solvers,
which any optimal packing passes.  This one pins the packing text itself:
the sha256 of `json.dumps(packing_to_dict(p))`, the bytes of every
writer, over a seeded family, so a change to a solver's search or walk
order that keeps every value still shows here.
It pins the verifier's reports the same way: the sha256 of each
report's JSON over valid packings and copies damaged by the faults of
test_differential.corrupt_maps, and what `treepack verify` gives on the
first 100 damaged copies written to files: its exit code and stdout.
A deliberate change of output must
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
    instance_to_dict,
    packing_from_dict,
    packing_to_dict,
    reduce_3sat,
    solve_tree,
    verify_packing,
)
from treepack.cli import main

GOLDEN = "f25d362a677b90336dac3b44044caf359d471dadb73293246bcea65c419aa075"
GOLDEN_REPORTS = "2f7f31debce2a02138dd0f6076b20f10c9359de74004ab7b024ec1b7e5318555"
GOLDEN_CLI_REPORTS = "0251e70ff5c9a2c718686c4f605c55afa02427046ef1220f1bd9d3239ad116ac"


def document(packing) -> str:
    """The packing's document, the bytes every writer gives (test_packing_text)."""
    return json.dumps(packing_to_dict(packing))


def packing_texts():
    """One line per solver call: the solver's name, its value and its packing text."""
    rng = random.Random(1517)
    for _ in range(40):
        for make in (random_complete_instance, random_tree_instance, random_general_instance):
            inst = make(rng, max_n=6)
            value, packing = brute_force_solve(inst)
            yield f"oracle {value} {document(packing)}"
            yield f"greedy {document(greedy_general(inst))}"
            if inst.kind == "tree":
                value, packing = solve_tree(inst)
                yield f"tree {value} {document(packing)}"
    for _ in range(12):
        inst = reduce_3sat(random_3cnf(rng, max_vars=3, max_clauses=3)).instance
        value, packing = brute_force_solve(inst, max_n=inst.n)
        yield f"gadget {value} {document(packing)}"
        yield f"greedy {document(greedy_general(inst))}"


def damaged_cases(count: int):
    """(instance, valid packing, the document of a damaged copy) over a seeded family."""
    for rng, inst, packing in seeded_cases(1519, count):
        maps = [{c: p for p, c in tree["edges"]} for tree in packing_to_dict(packing)["trees"]]
        corrupt_maps(rng, inst, maps)
        doc = {"trees": [{"edges": [[p, c] for c, p in parent.items()]} for parent in maps]}
        yield inst, packing, doc


def verifier_reports():
    """One line per report: a valid packing's, then its damaged copy's.

    The damaged copy is read from its document, as the verify command reads it.
    """
    for inst, packing, doc in damaged_cases(600):
        yield json.dumps(verify_packing(inst, packing))
        yield json.dumps(verify_packing(inst, packing_from_dict(doc, inst.root)))


def cli_reports(tmp_path, capsys):
    """One line per damaged copy of the first 100: treepack verify's exit code and stdout."""
    inst_path, packing_path = str(tmp_path / "instance.json"), str(tmp_path / "packing.json")
    for inst, _, doc in damaged_cases(100):
        with open(inst_path, "w") as fh:
            json.dump(instance_to_dict(inst), fh)
        with open(packing_path, "w") as fh:
            json.dump(doc, fh)
        code = main(["verify", "-i", inst_path, "-p", packing_path])
        yield f"{code} {capsys.readouterr().out}"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_packings_match_the_golden_digest():
    assert digest(packing_texts()) == GOLDEN


def test_verifier_reports_match_the_golden_digest():
    assert digest(verifier_reports()) == GOLDEN_REPORTS


def test_cli_reports_match_the_golden_digest(tmp_path, capsys):
    assert digest(cli_reports(tmp_path, capsys)) == GOLDEN_CLI_REPORTS
