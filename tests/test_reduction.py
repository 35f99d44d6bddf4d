"""CNF parsing, gadget structure and assignment extraction tests."""

from __future__ import annotations

import io
import json
import random
import re
from collections import Counter

import pytest

from helpers import (
    EXAMPLE_DIMACS,
    EXAMPLE_FORMULA,
    assignment_satisfies,
    cnf_satisfiable,
    gadget_witness,
    max_sat,
    planted_3cnf,
    random_3cnf,
    satlib_uf_text,
    true_literals,
)
from treepack import (
    Packing,
    SatInstance,
    SearchLimitExceeded,
    brute_force_solve,
    extract_assignment,
    greedy_general,
    load_dimacs,
    objective,
    parse_dimacs,
    packing_to_dict,
    reduce_3sat,
    verify_packing,
)
from treepack import reduction
from treepack.cli import main


def vertex_ids(out) -> dict[str, int]:
    """The gadget's vertex ids by role ("x2", "not_x2", "clause_3"), from its labels."""
    return {role: v for v, role in out.labels.items()}


class TestParseDimacs:
    def test_example_file(self):
        sat = parse_dimacs(EXAMPLE_DIMACS)
        assert sat == EXAMPLE_FORMULA

    def test_clause_spanning_lines(self):
        sat = parse_dimacs("p cnf 2 1\n1 -2\n1 0\n")
        assert sat.clauses == ((1, -2, 1),)

    def test_comments_ignored(self):
        sat = parse_dimacs("c hello\np cnf 1 1\nc mid\n1 1 1 0\n")
        assert sat.num_vars == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 3 1\n1 2 3 0\np cnf 5 1\n", "second problem line 'p cnf 5 1'"),
            ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "second problem line 'p cnf 3 1'"),
            ("1 2 3 0\np cnf 3 1\n", "clause before the 'p cnf' problem line"),
        ],
        ids=["second-after-clause", "repeated", "clause-first"],
    )
    def test_exactly_one_header_before_the_clauses(self, text, message):
        with pytest.raises(ValueError, match=f"^dimacs: {re.escape(message)}$"):
            parse_dimacs(text)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="problem line"):
            parse_dimacs("1 2 3 0\n")

    def test_non_three_literal_clause_rejected(self):
        with pytest.raises(ValueError, match="exactly 3 literals"):
            parse_dimacs("p cnf 3 1\n1 2 0\n")
        with pytest.raises(ValueError, match="exactly 3 literals"):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_dimacs("p cnf 2 1\n1 2 3 0\n")

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError, match="bad token"):
            parse_dimacs("p cnf 2 1\n1 x 2 0\n")

    def test_satlib_trailer_ends_the_formula(self):
        # SATLIB's uf files end with "%" and a lone "0", which is no clause.
        uf, plain = satlib_uf_text()
        sat = parse_dimacs(uf)
        assert sat == parse_dimacs(plain)
        assert (sat.num_vars, sat.num_clauses) == (20, 91)

    def test_load_reads_utf8_bytes(self):
        assert load_dimacs(io.BytesIO(EXAMPLE_DIMACS.encode())) == EXAMPLE_FORMULA
        with pytest.raises(ValueError):  # UnicodeDecodeError
            load_dimacs(io.BytesIO(b"p cnf 1 1\n1 1 \xff 0\n"))


class TestSatInstance:
    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError, match="no clauses"):
            SatInstance(1, ())

    def test_zero_vars_rejected(self):
        with pytest.raises(ValueError, match="num_vars"):
            SatInstance(0, ((1, 1, 1),))

    def test_literal_zero_and_past_num_vars_rejected(self):
        # DIMACS text cannot carry a literal 0 (it ends a clause), so only
        # a library caller reaches this check.
        for lit in (0, 2, -2):
            with pytest.raises(ValueError, match=rf"^clause 1: literal {lit} out of range$"):
                SatInstance(1, ((1, lit, 1),))

    def test_duplicate_variable_in_clause_accepted(self):
        sat = SatInstance(1, ((1, -1, 1),))
        assert sat.num_clauses == 1


class TestReduce3Sat:
    def test_example_structure(self):
        out = reduce_3sat(EXAMPLE_FORMULA)
        inst = out.instance
        assert inst.n == 16
        assert len(inst.edges) == 21
        assert out.gamma == 12
        assert inst.num_trees == 1
        assert inst.root == 0
        assert inst.capacities[0] == 4
        counts = Counter(inst.capacities)
        assert counts == {4: 1, 1: 4, 3: 8, 0: 3}

    def test_example_labels(self):
        out = reduce_3sat(EXAMPLE_FORMULA)
        assert out.labels[0] == "root"
        assert out.labels[2] == "selector_2"
        vertex = vertex_ids(out)
        assert (vertex["x2"], vertex["not_x2"], vertex["clause_3"]) == (7, 8, 15)
        assert len(out.labels) == 16

    def test_repeated_literal_edges_deduplicated(self):
        out = reduce_3sat(SatInstance(1, ((1, 1, 1),)))
        inst = out.instance
        assert inst.n == 5
        assert len(inst.edges) == 4
        assert out.gamma == 4

    def test_structure_on_random_formulas(self):
        rng = random.Random(6)
        for _ in range(50):
            sat = random_3cnf(rng)
            out = reduce_3sat(sat)
            n, m = sat.num_vars, sat.num_clauses
            vertex = vertex_ids(out)
            assert out.instance.n == 1 + 3 * n + m
            assert out.gamma == 1 + 2 * n + m
            assert out.instance.capacities[0] == n
            for i in range(1, n + 1):
                assert out.instance.capacities[i] == 1
                assert out.instance.capacities[vertex[f"x{i}"]] == m
                assert out.instance.capacities[vertex[f"not_x{i}"]] == m
            for j in range(1, m + 1):
                assert out.instance.capacities[vertex[f"clause_{j}"]] == 0
            if all(len({abs(l) for l in cl}) == 3 for cl in sat.clauses):
                assert len(out.instance.edges) == 3 * n + 3 * m

    def test_vertex_limit_checked_before_building(self, monkeypatch):
        # The variable count alone sets the size; the limit stops it.
        with pytest.raises(SearchLimitExceeded, match="max_vertices=100000"):
            reduce_3sat(SatInstance(10**30, ((1, 2, 3),)))
        # 1 + 3 * 4 + 3 = 16 vertices: allowed at exactly the limit.
        monkeypatch.setattr(reduction, "MAX_VERTICES", 16)
        assert reduce_3sat(EXAMPLE_FORMULA).instance.n == 16
        monkeypatch.setattr(reduction, "MAX_VERTICES", 15)
        with pytest.raises(SearchLimitExceeded, match="16 vertices .* max_vertices=15"):
            reduce_3sat(EXAMPLE_FORMULA)


def example_witness() -> tuple:
    """Hand-built threshold tree for the worked formula: x1, !x2, x3, !x4."""
    out = reduce_3sat(EXAMPLE_FORMULA)
    vertex = vertex_ids(out)
    chosen = {1: "x1", 2: "not_x2", 3: "x3", 4: "not_x4"}
    parent: dict[int, int] = {}
    for i in range(1, 5):
        parent[i] = 0
        parent[vertex[chosen[i]]] = i
    # one true literal carries each clause
    parent[vertex["clause_1"]] = vertex["x1"]
    parent[vertex["clause_2"]] = vertex["x1"]
    parent[vertex["clause_3"]] = vertex["not_x2"]
    return out, Packing(0, (parent,))


class TestExtractAssignment:
    def test_witness_assignment(self):
        out, packing = example_witness()
        assert verify_packing(out.instance, packing)["valid"]
        assert objective(packing) == 12
        assignment = extract_assignment(out, packing)
        assert assignment == {1: True, 2: False, 3: True, 4: False}
        assert assignment_satisfies(EXAMPLE_FORMULA, assignment)

    def test_below_threshold_returns_none(self):
        out = reduce_3sat(EXAMPLE_FORMULA)
        packing = Packing(0, ({},))
        assert extract_assignment(out, packing) is None

    def test_unverified_packing_rejected(self):
        out = reduce_3sat(EXAMPLE_FORMULA)
        bogus = Packing(0, ({vertex_ids(out)["clause_1"]: 0},))  # edge not in gadget
        with pytest.raises(ValueError, match="does not verify"):
            extract_assignment(out, bogus)

    def test_oracle_witness_satisfies_formula(self):
        out = reduce_3sat(EXAMPLE_FORMULA)
        value, packing = brute_force_solve(out.instance, max_n=out.instance.n, max_k=1)
        assert value == out.gamma
        assignment = extract_assignment(out, packing)
        assert assignment is not None
        assert assignment_satisfies(EXAMPLE_FORMULA, assignment)


class TestBidirectional:
    def test_desk_scale_equivalence(self):
        rng = random.Random(404)
        formulas = [
            EXAMPLE_FORMULA,
            SatInstance(1, ((1, 1, 1), (-1, -1, -1))),  # unsatisfiable
            SatInstance(2, ((1, 2, 2), (-1, -2, -2), (1, -2, 1), (-1, 2, 2))),
        ]
        formulas += [random_3cnf(rng, max_vars=3, max_clauses=3) for _ in range(15)]
        for sat in formulas:
            out = reduce_3sat(sat)
            value, packing = brute_force_solve(out.instance, max_n=out.instance.n, max_k=1)
            reachable = value >= out.gamma
            assert reachable == cnf_satisfiable(sat), sat
            if reachable:
                assignment = extract_assignment(out, packing)
                assert assignment is not None
                assert assignment_satisfies(sat, assignment)

    def test_optimum_is_one_plus_two_n_plus_max_sat(self):
        # A tree holds the root, the n selectors, at most one literal per
        # variable and the clauses next to a held literal, so the optimum
        # of any gadget is 1 + 2n + MAX-SAT, not only at the threshold.
        rng = random.Random(2111)
        unsatisfiable = 0
        for _ in range(200):
            sat = random_3cnf(rng, max_vars=3, max_clauses=8)
            gadget = reduce_3sat(sat).instance
            value, _ = brute_force_solve(gadget, max_n=gadget.n, max_k=1)
            assert value == 1 + 2 * sat.num_vars + max_sat(sat), sat
            unsatisfiable += max_sat(sat) < sat.num_clauses
        assert unsatisfiable >= 10


# Planted formulas at the clause/variable ratio of SATLIB's uf files; the
# larger one has uf250's size (250 variables, 1,065 clauses).
PLANTED = {"uf50": (50, 213), "uf250": (250, 1065)}


def planted(name: str):
    num_vars, num_clauses = PLANTED[name]
    sat, assignment = planted_3cnf(random.Random(name), num_vars, num_clauses)
    return sat, assignment, reduce_3sat(sat)


def dimacs(sat: SatInstance) -> str:
    lines = [f"p cnf {sat.num_vars} {sat.num_clauses}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in sat.clauses]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", PLANTED)
class TestPlantedGadget:
    """The forward direction of the hardness proof at SATLIB scale, by certificates.

    A satisfying assignment builds a tree of gamma vertices (helpers.gadget_witness),
    so no search is needed to check the gadget far past the oracle's reach.
    """

    def test_witness_reaches_gamma(self, name):
        sat, assignment, out = planted(name)
        witness = gadget_witness(out, sat, assignment)
        assert verify_packing(out.instance, witness) == {"valid": True, "violations": []}
        assert objective(witness) == out.gamma
        found = extract_assignment(out, witness)
        assert found == assignment
        assert assignment_satisfies(sat, found)

    def test_solver_packings_stay_within_gamma(self, name):
        # greedy is the one solver for general graphs past the oracle's limits.
        _, _, out = planted(name)
        packing = greedy_general(out.instance)
        assert verify_packing(out.instance, packing)["valid"]
        assert objective(packing) <= out.gamma

    def test_flipped_selector_disconnects_exactly_the_unsatisfied_clauses(self, name):
        sat, assignment, out = planted(name)
        # Flip a variable that is the only true literal of some clause.
        true = [true_literals(clause, assignment) for clause in sat.clauses]
        lone = abs(next(lits[0] for lits in true if len(lits) == 1))
        flipped = {**assignment, lone: not assignment[lone]}
        unsatisfied = [
            j
            for j, clause in enumerate(sat.clauses, start=1)
            if not true_literals(clause, flipped)
        ]
        assert unsatisfied
        report = verify_packing(out.instance, gadget_witness(out, sat, flipped))
        assert not report["valid"]
        assert {v["reason"] for v in report["violations"]} == {"not connected to the root"}
        roles = [out.labels[v["vertex"]] for v in report["violations"]]
        assert sorted(r for r in roles if r.startswith("clause_")) == sorted(
            f"clause_{j}" for j in unsatisfied
        )
        # The rest are the absent literal vertices those clauses hang from.
        first = {sat.clauses[j - 1][0] for j in unsatisfied}
        assert sorted(r for r in roles if not r.startswith("clause_")) == sorted(
            f"x{lit}" if lit > 0 else f"not_x{-lit}" for lit in first
        )

    def test_cli_reduce_solve_verify(self, name, tmp_path):
        sat, assignment, out = planted(name)
        cnf, inst, labels = tmp_path / "f.cnf", tmp_path / "g.json", tmp_path / "labels.json"
        solved, witness = tmp_path / "solved.json", tmp_path / "witness.json"
        cnf.write_text(dimacs(sat))
        assert main(["reduce", "--cnf", str(cnf), "-o", str(inst), "--labels", str(labels)]) == 0
        assert json.loads(labels.read_text())["gamma"] == out.gamma
        assert main(["solve", "-i", str(inst), "-o", str(solved)]) == 0
        assert main(["verify", "-i", str(inst), "-p", str(solved)]) == 0
        witness.write_text(json.dumps(packing_to_dict(gadget_witness(out, sat, assignment))))
        assert main(["verify", "-i", str(inst), "-p", str(witness)]) == 0
