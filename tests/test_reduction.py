"""CNF parsing, gadget structure and assignment extraction tests."""

from __future__ import annotations

import io
import random
import re
from collections import Counter

import pytest

from helpers import (
    EXAMPLE_DIMACS,
    EXAMPLE_FORMULA,
    assignment_satisfies,
    cnf_satisfiable,
    random_3cnf,
    satlib_uf_text,
)
from treepack import (
    Packing,
    SatInstance,
    SearchLimitExceeded,
    brute_force_solve,
    extract_assignment,
    load_dimacs,
    objective,
    parse_dimacs,
    reduce_3sat,
    verify_packing,
)


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

    def test_vertex_limit_checked_before_building(self):
        # 1 + 3 * 4 + 3 = 16 vertices: allowed at exactly the limit.
        assert reduce_3sat(EXAMPLE_FORMULA, max_vertices=16).instance.n == 16
        with pytest.raises(SearchLimitExceeded, match="16 vertices .* max_vertices=15"):
            reduce_3sat(EXAMPLE_FORMULA, max_vertices=15)
        # The variable count alone sets the size; the default limit stops it.
        with pytest.raises(SearchLimitExceeded, match="max_vertices=100000"):
            reduce_3sat(SatInstance(10**30, ((1, 2, 3),)))


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
