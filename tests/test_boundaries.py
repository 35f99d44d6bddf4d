"""Range checks at their exact boundary, and the details error messages name.

Each test here pins a value that a one-token change to the code would
alter: a vertex id equal to n or to -1, a bool where an integer belongs,
zero vertices, the first clause's number, the token a bad header names,
the vertex a negative capacity names, and the mode a new output file
gets.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from treepack import Instance, SatInstance, parse_dimacs
from treepack.cli import _write, main

N = 4
INSTANCES = {
    "complete": Instance("complete", N, (1,) * N, 1),
    "tree": Instance("tree", N, (1,) * N, 1, edges=((0, 1), (1, 2), (2, 3))),
    "general": Instance("general", N, (1,) * N, 1, edges=((0, 1), (0, 2), (1, 3), (2, 3))),
}


class TestVertexRange:
    @pytest.mark.parametrize("edge", [(0, N), (N, 0)])
    def test_edge_endpoint_equal_to_n_is_rejected(self, edge):
        u, v = edge
        with pytest.raises(ValueError, match=rf"^edges: vertex out of range in \({u}, {v}\)$"):
            Instance("tree", N, (1,) * N, 1, edges=((0, 1), (1, 2), edge))

    @pytest.mark.parametrize("edge", [(0, -1), (-1, 0)])
    def test_edge_endpoint_equal_to_minus_one_is_rejected(self, edge):
        u, v = edge
        with pytest.raises(ValueError, match=rf"^edges: vertex out of range in \({u}, {v}\)$"):
            Instance("tree", N, (1,) * N, 1, edges=((0, 1), (1, 2), edge))

    @pytest.mark.parametrize("root", [-1, N])
    def test_root_just_outside_the_range_is_rejected(self, root):
        with pytest.raises(ValueError, match=rf"^root: {root} outside \[0, {N}\)$"):
            Instance("complete", N, (1,) * N, 1, root)

    def test_edge_endpoint_equal_to_n_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        data = {"kind": "general", "n": N, "capacities": [1] * N, "K": 1,
                "edges": [[0, 1], [1, 2], [2, 3], [0, N]]}
        path.write_text(json.dumps(data))
        assert main(["solve", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: edges: vertex out of range in (0, {N})\n"

    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    def test_has_edge_is_false_outside_the_vertex_range(self, kind):
        inst = INSTANCES[kind]
        assert inst.has_edge(0, 1)
        for u in range(N):
            assert not inst.has_edge(u, N)
            assert not inst.has_edge(N, u)
            assert not inst.has_edge(-1, u)
            assert not inst.has_edge(u, -1)


class TestBoolIsNotAnInteger:
    """bool is an int subclass; Instance and SatInstance both refuse it."""

    def test_sat_instance_rejects_a_bool_variable_count(self):
        with pytest.raises(ValueError, match=r"^num_vars: must be a positive integer, got True$"):
            SatInstance(True, ((1, 1, 1),))

    @pytest.mark.parametrize("position", range(3))
    def test_sat_instance_rejects_a_bool_literal(self, position):
        clause = [1, 1, 1]
        clause[position] = True
        with pytest.raises(ValueError, match=r"^clause 2: literal True out of range$"):
            SatInstance(1, ((1, -1, 1), tuple(clause)))

    def test_instance_rejects_a_bool_vertex_count(self):
        with pytest.raises(ValueError, match=r"^n: expected an integer, got True$"):
            Instance("complete", True, (0,), 1)


class TestMessageDetails:
    def test_clause_numbers_are_one_based(self):
        with pytest.raises(ValueError, match=r"^clause 1: needs exactly 3 literals, got 2$"):
            SatInstance(3, ((1, 2),))
        with pytest.raises(ValueError, match=r"^clause 2: literal 4 out of range$"):
            SatInstance(3, ((1, 2, 3), (1, 2, 4)))

    def test_bad_variable_count_names_its_token(self):
        with pytest.raises(ValueError, match=r"^dimacs: bad variable count 'x'$"):
            parse_dimacs("p cnf x 3\n1 2 3 0\n")

    def test_clause_count_must_match_the_header(self):
        with pytest.raises(ValueError, match=r"^dimacs: bad clause count 'abc'$"):
            parse_dimacs("p cnf 3 abc\n1 2 3 0\n")
        with pytest.raises(ValueError, match=r"^dimacs: header declares 5 clauses, found 1$"):
            parse_dimacs("p cnf 3 5\n1 2 3 0\n")

    def test_zero_vertices_names_n(self):
        # n = 0 must fail on n itself, not on the root check that follows it
        with pytest.raises(ValueError, match=r"^n: must be positive, got 0$"):
            Instance("complete", 0, (), 1)

    def test_negative_capacity_names_its_vertex_after_a_zero(self):
        with pytest.raises(ValueError, match=r"^capacities: negative capacity -1 at vertex 1$"):
            Instance("complete", 2, (0, -1), 1)

    @pytest.mark.parametrize("umask", [0o022, 0o002])
    def test_new_output_file_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "out.json"
        saved = os.umask(umask)
        try:
            _write(str(path), "{}\n")
        finally:
            os.umask(saved)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert path.read_text() == "{}\n"
