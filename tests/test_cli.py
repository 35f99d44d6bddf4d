"""CLI behavior: subcommands, exit codes, JSON output."""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import (
    EXAMPLE_DIMACS,
    random_complete_instance,
    random_tree_instance,
    satlib_uf_text,
)
from treepack import (
    cli,
    complete_solver,
    core,
    instance_to_dict,
    objective,
    packing_to_dict,
    solve_complete,
    solve_tree,
    tree_solver,
    verifier,
)
from treepack.cli import main

COMPLETE4 = {"kind": "complete", "n": 4, "root": 0, "capacities": [2, 1, 1, 1], "K": 2}
TREE3 = {
    "kind": "tree",
    "n": 3,
    "root": 0,
    "edges": [[0, 1], [1, 2]],
    "capacities": [1, 1, 0],
    "K": 2,
}
GENERAL4 = {
    "kind": "general",
    "n": 4,
    "root": 0,
    "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
    "capacities": [2, 1, 1, 1],
    "K": 2,
}


@pytest.fixture
def write_json(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_auto_on_complete(self, capsys, write_json):
        inst = write_json("c4.json", COMPLETE4)
        code, out, err = run(capsys, "solve", "-i", inst, "--alg", "auto")
        assert code == 0
        assert json.loads(out)["objective"] == 7
        assert "objective 7" in err

    def test_value_only(self, capsys, write_json):
        inst = write_json("c4.json", COMPLETE4)
        code, out, _ = run(capsys, "solve", "-i", inst, "--value-only")
        assert code == 0
        assert json.loads(out) == {"objective": 7}

    @pytest.mark.parametrize("extra", [["--alg", "auto"], []], ids=["auto", "default"])
    def test_value_only_on_complete_takes_the_closed_form(
        self, capsys, write_json, monkeypatch, extra
    ):
        # The one path: complete_text, whose stage one is never drawn.
        rng = random.Random(31)
        cases = [random_complete_instance(rng, max_n=30, max_k=8, cap_hi=6) for _ in range(25)]
        values = [objective(solve_complete(inst)) for inst in cases]

        def boom(inst):
            raise AssertionError("stage paths built under --value-only")

        monkeypatch.setattr(complete_solver, "build_stage_paths", boom)
        for inst, value in zip(cases, values):
            path = write_json("c.json", instance_to_dict(inst))
            code, out, err = run(capsys, "solve", "-i", path, *extra, "--value-only")
            assert code == 0
            assert out == json.dumps({"objective": value}) + "\n"
            assert err == (
                f"objective {value} (complete, kind=complete, n={inst.n}, K={inst.num_trees})\n"
            )

    def test_value_only_on_a_tree_builds_no_tree(self, capsys, write_json, monkeypatch):
        rng = random.Random(32)
        cases = [random_tree_instance(rng, max_n=30, max_k=8, cap_hi=6) for _ in range(25)]
        values = [solve_tree(inst)[0] for inst in cases]

        def boom(*args):
            raise AssertionError("tree walked under --value-only")

        monkeypatch.setattr(tree_solver, "_grants", boom)
        for inst, value in zip(cases, values):
            path = write_json("t.json", instance_to_dict(inst))
            code, out, err = run(capsys, "solve", "-i", path, "--value-only")
            assert code == 0
            assert out == json.dumps({"objective": value}) + "\n"
            assert err.startswith(f"objective {value} (tree, kind=tree, ")

    def test_kind_picks_the_solver_unless_greedy_is_asked(self, capsys, write_json):
        for data, alg in ((COMPLETE4, "complete"), (TREE3, "tree"), (GENERAL4, "greedy")):
            inst = write_json("inst.json", data)
            for extra, expected in (([], alg), (["--alg", "greedy"], "greedy")):
                code, _, err = run(capsys, "solve", "-i", inst, *extra)
                assert code == 0
                assert f" ({expected}, kind={data['kind']}, n=" in err.splitlines()[-1]

    def test_value_only_kind_mismatch_is_input_error(self, capsys, write_json):
        # --value-only takes no shortcut past the kind check.
        for data, kind in ((TREE3, "Tree"), (COMPLETE4, "Complete")):
            inst = write_json("inst.json", dict(data, kind=kind))
            for extra in ([], ["--value-only"]):
                code, out, err = run(capsys, "solve", "-i", inst, *extra)
                assert (code, out) == (2, "")
                assert err == (
                    f"error: kind: expected one of ('general', 'complete', 'tree'), got {kind!r}\n"
                )

    def test_kind_is_matched_exactly(self, capsys, write_json):
        for kind in ("Complete", "COMPLETE", " complete"):
            inst = write_json("c4.json", dict(COMPLETE4, kind=kind))
            code, out, err = run(capsys, "solve", "-i", inst)
            assert (code, out) == (2, "")
            assert err == f"error: kind: expected one of ('general', 'complete', 'tree'), got {kind!r}\n"

    def test_general_auto_warns_heuristic(self, capsys, write_json):
        inst = write_json("g4.json", GENERAL4)
        code, out, err = run(capsys, "solve", "-i", inst)
        assert code == 0
        assert "heuristic" in err
        assert json.loads(out)["objective"] >= 2

    def test_solve_then_verify_is_valid(self, capsys, write_json, tmp_path):
        for name, inst_data in (("c4.json", COMPLETE4), ("t3.json", TREE3), ("g4.json", GENERAL4)):
            inst = write_json(name, inst_data)
            pack = str(tmp_path / f"{name}.pack")
            code, _, _ = run(capsys, "solve", "-i", inst, "-o", pack)
            assert code == 0
            code, out, _ = run(capsys, "verify", "-i", inst, "-p", pack)
            assert code == 0
            assert json.loads(out)["valid"] is True

    def test_tree_with_a_cycle_and_an_isolated_vertex_is_input_error(self, capsys, write_json):
        # n - 1 edges, so only the connectivity test can reject it.
        edges = [[0, 1], [1, 2], [2, 0]]
        data = {"kind": "tree", "n": 4, "edges": edges, "capacities": [1] * 4, "K": 1}
        code, out, err = run(capsys, "solve", "-i", write_json("t4.json", data))
        assert (code, out, err) == (2, "", "error: edges: graph is disconnected, not a tree\n")

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "solve", "-i", "no-such-file.json")
        assert code == 2
        assert "error" in err

    def test_output_file_matches_stdout(self, capsys, write_json, tmp_path):
        for name, inst_data in (("c4.json", COMPLETE4), ("t3.json", TREE3), ("g4.json", GENERAL4)):
            inst = write_json(name, inst_data)
            for extra in ((), ("--value-only",)):
                pack = tmp_path / f"{name}.pack"
                code, out, _ = run(capsys, "solve", "-i", inst, "-o", str(pack), *extra)
                assert code == 0
                assert pack.read_bytes() == out.encode()

    @staticmethod
    def traced_solve(monkeypatch, inst: str, out: Path) -> int:
        """The tracemalloc peak of one solve, stdout going to out.

        Both solver modules are loaded first, so their compiled code is
        not part of the peak.
        """
        import treepack.complete_solver, treepack.tree_solver  # noqa: F401

        with open(out, "w") as fh:
            monkeypatch.setattr(sys, "stdout", fh)
            tracemalloc.start()
            try:
                assert main(["solve", "-i", inst]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_complete_solve_writes_tree_by_tree(self, write_json, tmp_path, monkeypatch):
        """No parent maps, no list of paths, no document-sized string: a peak of O(n).

        n = K = 700, every capacity 700: 489,999 edges, a 5.7 MB document.
        One path and one tree's text are held at a time, about 0.2 MB;
        holding every stage path took the peak to 0.75 times the
        document, and building the parent maps and the document as one
        string to 7.5 times.
        """
        data = {"kind": "complete", "n": 700, "capacities": [700] * 700, "K": 700}
        out = tmp_path / "out.json"
        peak = self.traced_solve(monkeypatch, write_json("c700.json", data), out)
        size = out.stat().st_size
        assert size > 5_000_000
        assert peak < 400_000, (peak, size)

    def test_tree_solve_writes_tree_by_tree(self, write_json, tmp_path, monkeypatch):
        """Granted levels, not K parent maps: the peak stays below a tenth of the document.

        A star, n = K = 600, whose root can serve every leaf in every tree:
        359,400 edges, a 3.5 MB document, written from one "[0, v]" string
        per leaf and one joined tree's text.  K parent maps and the whole
        document took the peak to about 5 times the document.
        """
        n = 600
        data = {
            "kind": "tree",
            "n": n,
            "capacities": [n * (n - 1)] + [1] * (n - 1),
            "K": n,
            "edges": [[0, v] for v in range(1, n)],
        }
        out = tmp_path / "out.json"
        peak = self.traced_solve(monkeypatch, write_json("star.json", data), out)
        size = out.stat().st_size
        assert json.loads(out.read_text())["objective"] == n * n
        assert peak < size / 10, (peak, size)

    def test_deeply_nested_instance_is_input_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "solve", "-i", str(deep))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: instance")
        assert "Traceback" not in err


class TestMalformedEdges:
    """Each malformed edge ends in exit 2 and one stderr line, checked by Instance."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, 1], [0]], "each edge is a (u, v) pair, got [0]"),
            ([[0, 1], [0, 1, 2]], "each edge is a (u, v) pair, got [0, 1, 2]"),
            ([[0, 1], "ab"], "expected an integer, got 'a'"),
            ([[0, 1], 5], "each edge is a (u, v) pair, got 5"),
            ([[0, 1], None], "each edge is a (u, v) pair, got None"),
            ([[0, 1], [True, 1]], "expected an integer, got True"),
            ({}, "expected a list"),
        ],
        ids=["[0]", "[0,1,2]", "ab", "5", "null", "[true,1]", "edges={}"],
    )
    def test_exit_2_with_one_line(self, capsys, write_json, edges, message):
        data = {"kind": "general", "n": 3, "capacities": [1, 1, 1], "K": 1, "edges": edges}
        code, out, err = run(capsys, "solve", "-i", write_json("bad.json", data))
        assert (code, out) == (2, "")
        assert err == f"error: edges: {message}\n"


class TestVerify:
    @pytest.mark.parametrize(
        "text",
        [b"{", b'{"trees": "\xff"}', b'{"n": ' + b"9" * 5000 + b"}"],
        ids=["syntax", "encoding", "long-integer"],  # past the 4,300-digit limit
    )
    @pytest.mark.parametrize("broken", ["instance", "packing"])
    def test_unreadable_json_names_its_document(self, capsys, write_json, text, broken):
        paths = {
            "instance": write_json("c4.json", COMPLETE4),
            "packing": write_json("pack.json", {"trees": [{"edges": [[0, 1]]}, {"edges": []}]}),
        }
        Path(paths[broken]).write_bytes(text)
        code, out, err = run(capsys, "verify", "-i", paths["instance"], "-p", paths["packing"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {broken}: "), err

    def test_valid_files_build_no_parent_maps(self, capsys, write_json, monkeypatch):
        """A valid file is settled by the pass over its edge lists: the long route never runs."""

        def long_route(*args):
            raise AssertionError("a valid file took the parent-map route")

        monkeypatch.setattr(core, "packing_from_dict", long_route)
        monkeypatch.setattr(verifier, "verify_packing", long_route)
        rng = random.Random(29)
        complete = random_complete_instance(rng, max_n=300, max_k=8, cap_hi=4)
        tree = random_tree_instance(rng, max_n=300, max_k=8, cap_hi=4)
        for inst, packing in ((complete, solve_complete(complete)), (tree, solve_tree(tree)[1])):
            inst_path = write_json("inst.json", instance_to_dict(inst))
            pack_path = write_json("pack.json", packing_to_dict(packing))
            code, out, err = run(capsys, "verify", "-i", inst_path, "-p", pack_path)
            assert (code, out, err) == (0, '{"valid": true, "violations": []}\n', "packing is valid\n")

    def test_tampered_packing_fails(self, capsys, write_json, tmp_path):
        inst = write_json("c4.json", COMPLETE4)
        pack = str(tmp_path / "pack.json")
        code, _, _ = run(capsys, "solve", "-i", inst, "-o", pack)
        assert code == 0
        data = json.loads(Path(pack).read_text())
        data["trees"][0]["edges"].append([1, 0])  # gives the root a parent
        Path(pack).write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "-i", inst, "-p", pack)
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert report["violations"]
        assert "invalid" in err

    def test_edge_outside_graph_fails(self, capsys, write_json, tmp_path):
        inst = write_json("t3.json", TREE3)
        pack = str(tmp_path / "pack.json")
        pack_data = {"trees": [{"edges": [[0, 2]]}, {"edges": []}]}
        Path(pack).write_text(json.dumps(pack_data))
        code, out, _ = run(capsys, "verify", "-i", inst, "-p", pack)
        assert code == 1
        assert any(
            "not in the instance graph" in v["reason"]
            for v in json.loads(out)["violations"]
        )

    def test_tree_count_mismatch_is_input_error(self, capsys, write_json, tmp_path):
        inst = write_json("t3.json", TREE3)
        pack = str(tmp_path / "pack.json")
        Path(pack).write_text(json.dumps({"trees": [{"edges": []}]}))
        code, _, err = run(capsys, "verify", "-i", inst, "-p", pack)
        assert code == 2
        assert "error" in err

    def test_garbage_json_is_input_error(self, capsys, write_json, tmp_path):
        inst = write_json("t3.json", TREE3)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "verify", "-i", inst, "-p", str(bad))
        assert code == 2

    def test_non_list_tree_edges_is_input_error(self, capsys, write_json):
        inst = write_json("t3.json", TREE3)
        pack = write_json("pack.json", {"trees": [{"edges": 5}]})
        code, out, err = run(capsys, "verify", "-i", inst, "-p", pack)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "trees[0].edges" in err
        assert "Traceback" not in err

    def test_stated_objective_must_match_the_count(self, capsys, write_json):
        inst = write_json("t3.json", TREE3)
        trees = [{"edges": [[0, 1], [1, 2]]}, {"edges": []}]
        for stated, valid in ((4, True), (None, True), (99, False)):
            doc = {"trees": trees} if stated is None else {"trees": trees, "objective": stated}
            code, out, err = run(capsys, "verify", "-i", inst, "-p", write_json("pack.json", doc))
            assert code == (0 if valid else 1)
            if not valid:
                reason = "stated objective 99, counted 4"
                assert json.loads(out) == {
                    "valid": False,
                    "violations": [{"tree": None, "vertex": None, "reason": reason}],
                }
                assert err == "packing is invalid: 1 violation(s)\n"

    @pytest.mark.parametrize("stated", ["x", True, 4.0, None], ids=["str", "bool", "float", "null"])
    def test_stated_objective_that_is_no_integer_is_input_error(self, capsys, write_json, stated):
        inst = write_json("t3.json", TREE3)
        doc = {"trees": [{"edges": [[0, 1], [1, 2]]}, {"edges": []}], "objective": stated}
        code, out, err = run(capsys, "verify", "-i", inst, "-p", write_json("pack.json", doc))
        assert (code, out) == (2, "")
        assert err == f"error: objective: expected an integer, got {stated!r}\n"

    def test_deeply_nested_packing_is_input_error(self, capsys, write_json, tmp_path):
        inst = write_json("t3.json", TREE3)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "verify", "-i", inst, "-p", str(deep))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: packing")
        assert "Traceback" not in err


class TestOracle:
    def test_oracle_solves_small_instance(self, capsys, write_json):
        inst = write_json("c4.json", COMPLETE4)
        code, out, err = run(capsys, "oracle", "-i", inst)
        assert code == 0
        assert json.loads(out)["objective"] == 7
        assert "optimum 7" in err

    def test_output_file_matches_stdout(self, capsys, write_json, tmp_path):
        for name, inst_data in (("c4.json", COMPLETE4), ("t3.json", TREE3), ("g4.json", GENERAL4)):
            inst = write_json(name, inst_data)
            pack = tmp_path / f"{name}.pack"
            code, out, _ = run(capsys, "oracle", "-i", inst, "-o", str(pack))
            assert code == 0
            assert pack.read_bytes() == out.encode()

    def test_limit_exit_code(self, capsys, write_json):
        big = {"kind": "complete", "n": 12, "capacities": [1] * 12, "K": 1}
        inst = write_json("big.json", big)
        code, _, err = run(capsys, "oracle", "-i", inst)
        assert code == 3
        assert "exceeds" in err

    def test_search_deeper_than_the_recursion_limit_is_limit_error(self, capsys, write_json):
        n = 1200  # one search level per edge of the path
        path = {"kind": "tree", "n": n, "edges": [[v - 1, v] for v in range(1, n)]}
        inst = write_json("path.json", {**path, "capacities": [1] * n, "K": 1})
        code, out, err = run(capsys, "oracle", "-i", inst, "--max-n", "2000")
        assert (code, out) == (3, "")
        assert err == "error: n=1200: the search is deeper than the recursion limit\n"

    def test_limit_can_be_raised(self, capsys, write_json):
        big = {"kind": "complete", "n": 9, "capacities": [0] * 9, "K": 1}
        inst = write_json("big.json", big)
        code, out, _ = run(capsys, "oracle", "-i", inst, "--max-n", "9")
        assert code == 0
        assert json.loads(out)["objective"] == 1


class TestReduce:
    def test_example_reduction(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(EXAMPLE_DIMACS)
        inst_path = tmp_path / "gadget.json"
        labels_path = tmp_path / "gadget.labels.json"
        code, out, err = run(
            capsys,
            "reduce",
            "--cnf",
            str(cnf),
            "-o",
            str(inst_path),
            "--labels",
            str(labels_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary == {"num_vertices": 16, "num_edges": 21, "gamma": 12}
        assert "threshold 12" in err
        gadget = json.loads(inst_path.read_text())
        assert gadget["n"] == 16
        assert gadget["K"] == 1
        sidecar = json.loads(labels_path.read_text())
        assert sidecar["gamma"] == 12
        assert sidecar["labels"]["0"] == "root"

    def test_reduced_instance_loads_and_solves(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(EXAMPLE_DIMACS)
        inst_path = tmp_path / "gadget.json"
        code, _, _ = run(capsys, "reduce", "--cnf", str(cnf), "-o", str(inst_path))
        assert code == 0
        code, out, _ = run(
            capsys, "oracle", "-i", str(inst_path), "--max-n", "16", "--max-k", "1"
        )
        assert code == 0
        assert json.loads(out)["objective"] == 12

    def test_satlib_uf_file_reduces(self, capsys, tmp_path):
        cnf = tmp_path / "uf20-01.cnf"
        cnf.write_text(satlib_uf_text()[0])
        gadget = tmp_path / "gadget.json"
        code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "-o", str(gadget))
        assert code == 0, err
        assert json.loads(out)["gamma"] == 1 + 2 * 20 + 91
        assert json.loads(gadget.read_text())["n"] == 1 + 3 * 20 + 91

    def test_bad_cnf_is_input_error(self, capsys, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        code, _, err = run(capsys, "reduce", "--cnf", str(cnf), "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 3 abc\n1 2 3 0\n", "bad clause count 'abc'"),
            ("p cnf 3 5\n1 2 3 0\n", "header declares 5 clauses, found 1"),
        ],
    )
    def test_clause_count_off_the_header_is_input_error(self, capsys, tmp_path, text, message):
        cnf = tmp_path / "short.cnf"
        cnf.write_text(text)
        gadget = tmp_path / "gadget.json"
        code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "-o", str(gadget))
        assert (code, out, err) == (2, "", f"error: dimacs: {message}\n")
        assert not gadget.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 3 1\n1 2 3 0\np cnf 5 1\n", "second problem line 'p cnf 5 1'"),
            ("1 2 3 0\np cnf 3 1\n", "clause before the 'p cnf' problem line"),
        ],
        ids=["second-header", "clause-first"],
    )
    def test_header_out_of_place_is_input_error(self, capsys, tmp_path, text, message):
        cnf = tmp_path / "placed.cnf"
        cnf.write_text(text)
        gadget = tmp_path / "gadget.json"
        code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "-o", str(gadget))
        assert (code, out, err) == (2, "", f"error: dimacs: {message}\n")
        assert not gadget.exists()

    def test_header_past_vertex_limit_is_limit_error(self, capsys, tmp_path):
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 80000 1\n1 2 3 0\n")
        gadget = tmp_path / "gadget.json"
        code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "-o", str(gadget))
        assert code == 3
        assert out == ""
        assert err == "error: gadget of 240002 vertices exceeds the limit max_vertices=100000\n"
        assert not gadget.exists()


EXAMPLE_GADGET = (
    '{"kind": "general", "n": 16, "root": 0, "capacities": '
    "[4, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0], "
    '"K": 1, "edges": [[0, 1], [1, 5], [1, 6], [0, 2], [2, 7], [2, 8], [0, 3], [3, 9], '
    "[3, 10], [0, 4], [4, 11], [4, 12], [5, 13], [7, 13], [10, 13], [5, 14], [8, 14], "
    "[11, 14], [8, 15], [9, 15], [12, 15]]}\n"
)
EXAMPLE_LABELS = (
    '{"gamma": 12, "labels": {"0": "root", "1": "selector_1", "2": "selector_2", '
    '"3": "selector_3", "4": "selector_4", "5": "x1", "6": "not_x1", "7": "x2", '
    '"8": "not_x2", "9": "x3", "10": "not_x3", "11": "x4", "12": "not_x4", '
    '"13": "clause_1", "14": "clause_2", "15": "clause_3"}}\n'
)


class TestOutputFiles:
    """-o and --labels overwrite an existing file in place and trim it."""

    @staticmethod
    def longer_file(path: Path) -> str:
        path.write_text("x" * 5000 + "\n")
        return str(path)

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_overwrite_longer_file_equals_stdout(self, capsys, write_json, tmp_path, command):
        for name, inst_data in (("c4.json", COMPLETE4), ("t3.json", TREE3), ("g4.json", GENERAL4)):
            inst = write_json(name, inst_data)
            pack = self.longer_file(tmp_path / f"{name}.pack")
            code, out, _ = run(capsys, command, "-i", inst, "-o", pack)
            assert code == 0
            assert Path(pack).read_bytes() == out.encode()

    def test_reduce_overwrites_gadget_and_labels(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(EXAMPLE_DIMACS)
        gadget = self.longer_file(tmp_path / "gadget.json")
        labels = self.longer_file(tmp_path / "gadget.labels.json")
        code, _, _ = run(capsys, "reduce", "--cnf", str(cnf), "-o", gadget, "--labels", labels)
        assert code == 0
        assert Path(gadget).read_bytes() == EXAMPLE_GADGET.encode()
        assert Path(labels).read_bytes() == EXAMPLE_LABELS.encode()

    def test_reduce_refuses_one_file_for_gadget_and_labels(self, capsys, tmp_path, monkeypatch):
        """-o and --labels that resolve to one file: exit 2 with one error line, neither written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cnf").write_text(EXAMPLE_DIMACS)
        (tmp_path / "link.json").symlink_to("g.json")
        for gadget, labels in (("g.json", "g.json"), ("g.json", "./g.json"), ("link.json", "g.json")):
            code, out, err = run(capsys, "reduce", "--cnf", "f.cnf", "-o", gadget, "--labels", labels)
            assert (code, out, err) == (2, "", f"error: -o and --labels name the same file: {labels}\n")
            assert not (tmp_path / "g.json").exists()
        (tmp_path / "g.json").write_text("old\n")
        os.link(tmp_path / "g.json", tmp_path / "h.json")
        code, out, err = run(capsys, "reduce", "--cnf", "f.cnf", "-o", "g.json", "--labels", "h.json")
        assert (code, out, err) == (2, "", "error: -o and --labels name the same file: h.json\n")
        assert (tmp_path / "g.json").read_text() == "old\n"

    @pytest.mark.parametrize(
        "gadget, labels, old, error",
        [
            ("g.json", "adir", "g.json", "[Errno 21] Is a directory: 'adir'"),
            ("g.json", "adir", None, "[Errno 21] Is a directory: 'adir'"),
            ("adir", "labels.json", None, "[Errno 21] Is a directory: 'adir'"),
            ("/dev/full", "labels.json", None, "[Errno 28] No space left on device"),
            ("/dev/full", "labels.json", "labels.json", "[Errno 28] No space left on device"),
        ],
    )
    def test_reduce_leaves_its_outputs_as_they_were_if_one_fails(
        self, capsys, tmp_path, monkeypatch, gadget, labels, old, error
    ):
        """A failed open, or a failed write of the gadget, leaves an old output as it was and no new one."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cnf").write_text(EXAMPLE_DIMACS)
        (tmp_path / "adir").mkdir()
        if old is not None:
            (tmp_path / old).write_text("old\n")
        code, out, err = run(capsys, "reduce", "--cnf", "f.cnf", "-o", gadget, "--labels", labels)
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["adir", "f.cnf", *[old] * (old is not None)])
        if old is not None:
            assert (tmp_path / old).read_text() == "old\n"
        assert not any((tmp_path / "adir").iterdir())

    def test_dev_null(self, capsys, write_json):
        inst = write_json("c4.json", COMPLETE4)
        _, plain, _ = run(capsys, "solve", "-i", inst)
        code, out, _ = run(capsys, "solve", "-i", inst, "-o", os.devnull)
        assert code == 0
        assert out == plain

    def test_symlink_is_written_through(self, capsys, write_json, tmp_path):
        inst = write_json("c4.json", COMPLETE4)
        target = self.longer_file(tmp_path / "target.json")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, out, _ = run(capsys, "solve", "-i", inst, "-o", str(link))
        assert code == 0
        assert link.is_symlink()
        assert Path(target).read_bytes() == out.encode()

    def test_directory_is_input_error(self, capsys, write_json, tmp_path):
        inst = write_json("c4.json", COMPLETE4)
        code, _, err = run(capsys, "solve", "-i", inst, "-o", str(tmp_path))
        assert code == 2
        lines = err.splitlines()  # the solve summary, then the error
        assert len(lines) == 2 and lines[1].startswith("error: ")
        assert "Traceback" not in err
        cnf = tmp_path / "f.cnf"
        cnf.write_text(EXAMPLE_DIMACS)
        code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_unwritable_output_fails_before_stdout(self, capsys, write_json, tmp_path, command):
        """-o is opened before the first chunk: a path that cannot be opened leaves stdout empty."""
        for name, inst_data in (("c4.json", COMPLETE4), ("t3.json", TREE3), ("g4.json", GENERAL4)):
            inst = write_json(name, inst_data)
            missing_dir = str(tmp_path / "no-dir" / "p.json")
            code, out, err = run(capsys, command, "-i", inst, "-o", missing_dir)
            assert (code, out) == (2, "")
            assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize(
        "command, option",
        [("solve", "-o"), ("oracle", "-o"), ("reduce", "-o"), ("reduce", "--labels")],
    )
    def test_empty_path_is_input_error(self, capsys, write_json, tmp_path, command, option):
        """An empty path names no file: exit 2 with one error line, like any other unwritable path."""
        if command == "reduce":
            cnf = tmp_path / "f.cnf"
            cnf.write_text(EXAMPLE_DIMACS)
            argv = ["reduce", "--cnf", str(cnf), "-o", str(tmp_path / "gadget.json"), option, ""]
        else:
            argv = [command, "-i", write_json("g4.json", GENERAL4), option, ""]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [err.splitlines()[-1]]
        assert "Traceback" not in err

    def test_rerun_into_same_path(self, write_json, tmp_path):
        inst = write_json("c4.json", COMPLETE4)
        pack = tmp_path / "pack.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "treepack.cli", "solve", "-i", inst, "-o", str(pack)],
                env=env,
                capture_output=True,
                check=True,
            )
            assert pack.read_bytes() == proc.stdout


def test_startup_imports_no_dataclasses(tmp_path):
    """No command pulls in dataclasses' heavy dependencies, argparse or typing.

    -S keeps site's .pth imports out, so only treepack's own imports count.
    Each command runs in one process, with --help and a usage error.
    """
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    heavy += ("argparse", "gettext", "locale", "typing")
    for name, data in (("c4.json", COMPLETE4), ("t3.json", TREE3), ("g4.json", GENERAL4)):
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "f.cnf").write_text(EXAMPLE_DIMACS)
    argvs = [
        ["solve", "-i", "c4.json", "-o", "p.json"],
        ["solve", "-i", "t3.json"],
        ["solve", "-i", "g4.json"],
        ["verify", "-i", "c4.json", "-p", "p.json"],
        ["oracle", "-i", "c4.json"],
        ["reduce", "--cnf", "f.cnf", "-o", "gadget.json"],
        ["--help"],
        ["solve", "--help"],
        ["solve", "--alg", "nope"],
    ]
    code = (
        "import sys\nfrom treepack.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    try:\n        assert main(argv) == 0\n    except SystemExit:\n        pass\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.fixture
def collector():
    """Set the collector's state for a test; put the runner's back afterwards."""
    was = gc.isenabled()

    def _set(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield _set
    _set(was)


class TestGarbageCollector:
    """main pauses the cyclic collector per command and restores the caller's state."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_inside_command(self, capsys, write_json, monkeypatch, collector, enabled):
        seen = []
        real = cli.complete_text

        def spy(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(cli, "complete_text", spy)
        collector(enabled)
        inst = write_json("c4.json", COMPLETE4)
        code, _, _ = run(capsys, "solve", "-i", inst)
        assert code == 0
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("want", [0, 1, 2, 3])
    def test_state_restored_on_every_exit(
        self, capsys, write_json, tmp_path, collector, enabled, want
    ):
        inst = write_json("c4.json", COMPLETE4)
        if want == 0:
            argv = ["solve", "-i", inst]
        elif want == 1:
            pack = write_json("pack.json", {"trees": [{"edges": [[0, 1]]}, {"edges": [[5, 1]]}]})
            argv = ["verify", "-i", inst, "-p", pack]
        elif want == 2:
            argv = ["solve", "-i", str(tmp_path / "missing.json")]
        else:
            argv = ["oracle", "-i", inst, "--max-n", "3"]
        collector(enabled)
        frozen = gc.get_freeze_count()
        code, _, _ = run(capsys, *argv)
        assert code == want
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_when_command_raises(self, write_json, monkeypatch, collector, enabled):
        def boom(*args):
            raise RuntimeError("solver fault")

        monkeypatch.setattr(cli, "complete_text", boom)
        collector(enabled)
        with pytest.raises(RuntimeError):
            main(["solve", "-i", write_json("c4.json", COMPLETE4)])
        assert gc.isenabled() is enabled
