"""Smoke tests of tools/scope.py: a small run agrees everywhere, a wrong solver is named."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "scope.py"


def test_max_n_3_counts_both_families():
    done = subprocess.run([sys.executable, str(TOOL), "--max-n", "3"], capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == "", done.stdout + done.stderr
    lines = done.stdout.splitlines()
    # Trees n <= 3: 3 + 18 + 2 * 27 * 3; complete n <= 2 with every root: 3 + 2 * 3 * 3 * 2.
    assert len(lines) == 2
    assert re.fullmatch(r"tree: 183 instances in \d+\.\d s", lines[0]), lines
    assert re.fullmatch(r"complete: 39 instances in \d+\.\d s", lines[1]), lines


def test_a_wrong_value_exits_1_naming_the_instance(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("scope_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    solve_tree = tool.solve_tree

    def off_by_one(inst):
        value, packing = solve_tree(inst)
        return value + (inst.n == 3), packing

    monkeypatch.setattr(tool, "solve_tree", off_by_one)
    assert tool.main(["--max-n", "3"]) == 1
    inst = "Instance(kind='tree', n=3, capacities=(0, 0, 0), num_trees=1, root=0, edges=((0, 1), (0, 2)))"
    assert capsys.readouterr().out == f"tree: disagreement on {inst}: value 2, oracle 1\n"
