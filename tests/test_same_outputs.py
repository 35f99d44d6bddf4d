"""Smoke tests of tools/same_outputs.py on the tree-hubs workload, one seed."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(ROOT / "tools" / "same_outputs.py")]


def compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    argv = [str(old), str(new), "--seeds", "1", "--workloads", "tree-hubs"]
    return subprocess.run([*TOOL, *argv], capture_output=True, text=True, timeout=300)


def test_same_tree_on_both_sides_reports_no_difference():
    done = compare(ROOT, ROOT / "src")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "6 calls compared, 0 differ\n"


def test_a_changed_summary_line_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "treepack", tmp_path / "treepack", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "treepack" / "cli.py"
    cli.write_text(cli.read_text().replace('_note("packing is valid")', '_note("packing is fine")'))
    done = compare(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "6 calls compared, 3 differ"
    assert all("(verify " in line and line.endswith(": stderr differ") for line in lines[:-1])
