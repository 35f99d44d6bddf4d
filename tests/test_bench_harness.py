"""Smoke tests of the benchmark harness: a short traced run of each workload.

The harness times layers by swapping module attributes of treepack (see
perfbench/tracing.py), so a rename in the library can break it without
any library test noticing.  The bulk run also sends complete packings of
up to 32,000 vertices through the CLI and the harness's independent
checker.  Each run works in a copy of the checkout, so it writes nothing
into the source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(tmp_path, workload: str) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_traced_general_mix_run(tmp_path):
    _traced_run(tmp_path, "general-mix")


def test_traced_bulk_run(tmp_path):
    """Complete packings of up to 32,000 vertices through the CLI and the harness's own checker."""
    _traced_run(tmp_path, "bulk")


def test_traced_tree_hubs_run(tmp_path):
    _traced_run(tmp_path, "tree-hubs")
