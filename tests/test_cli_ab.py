"""Smoke test of tools/cli_ab.py: two rounds of a tiny solve against the same tree twice."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from test_cli import COMPLETE4

ROOT = Path(__file__).resolve().parents[1]
CELL = r"{} [\d.]+ \[[\d.]+, [\d.]+\]"
ROW = "(old|new)  " + "  ".join(CELL.format(name) for name in ("wall_ms", "minflt", "maxrss_mb"))


def cli_ab(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(ROOT / "tools" / "cli_ab.py"), *argv]
    return subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_two_rounds_report_both_sides(tmp_path):
    (tmp_path / "c4.json").write_text(json.dumps(COMPLETE4))
    argv = ["--rounds", "2", "--", "solve", "-i", "c4.json", "-o", "p.json"]
    done = cli_ab(tmp_path, str(ROOT), str(ROOT / "src"), *argv)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    assert all(re.fullmatch(ROW, line) for line in lines[:2]), lines
    assert re.fullmatch("new faster in [012] of 2 rounds", lines[2]), lines
    assert lines[3] == "2 rounds, 0 failed calls"
    assert json.loads((tmp_path / "p.json").read_text())["objective"] == 7


def test_a_failing_call_exits_1(tmp_path):
    argv = ["--rounds", "2", "--", "solve", "-i", "missing.json"]
    done = cli_ab(tmp_path, str(ROOT), str(ROOT), *argv)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == "2 rounds, 4 failed calls"
