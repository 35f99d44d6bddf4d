"""Smoke tests of tools/mutants.py: a tiny checkout's one planted survivor is named."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(ROOT / "tools" / "mutants.py")]

# Four sites: "+", the 1 after it, "==" and the 0 after it.  The test
# never calls label(0), so only the 0 -> 1 mutant survives.
MODULE = '''def step(x):
    return x + 1


def label(x):
    if x == 0:
        return "zero"
    return "other"
'''
TEST = '''from tiny import label, step


def test_tiny():
    assert step(1) == 2
    assert label(5) == "other"
'''


def run(*args: str) -> subprocess.CompletedProcess:
    # The tiny test needs no Hypothesis, whose plugin takes most of a run's start-up.
    env = dict(os.environ, PYTEST_ADDOPTS="-p no:hypothesispytest")
    return subprocess.run([*TOOL, *args], capture_output=True, text=True, env=env)


def tiny_checkout(root: Path) -> None:
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "src" / "tiny.py").write_text(MODULE)
    (root / "tests" / "test_tiny.py").write_text(TEST)


def test_the_planted_survivor_is_named(tmp_path):
    tiny_checkout(tmp_path)
    done = run(str(tmp_path / "src" / "tiny.py"))
    assert (done.returncode, done.stderr) == (0, ""), done.stdout + done.stderr
    assert done.stdout.splitlines() == ["src/tiny.py:6: 0 -> 1", "4 mutants, 3 killed, 1 survived"]
    assert (tmp_path / "src" / "tiny.py").read_text() == MODULE


def test_failing_tests_and_usage_errors_exit_2(tmp_path, tmp_path_factory):
    tiny_checkout(tmp_path)
    (tmp_path / "tests" / "test_tiny.py").write_text(TEST.replace("== 2", "== 3"))
    done = run(str(tmp_path / "src" / "tiny.py"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: the tests fail on the unmutated code\n"
    lone = tmp_path_factory.mktemp("lone") / "x.py"  # no tests/ directory above it
    lone.write_text(MODULE)
    done = run(str(lone))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {lone}: not a file of a checkout with a tests/ directory\n"
    for args in ([], ["--bogus", "x.py"], [str(ROOT / "README.md")]):
        done = run(*args)
        assert done.returncode == 2 and done.stdout == "", args
        assert done.stderr.count("\n") == 1, args
    done = run("--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: python3 tools/mutants.py ")
