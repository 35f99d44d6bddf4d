"""Smoke tests of tools/mutants.py: a tiny checkout's one planted survivor is named, or explained by its list.

A list entry whose line is gone from its file is refused before any test runs.
A mutant that loops is stopped at the timeout of the test file it loops
in, not at one taken from the whole suite.

Also the default test order on this checkout: the module's own test file leads.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
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


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL[1])
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def tiny_checkout(root: Path) -> None:
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "src" / "tiny.py").write_text(MODULE)
    (root / "tests" / "test_tiny.py").write_text(TEST)


def test_the_planted_survivor_is_named(tmp_path):
    tiny_checkout(tmp_path)
    done = run(str(tmp_path / "src" / "tiny.py"))
    assert (done.returncode, done.stderr) == (0, ""), done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        "src/tiny.py:6: 0 -> 1",
        "4 mutants, 3 killed, 1 survived (0 known equivalent, 1 unexplained)",
    ]
    assert (tmp_path / "src" / "tiny.py").read_text() == MODULE
    # Listed by its line's text, the survivor is known wherever that line moves.
    (tmp_path / "src" / "tiny.py").write_text("# one line more\n" + MODULE)
    (tmp_path / "tools").mkdir()
    listed = [{"file": "src/tiny.py", "line": "if x == 0:", "swap": "0 -> 1", "reason": "label(0) is never called"}]
    (tmp_path / "tools" / "equivalent_mutants.json").write_text(json.dumps(listed))
    done = run(str(tmp_path / "src" / "tiny.py"))
    assert (done.returncode, done.stderr) == (0, ""), done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        "src/tiny.py:7: 0 -> 1 (known equivalent)",
        "4 mutants, 3 killed, 1 survived (1 known equivalent, 0 unexplained)",
    ]


def test_failing_tests_and_usage_errors_exit_2(tmp_path, tmp_path_factory):
    tiny_checkout(tmp_path)
    (tmp_path / "tests" / "test_tiny.py").write_text(TEST.replace("== 2", "== 3"))
    done = run(str(tmp_path / "src" / "tiny.py"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: the tests fail on the unmutated code\n"
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "equivalent_mutants.json").write_text('[{"file": "src/tiny.py"}]')
    done = run(str(tmp_path / "src" / "tiny.py"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: tools/equivalent_mutants.json: not a list of file, line and swap entries")
    # An entry whose line is gone from its file is stale, and so is one whose file is gone.
    listed = [
        {"file": "src/tiny.py", "line": "if x == 0:", "swap": "0 -> 1", "reason": "still there"},
        {"file": "src/tiny.py", "line": "if x <= 0:", "swap": "0 -> 1", "reason": "edited away"},
        {"file": "src/gone.py", "line": "if x == 0:", "swap": "0 -> 1", "reason": "file deleted"},
    ]
    (tmp_path / "tools" / "equivalent_mutants.json").write_text(json.dumps(listed))
    done = run(str(tmp_path / "src" / "tiny.py"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: tools/equivalent_mutants.json: line not in its file: src/gone.py: 'if x == 0:', src/tiny.py: 'if x <= 0:'\n"
    )
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


# Four sites: ">", its 0, "-=" and its 1.  Three mutants return the
# wrong count; "x += 1" never returns.
LOOP = '''def count_down(x):
    while x > 0:
        x -= 1
    return x
'''
LOOP_TEST = '''from loop import count_down


def test_count_down():
    assert count_down(3) == 0
'''
SLOW_TEST = '''import time


def test_slow():
    time.sleep(2)
'''


def test_a_looping_mutant_stops_at_its_own_files_timeout(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "loop.py").write_text(LOOP)
    (tmp_path / "tests" / "test_loop.py").write_text(LOOP_TEST)
    (tmp_path / "tests" / "test_slow.py").write_text(SLOW_TEST)
    start = time.perf_counter()
    done = run(str(tmp_path / "src" / "loop.py"))
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (0, ""), done.stdout + done.stderr
    assert done.stdout.splitlines() == ["4 mutants, 4 killed, 0 survived (0 known equivalent, 0 unexplained)"]
    # Ten times the whole suite, over 2 s, would hold the loop alone for 20 s.
    assert elapsed < 20, elapsed


def test_the_modules_own_tests_run_first_then_those_naming_it():
    tests = load_tool().default_tests(ROOT, ROOT / "src" / "treepack" / "oracle.py")
    assert tests[0] == "tests/test_oracle.py"
    naming = [t for t in tests if "oracle" in (ROOT / t).read_text(encoding="utf-8")]
    assert tests[: len(naming)] == naming  # every file naming the module before any other
    every = {f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py")}
    assert sorted(tests) == sorted(every - {"tests/test_bench_harness.py"})
