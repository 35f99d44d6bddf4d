"""Smoke tests of tools/code_lines.py: what counts as a code line, and the total row."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(ROOT / "tools" / "code_lines.py")]


def rows(*paths: Path) -> list[tuple[int, str]]:
    done = subprocess.run([*TOOL, *map(str, paths)], capture_output=True, text=True, check=True)
    split = (line.split(None, 1) for line in done.stdout.splitlines())
    return [(int(count), name) for count, name in split]


SOURCE = [
    '"""A module',
    "",
    'docstring."""',
    "# a comment",
    "x = (1 +",  # code
    "     2)  # one statement on two lines",  # code
    "",
    "def f():",  # code
    '    """Its docstring."""',
    '    return """a string,',  # code
    '    not a docstring"""',  # code
]


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text("\n".join(SOURCE) + "\n")
    assert rows(path) == [(5, str(path)), (5, "total")]


def test_two_statements_count_two(tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text('"""Docstring."""\n\n# a comment\nx = 1\ny = x\n')
    assert rows(path) == [(2, str(path)), (2, "total")]


def test_total_is_the_sum_of_the_rows():
    *files, (total, name) = rows(ROOT / "src" / "treepack")
    assert name == "total" and len(files) >= 9
    assert total == sum(count for count, _ in files)


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*TOOL, *args], capture_output=True, text=True)


def test_help_prints_the_usage_line():
    for flag in ("-h", "--help"):
        done = run(flag)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == "usage: python3 tools/code_lines.py PATH [PATH ...]\n"


def test_a_missing_path_is_one_error_line(tmp_path):
    missing = tmp_path / "missing.py"
    done = run(str(missing))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {missing}: No such file or directory\n"


def test_a_file_that_does_not_parse_is_one_error_line(tmp_path):
    good, bad = tmp_path / "good.py", tmp_path / "bad.py"
    good.write_text("x = 1\n")
    bad.write_text("x = 1\ny = (\n")
    done = run(str(good), str(bad))
    assert done.returncode == 2 and done.stdout == ""  # no rows before the error either
    assert done.stderr == f"error: {bad}, line 2: '(' was never closed\n"
