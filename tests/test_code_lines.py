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
