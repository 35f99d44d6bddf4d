"""Count the code lines of Python source files.

Usage:
    python3 tools/code_lines.py PATH [PATH ...]

A code line holds a token that is not a comment and is not part of a
module, class or function docstring; blank lines, comment lines and
docstring lines are not code.  A token that spans lines (a multi-line
string) makes each of its lines code.  Tokens come from ``tokenize``
and docstrings from ``ast``.  Each PATH is a .py file or a directory
searched for them.  Prints one row per file, its code lines then its
path, and the total last.  ``-h`` or ``--help`` prints the usage line.
A path that cannot be read or a file that does not parse prints one
``error:`` line to stderr, and no rows, and exits 2.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
USAGE = "usage: python3 tools/code_lines.py PATH [PATH ...]"


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    """How many of path's lines are code."""
    source = path.read_bytes()
    docs = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE and tok.start not in docs:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for name in paths:
        path = Path(name)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    if any(arg in ("-h", "--help") for arg in argv):
        print(USAGE)
        return 0
    if not argv:
        print(USAGE, file=sys.stderr)
        return 2
    rows = []
    for path in python_files(argv):
        try:
            rows.append((code_lines(path), path))
        except OSError as exc:
            return error(f"{path}: {exc.strerror}")
        except SyntaxError as exc:
            where = f", line {exc.lineno}" if exc.lineno else ""
            return error(f"{path}{where}: {exc.msg}")
        except ValueError as exc:  # a null byte, before Python 3.12
            return error(f"{path}: {exc}")
    for count, path in rows:
        print(f"{count:6} {path}")
    print(f"{sum(count for count, _ in rows):6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
