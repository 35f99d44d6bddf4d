"""Mutation run: which small changes to one module do the tests miss?

Usage:
    python3 tools/mutants.py MODULE [TEST ...]

MODULE is a .py file of a checkout, such as src/treepack/reduction.py;
the checkout DIR is the nearest directory above MODULE that holds a
tests/ directory.  One mutant is
made per site, from the module's ``ast`` and ``tokenize`` positions:
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=`` swapped, ``+`` and
``-`` swapped (``+=`` and ``-=`` too), and 1 added to an integer
constant.  Code inside f-strings is left alone.

DIR is copied once into a temporary directory, and each mutant is
written over the module there, so the checkout's own sources never
change; running in place would not do, since pyproject's
``pythonpath = ["src"]`` puts the checkout's unmutated package first on
sys.path.  Each mutant runs ``python -m pytest -x -q -p no:cacheprovider``
on the TEST files, relative to DIR; the default is every tests/test_*.py
but test_bench_harness.py, those that name the module first.  The
children write no bytecode, so no mutant can load another's, and each
may use at most 2 GiB of address space.  A mutant is killed when pytest
fails or runs ten times as long as the tests took on the unmutated
code (at least 10 s); it survives when the tests pass.

Prints each survivor as ``FILE:LINE: original -> mutant``, then
``N mutants, K killed, S survived``, and exits 0.  A usage error, a
module outside DIR or one that does not parse, or tests that fail on the
unmutated code print one ``error:`` line to stderr and exit 2; so does
a MODULE with no tests/ directory above it.
"""

from __future__ import annotations

import ast
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

USAGE = "usage: python3 tools/mutants.py MODULE [TEST ...]"
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
SWAPS.update({"+": "-", "-": "+", "+=": "-=", "-=": "+="})
OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
OPS.update({ast.Add: "+", ast.Sub: "-"})
MEMORY = 2 << 30  # bytes of address space per pytest child


def sites(source: str) -> list[tuple[int, int, int, str, str]]:
    """Each mutation site of source: (line, start, end, original, mutant), columns in characters."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    ops = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type == tokenize.OP]

    def at(line: int, byte_col: int) -> tuple[int, int]:  # ast columns count UTF-8 bytes
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    def between(left: ast.AST, right: ast.AST, text: str) -> list[tuple]:
        lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        for tok in ops:
            if tok.string == text and lo <= tok.start and tok.end <= hi:
                return [(*tok.start, tok.end[1], text, SWAPS[text])]
        return []

    skipped = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in OPS:
                    found += between(operands[i], operands[i + 1], OPS[type(op)])
        elif isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
            found += between(node.left, node.right, OPS[type(node.op)])
        elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
            found += between(node.target, node.value, OPS[type(node.op)] + "=")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            line, start = at(node.lineno, node.col_offset)
            end = at(node.end_lineno, node.end_col_offset)[1]
            found.append((line, start, end, lines[line - 1][start:end], str(node.value + 1)))
    return sorted(set(found))


def mutate(source: str, site: tuple[int, int, int, str, str]) -> str:
    """source with one site's text replaced by its mutant."""
    line, start, end, _, mutant = site
    lines = source.splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:start] + mutant + lines[line - 1][end:]
    return "".join(lines)


def default_tests(root: Path, module: Path) -> list[str]:
    """Every tests/test_*.py but the benchmark harness's, those naming the module first."""
    files = [p for p in sorted((root / "tests").glob("test_*.py")) if p.name != "test_bench_harness.py"]
    files.sort(key=lambda p: module.stem not in p.read_text(encoding="utf-8"))
    return [str(p.relative_to(root)) for p in files]


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def passes(checkout: Path, tests: list[str], timeout: float | None) -> bool:
    """Do the tests pass in checkout? A run past the timeout does not."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            command, cwd=checkout, env=env, capture_output=True, timeout=timeout, preexec_fn=limit_memory
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    if any(arg in ("-h", "--help") for arg in argv):
        print(USAGE)
        return 0
    if not argv or argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    module = Path(argv[0]).resolve()
    roots = [p for p in module.parents if (p / "tests").is_dir()]
    if not module.is_file() or not roots:
        return error(f"{argv[0]}: not a file of a checkout with a tests/ directory")
    root = roots[0]
    relative = module.relative_to(root)
    try:
        source = module.read_text(encoding="utf-8")
        found = sites(source)
    except (SyntaxError, ValueError) as exc:
        return error(f"{argv[0]}: {exc}")
    tests = argv[1:] or default_tests(root, module)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        checkout = Path(scratch) / "checkout"
        shutil.copytree(root, checkout, ignore=ignore)
        start = time.perf_counter()
        if not passes(checkout, tests, None):
            return error("the tests fail on the unmutated code")
        timeout = max(10.0, 10 * (time.perf_counter() - start))
        target, survivors = checkout / relative, []
        for site in found:
            target.write_text(mutate(source, site), encoding="utf-8")
            if passes(checkout, tests, timeout):
                survivors.append(site)
                print(f"{relative}:{site[0]}: {site[3]} -> {site[4]}", flush=True)
    print(f"{len(found)} mutants, {len(found) - len(survivors)} killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
