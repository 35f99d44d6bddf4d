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
but test_bench_harness.py: the module's own tests/test_<stem>.py first,
then the other files that name the module, then the rest, each group in
name order, so the tests most likely to kill a mutant run first.  The
children write no bytecode, so no mutant can load another's, and each
may use at most 2 GiB of address space.  The first TEST file runs on
its own, then the rest, if any pass it; each part is timed on the
unmutated code.  A mutant is killed when pytest fails or a part runs
ten times as long as it took on the unmutated code (at least 5 s), so
a mutant that loops in the first file's tests stops in seconds, not
after ten times the whole suite; it survives when both parts pass.

DIR/tools/equivalent_mutants.json, if there is one, lists the mutants
known to be equivalent: each entry names the module (``file``, relative
to DIR), the mutated line's text without its indentation (``line``), the
swap (``swap``, as ``original -> mutant``) and why no test can tell it
from the original (``reason``).  Keyed by text, not line number, an
entry stays valid while edits elsewhere move its line; it covers every
site on that line with that swap.

Prints each survivor as ``FILE:LINE: original -> mutant``, with
`` (known equivalent)`` after a listed one, then ``N mutants, K killed,
S survived (E known equivalent, U unexplained)``, and exits 0.  A usage
error, a module outside DIR or one that does not parse, an unreadable
list, or tests that fail on the unmutated code print one ``error:`` line
to stderr and exit 2; so does a MODULE with no tests/ directory above
it, and so does a list with an entry whose ``line`` no longer occurs in
its ``file``: such an entry explains nothing, and the mutant it was
written for may be gone or may now survive unexplained.  The list is
checked before any test runs.
"""

from __future__ import annotations

import ast
import io
import json
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
MIN_TIMEOUT = 5.0  # seconds; ten times a part's unmutated time, but never less
EQUIVALENTS = Path("tools") / "equivalent_mutants.json"


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
    """Every tests/test_*.py but the benchmark harness's: the module's own first, then those naming it."""
    files = [p for p in sorted((root / "tests").glob("test_*.py")) if p.name != "test_bench_harness.py"]
    own = f"test_{module.stem}.py"
    files.sort(key=lambda p: (p.name != own, module.stem not in p.read_text(encoding="utf-8")))
    return [str(p.relative_to(root)) for p in files]


def equivalents(root: Path) -> set[tuple[str, str, str]]:
    """The (file, line text, swap) keys of root's known-equivalent mutants; none without a list."""
    path = root / EQUIVALENTS
    if not path.is_file():
        return set()
    return {(entry["file"], entry["line"], entry["swap"]) for entry in json.loads(path.read_text(encoding="utf-8"))}


def stale(root: Path, known: set[tuple[str, str, str]]) -> list[str]:
    """Each listed ``FILE: LINE`` whose file under root no longer holds that line's text."""

    def lines(file: str) -> set[str]:
        path = root / file
        return {text.strip() for text in path.read_text(encoding="utf-8").splitlines()} if path.is_file() else set()

    held = {file: lines(file) for file, _, _ in known}
    return sorted({f"{file}: {line!r}" for file, line, _ in known if line not in held[file]})


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
    try:
        known = equivalents(root)
    except (ValueError, KeyError, TypeError) as exc:
        return error(f"{EQUIVALENTS}: not a list of file, line and swap entries ({exc!r})")
    gone = stale(root, known)
    if gone:
        return error(f"{EQUIVALENTS}: line not in its file: {', '.join(gone)}")
    tests = argv[1:] or default_tests(root, module)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        checkout = Path(scratch) / "checkout"
        shutil.copytree(root, checkout, ignore=ignore)
        parts = [tests[:1], tests[1:]] if tests[1:] else [tests]
        timeouts = []
        for part in parts:
            start = time.perf_counter()
            if not passes(checkout, part, None):
                return error("the tests fail on the unmutated code")
            timeouts.append(max(MIN_TIMEOUT, 10 * (time.perf_counter() - start)))
        target, survivors, lines = checkout / relative, [], source.splitlines()
        for site in found:
            target.write_text(mutate(source, site), encoding="utf-8")
            if all(passes(checkout, part, timeout) for part, timeout in zip(parts, timeouts)):
                swap = f"{site[3]} -> {site[4]}"
                listed = (relative.as_posix(), lines[site[0] - 1].strip(), swap) in known
                survivors.append(listed)
                print(f"{relative}:{site[0]}: {swap}{' (known equivalent)' if listed else ''}", flush=True)
    explained = sum(survivors)
    print(
        f"{len(found)} mutants, {len(found) - len(survivors)} killed, {len(survivors)} survived"
        f" ({explained} known equivalent, {len(survivors) - explained} unexplained)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
