"""treepack is pure standard library: every import in the package is relative or stdlib.

pyproject.toml declares `dependencies = []`; this keeps the code to it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treepack"


def outside_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one module that are not stdlib."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_every_import_is_relative_or_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 7
    found = {path.name: outside_imports(path) for path in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}
