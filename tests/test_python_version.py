"""The package's sources stay Python 3.10 syntax, as pyproject.toml's requires-python says.

The suite runs on a newer interpreter, which would accept 3.11-only syntax
such as ``except*``; parsing with feature_version=(3, 10) rejects it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treepack"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_guard_rejects_exception_groups():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
