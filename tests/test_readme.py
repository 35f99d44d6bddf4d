"""README's Library example runs and its CLI examples parse, so an API change cannot leave them stale."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from helpers import assignment_satisfies
from treepack import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert blocks, "README's Library section has no python block"
    return blocks[0]


def test_library_example_runs_and_its_comments_hold():
    scope: dict = {"__name__": "readme_library_example"}
    exec(compile(library_example(), f"{README.name}: Library", "exec"), scope)
    assert scope["value"] == 4
    assert scope["children"] == [[1], [2], ()]
    assert scope["excess"] == {0: [2], 1: [1], 2: []}
    assert scope["gadget"].instance.n == 16 and scope["gadget"].gamma == 12
    assert scope["best"] == 12
    assert scope["vertex"]["x2"] == 7
    assert assignment_satisfies(scope["sat"], scope["assignment"])


def test_cli_examples_parse():
    """Every `treepack ...` line in README's shell blocks is a valid call."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    calls = [shlex.split(line)[1:] for line in lines if line.startswith("treepack ")]
    assert len(calls) >= 5
    for argv in calls:
        assert cli.parse_args(argv).command == argv[0], argv
