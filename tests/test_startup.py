"""Start-up and exit of the CLI: lazy imports, the package API, the exit path."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import treepack
from helpers import EXAMPLE_DIMACS
from test_cli import COMPLETE4, GENERAL4, TREE3
from treepack.cli import main

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("complete_solver", "core", "oracle", "reduction", "tree_solver")

PUBLIC_NAMES = [
    "KIND_COMPLETE",
    "KIND_GENERAL",
    "KIND_TREE",
    "Instance",
    "Packing",
    "ReductionOutput",
    "RootedTree",
    "SatInstance",
    "SearchLimitExceeded",
    "VerificationReport",
    "Violation",
    "attach_stage",
    "brute_force_solve",
    "build_stage_paths",
    "extract_assignment",
    "greedy_general",
    "instance_from_dict",
    "instance_to_dict",
    "load_dimacs",
    "load_instance",
    "load_packing",
    "objective",
    "optimal_objective",
    "packing_from_dict",
    "packing_to_dict",
    "parse_dimacs",
    "reduce_3sat",
    "save_instance",
    "save_packing",
    "solve_complete",
    "solve_mckp",
    "solve_tree",
    "stripe_values",
    "verify_packing",
]

FILES = {
    "c4.json": COMPLETE4,
    "t3.json": TREE3,
    "g4.json": GENERAL4,
    "good.json": {"trees": [{"edges": [[0, 1]]}, {"edges": [[0, 2]]}]},
    "bad.json": {"trees": [{"edges": [[0, 1]]}, {"edges": [[5, 1]]}]},
}


@pytest.fixture
def fixtures(tmp_path, monkeypatch):
    """Write the fixture files and work in their directory, so argv stays relative."""
    for name, data in FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "f.cnf").write_text(EXAMPLE_DIMACS)
    monkeypatch.chdir(tmp_path)
    # argparse wraps help to the terminal width; fix it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.startswith('treepack'))))"


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["verify", "-i", "c4.json", "-p", "good.json"], []),
        (["solve", "-i", "c4.json"], ["complete_solver"]),
        (["solve", "-i", "t3.json"], ["tree_solver"]),
        (["solve", "-i", "g4.json"], ["oracle"]),
        (["oracle", "-i", "g4.json"], ["oracle"]),
        (["reduce", "--cnf", "f.cnf", "-o", "gadget.json"], ["reduction"]),
    ],
    ids=["verify", "solve-complete", "solve-tree", "solve-general", "oracle", "reduce"],
)
def test_command_loads_only_its_modules(fixtures, argv, extra):
    """-S keeps site's .pth imports out, so only treepack's own imports count."""
    code = f"from treepack.cli import main; assert main({argv!r}) == 0; {LOADED}"
    proc = python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    expected = ["treepack", "treepack.cli", "treepack.core"] + [f"treepack.{m}" for m in extra]
    assert loaded == sorted(expected)


def test_bare_import_loads_no_submodule():
    proc = python("-S", "-c", f"import treepack; {LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "treepack\n"


class TestPackageApi:
    def test_all_names(self):
        assert treepack.__all__ == PUBLIC_NAMES
        assert dir(treepack) == sorted(PUBLIC_NAMES)

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_defining_object(self, name):
        holders = [import_module(f"treepack.{m}") for m in SUBMODULES]
        holders = [module for module in holders if hasattr(module, name)]
        assert holders
        for module in holders:
            assert getattr(treepack, name) is getattr(module, name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from treepack import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            treepack.no_such_name

    def test_limits_live_in_core(self):
        from treepack import core, oracle, reduction

        assert treepack.SearchLimitExceeded is oracle.SearchLimitExceeded is core.SearchLimitExceeded
        assert reduction.SearchLimitExceeded is core.SearchLimitExceeded
        assert reduction.MAX_VERTICES is core.MAX_VERTICES


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "-i", "c4.json"],
        ["verify", "-i", "c4.json", "-p", "bad.json"],
        ["solve", "-i", "missing.json"],
        ["oracle", "-i", "c4.json", "--max-n", "3"],
        ["reduce", "--cnf", "f.cnf", "-o", "gadget.json", "--labels", "labels.json"],
        ["--help"],
        ["solve", "--alg", "nope"],
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "reduce", "help", "usage-error"],
)
def test_subprocess_exit_matches_main(fixtures, capsys, argv):
    """python -m treepack.cli exits through run(); codes and streams equal main's."""
    frozen = gc.get_freeze_count()
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    proc = python("-m", "treepack.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"treepack": "treepack.cli:run"}
    module, _, attr = scripts["treepack"].partition(":")
    assert callable(getattr(import_module(module), attr))
