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
SUBMODULES = ("complete_solver", "core", "greedy", "oracle", "reduction", "tree_solver", "verifier")
# Module attributes that are core._on_first_call stand-ins, not the defining object.
STAND_INS = {("reduction", "verify_packing")}

PUBLIC_NAMES = [
    "KIND_COMPLETE",
    "KIND_GENERAL",
    "KIND_TREE",
    "Instance",
    "Packing",
    "ReductionOutput",
    "SatInstance",
    "SearchLimitExceeded",
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
    return tmp_path


def environment(unbuffered: bool = True) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    return env


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=environment(), capture_output=True, text=True)


LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.startswith('treepack'))))"


# One call of each command, and the treepack modules beyond cli and core that it loads.
COMMAND_MODULES = {
    "verify": (["verify", "-i", "c4.json", "-p", "good.json"], ["verifier"]),
    "solve-complete": (["solve", "-i", "c4.json"], ["complete_solver"]),
    "solve-tree": (["solve", "-i", "t3.json"], ["tree_solver"]),
    "solve-general": (["solve", "-i", "g4.json"], ["greedy"]),
    "oracle": (["oracle", "-i", "g4.json"], ["oracle"]),
    "reduce": (["reduce", "--cnf", "f.cnf", "-o", "gadget.json"], ["reduction"]),
    "help": (["--help"], []),
}


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES.values(), ids=COMMAND_MODULES)
def test_command_loads_only_its_modules(fixtures, argv, extra):
    """-S keeps site's .pth imports out, so only treepack's own imports count.

    The oracle loads neither the greedy baseline nor the verifier, a
    general solve loads the greedy baseline and not the oracle, and --help
    loads no more than the CLI and core.
    """
    code = (
        "from treepack.cli import main\n"
        f"try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
        f"assert code == 0\n{LOADED}"
    )
    proc = python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    expected = ["treepack", "treepack.cli", "treepack.core"] + [f"treepack.{m}" for m in extra]
    assert loaded == sorted(expected)


def test_no_command_loads_future(fixtures):
    """Every annotation in treepack is evaluated natively, so no command imports __future__."""
    calls = "".join(
        f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n" for argv, _ in COMMAND_MODULES.values()
    )
    code = f"import sys\nfrom treepack.cli import main\n{calls}print('__future__' in sys.modules)"
    proc = python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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
        holders = [m for m in SUBMODULES if hasattr(import_module(f"treepack.{m}"), name)]
        assert holders
        for m in holders:
            held = getattr(import_module(f"treepack.{m}"), name)
            if (m, name) in STAND_INS:
                assert held.__qualname__ == name and held is not getattr(treepack, name)
            else:
                assert held is getattr(treepack, name)

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
    """python -m treepack.cli exits through run(); codes and streams equal main's.

    The second run block-buffers both streams into files, so output that
    run() did not flush before ending the process would be missing.
    """
    frozen = gc.get_freeze_count()
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    proc = python("-m", "treepack.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    with open("stdout.txt", "wb") as fo, open("stderr.txt", "wb") as fe:
        command = [sys.executable, "-m", "treepack.cli", *argv]
        returncode = subprocess.run(command, env=environment(False), stdout=fo, stderr=fe).returncode
    got = (returncode, Path("stdout.txt").read_text(), Path("stderr.txt").read_text())
    assert got == (code, out, err)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_as_before(fixtures, unbuffered):
    """stdout is a pipe nobody reads: run() reports the failed write or flush as the normal exit does.

    Unbuffered, the write fails inside main (exit 2); buffered, the flush
    fails after it (exit 120, the interpreter's code for a failed flush).
    """
    argv = ["oracle", "-i", "g4.json"]
    normal_exit = f"import sys; from treepack.cli import main; sys.exit(main({argv!r}))"
    results = []
    for args in (["-m", "treepack.cli", *argv], ["-c", normal_exit]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *args], env=environment(unbuffered), stdout=write_end, stderr=subprocess.PIPE
            )
        finally:
            os.close(write_end)
        results.append((proc.returncode, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] == (2 if unbuffered else 120)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve", "-i", "c4.json"], 0),
        (["verify", "-i", "c4.json", "-p", "missing.json"], 2),
        (["solve", "--alg", "nope"], 2),
    ],
    ids=["summary", "error", "usage-error"],
)
def test_closed_stderr_keeps_stdout_and_exit_code(fixtures, capsys, argv, expected, unbuffered):
    """File descriptor 2 closed: a summary or error line that cannot be written is dropped.

    stdout and the exit code are main's, as if the line had been written.
    """
    try:
        code = main(argv)
    except SystemExit as exc:  # usage errors
        code = exc.code
    out = capsys.readouterr().out
    assert code == expected
    command = ["sh", "-c", 'exec "$0" -m treepack.cli "$@" 2>&-', sys.executable, *argv]
    proc = subprocess.run(command, env=environment(unbuffered), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize(
    "argv",
    [["oracle", "-i", "g4.json"], ["solve", "-i", "c4.json"], ["verify", "-i", "c4.json", "-p", "good.json"]],
    ids=["oracle", "solve", "verify"],
)
def test_closed_stdout_descriptor_is_input_error(fixtures, argv):
    """File descriptor 1 closed at start-up (sys.stdout is None): exit 2 with one error line."""
    command = ["sh", "-c", 'exec "$0" -m treepack.cli "$@" >&-', sys.executable, *argv]
    proc = subprocess.run(command, env=environment(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error" in line] == [
        "error: standard output is closed"
    ]


def test_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"treepack": "treepack.cli:run"}
    module, _, attr = scripts["treepack"].partition(":")
    assert callable(getattr(import_module(module), attr))
