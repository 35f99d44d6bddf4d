"""The suite's own pytest settings: a failing Hypothesis test is reported, and the run goes on."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # On a failure Hypothesis imports its patch writer, which imports libcst;
    # under filterwarnings = ["error"] a deprecation warning there once
    # stopped the whole run with INTERNALERROR.
    (tmp_path / "test_sample.py").write_text(textwrap.dedent(SAMPLE))
    argv = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "Falsifying example" in proc.stdout
