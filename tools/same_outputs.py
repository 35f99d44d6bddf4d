"""Do two source trees give the same outputs on every benchmark call?

Usage:
    python3 tools/same_outputs.py OLD_SRC NEW_SRC --seeds A [B ...] [--workloads NAME ...]

OLD_SRC and NEW_SRC are checkouts (holding src/treepack) or src
directories.  For each workload and seed, perfbench/workloads.build_plan
writes the inputs and the call plan into one scratch directory.  Each
side then runs every step of the plan in order, as
``python -m treepack.cli ARGV`` with PYTHONPATH set to its own source
tree, in that same directory, so the output paths that stderr names are
the same on both sides.  Per call the exit code, stdout, stderr and the
bytes of every file the call wrote are compared.

Prints each differing call and exits 1 if any call differs; otherwise
prints how many calls were compared and exits 0.  Only perfbench/ is
read from this checkout; nothing under it is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from cli_ab import source_dir  # noqa: E402  (this script's own directory is on sys.path)
from workloads import WORKLOADS, build_plan  # noqa: E402

FIELDS = ("exit code", "stdout", "stderr", "written files")


def side_env(src: Path) -> dict:
    """The environment of one side's calls; fails unless treepack loads from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = [sys.executable, "-c", "import treepack; print(treepack.__file__)"]
    loaded = Path(subprocess.run(probe, env=env, capture_output=True, text=True, check=True).stdout.strip())
    if not loaded.is_relative_to(src):
        sys.exit(f"error: treepack loads from {loaded}, not from {src}")
    return env


def snapshot(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def replay(plan, workdir: Path, env: dict) -> list[tuple]:
    """Run the plan's steps in order from empty outputs; per call, the FIELDS."""
    outputs = workdir / "outputs"
    shutil.rmtree(outputs, ignore_errors=True)
    outputs.mkdir()
    results = []
    before = {}
    for step in plan.steps:
        command = [sys.executable, "-m", "treepack.cli", *step.argv]
        proc = subprocess.run(command, cwd=workdir, env=env, capture_output=True)
        after = snapshot(outputs)
        written = {name: digest for name, digest in after.items() if before.get(name) != digest}
        written.update({name: None for name in before if name not in after})  # deleted
        stdout = hashlib.sha256(proc.stdout).hexdigest()  # a packing can run to megabytes
        results.append((proc.returncode, stdout, proc.stderr, written))
        before = after
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="old checkout or src directory")
    parser.add_argument("new", help="new checkout or src directory")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    envs = [side_env(Path(source_dir(side))) for side in (args.old, args.new)]
    calls = differ = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        for workload in args.workloads:
            for seed in args.seeds:
                workdir = Path(scratch) / f"{workload}-{seed}"
                plan = build_plan(workload, seed, workdir)
                old, new = (replay(plan, workdir, env) for env in envs)
                for i, (step, a, b) in enumerate(zip(plan.steps, old, new)):
                    calls += 1
                    fields = [name for name, x, y in zip(FIELDS, a, b) if x != y]
                    if fields:
                        differ += 1
                        argv_text = " ".join(step.argv)
                        print(f"{workload} seed {seed} call {i} ({argv_text}): {', '.join(fields)} differ")
                shutil.rmtree(workdir)
    print(f"{calls} calls compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
