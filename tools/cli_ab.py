"""Time one CLI call against two source trees, alternately, from a small parent.

Usage:
    python3 -S tools/cli_ab.py OLD_SRC NEW_SRC [--rounds N] -- CLI_ARG ...

OLD_SRC and NEW_SRC are checkouts (holding src/treepack) or src
directories.  Each round runs ``python -m treepack.cli CLI_ARG ...`` once
per side, with PYTHONPATH set to that side's source tree; the side that
goes first alternates from round to round.  stdout and stderr go to
/dev/null, and the working directory is the caller's, so an ``-o`` path
is the same file on both sides.

Per side it prints the median and the quartiles [q1, q3] of the wall
time from spawn to exit, the child's minor page faults and the child's
own maximum resident set size, both read from ``os.wait4``.  Then it
prints in how many rounds the new side's call took less wall time than
the old side's, as ``new faster in W of N rounds``.  Exits 1 if any
call exits non-zero.

Linux carries the parent's resident high-water mark into a spawned
child, so this script keeps its own memory small: it imports only os,
sys and time, and re-runs itself under ``python -S`` when started
without it.
"""

import os
import sys
import time

USAGE = "usage: python3 -S tools/cli_ab.py OLD_SRC NEW_SRC [--rounds N] -- CLI_ARG ..."
COLUMNS = (("wall_ms", "{:.1f}"), ("minflt", "{:.0f}"), ("maxrss_mb", "{:.1f}"))  # run_once's order


def source_dir(path: str) -> str:
    """The directory that holds the treepack package: path/src, or path itself."""
    path = os.path.abspath(path)
    src = path if os.path.isdir(os.path.join(path, "treepack")) else os.path.join(path, "src")
    if not os.path.isfile(os.path.join(src, "treepack", "cli.py")):
        sys.exit(f"error: no treepack sources under {path}")
    return src


def run_once(src: str, argv: list[str]) -> tuple[float, int, float, int]:
    """One call: (wall ms, minor faults, max RSS MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=src)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, devnull, 1), (os.POSIX_SPAWN_DUP2, devnull, 2)]
        command = [sys.executable, "-m", "treepack.cli", *argv]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, command, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(devnull)
    return wall * 1e3, usage.ru_minflt, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3, interpolated between the sorted values."""
    ordered = sorted(values)

    def at(q: float) -> float:
        x = q * (len(ordered) - 1)
        i = int(x)
        j = min(i + 1, len(ordered) - 1)
        return ordered[i] + (ordered[j] - ordered[i]) * (x - i)

    return at(0.25), at(0.5), at(0.75)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit(USAGE)
    split = argv.index("--")
    options, cli_argv = argv[:split], argv[split + 1 :]
    rounds = 10
    if len(options) == 4 and options[2] == "--rounds" and options[3].isdigit():
        rounds, options = int(options[3]), options[:2]
    if len(options) != 2 or not cli_argv or rounds < 1:
        sys.exit(USAGE)
    sides = [("old", source_dir(options[0])), ("new", source_dir(options[1]))]
    results: dict[str, list[tuple]] = {name: [] for name, _ in sides}
    for r in range(rounds):
        for name, src in sides if r % 2 == 0 else sides[::-1]:
            results[name].append(run_once(src, cli_argv))
    failed = 0
    for name, _ in sides:
        runs = results[name]
        failed += sum(code != 0 for *_, code in runs)
        cells = []
        for i, (label, fmt) in enumerate(COLUMNS):
            q1, mid, q3 = (fmt.format(x) for x in quartiles([run[i] for run in runs]))
            cells.append(f"{label} {mid} [{q1}, {q3}]")
        print(f"{name}  " + "  ".join(cells))
    wins = sum(new[0] < old[0] for old, new in zip(results["old"], results["new"]))
    print(f"new faster in {wins} of {rounds} rounds")
    print(f"{rounds} rounds, {failed} failed calls")
    return 1 if failed else 0


if __name__ == "__main__":
    if not sys.flags.no_site:
        os.execv(sys.executable, [sys.executable, "-S", *sys.argv])
    sys.exit(main(sys.argv[1:]))
