"""Print every metric of every workload with its unit and sample count.

Run from the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 25

Runs ``run.py`` once per workload with tracing off (end-to-end metrics)
and once with tracing on (per-layer metrics), one run at a time, and
prints their tables.  Exits non-zero if any run failed a check.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            # The last line is the machine-readable result; the table comes before it.
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
