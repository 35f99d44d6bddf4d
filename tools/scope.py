"""Every instance of the exact solvers' small scopes, once, past the sizes tier-1 runs.

Usage:
    python3 tools/scope.py [--max-n N]

Two families, from the generators in tests/helpers.py, n = 1..N
(default 7, at most 8, the oracle's limit):

- tree: every rooted tree shape (tree_scope), every capacity vector
  over 0..2, K = 1..min(3, n), root 0.  At n = 7 that is 48 shapes x
  2,187 x 3 = 314,928 instances.
- complete: n <= N - 1, the root at every place among the others
  (complete_scope with every_root), its capacity any of 0..2 and the
  others a sorted multiset over 0..2, K as above.  One size less,
  because at n = 7 the oracle takes 42 s on the 252 instances rooted
  at 0 alone.

On each instance the exact solver's value (solve_tree's; the closed
form, optimal_objective) must equal brute_force_solve's, its packing
(solve_tree's; solve_complete's) must verify with that value as the
stated objective, and its streamed document (_packing_text) must give
the same value and the bytes of packing_to_dict's document.

Prints one line per family: its instance count and time.  Exits 1 at
the first disagreement, printing the family, the instance and what
differs; exits 0 when every instance agrees.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from helpers import complete_scope, disagreement, tree_scope  # noqa: E402
from treepack import (  # noqa: E402
    complete_solver,
    optimal_objective,
    solve_complete,
    solve_tree,
    tree_solver,
)


def tree_answers(inst):
    return (*solve_tree(inst), tree_solver._packing_text(inst))


def complete_answers(inst):
    return optimal_objective(inst), solve_complete(inst), complete_solver._packing_text(inst)


# Per family: its instances up to --max-n, and the solver's (value, packing, streamed text).
FAMILIES = {
    "tree": (tree_scope, tree_answers),
    "complete": (lambda max_n: complete_scope(max_n - 1, every_root=True), complete_answers),
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Check every instance of the small scopes.")
    parser.add_argument("--max-n", type=int, default=7, choices=range(1, 9), metavar="N",
                        help="largest vertex count, 1..8 (default 7)")
    max_n = parser.parse_args(argv).max_n
    for name, (scope, answers) in FAMILIES.items():
        start, count = time.perf_counter(), 0
        for inst in scope(max_n):
            wrong = disagreement(inst, *answers(inst))
            if wrong is not None:
                print(f"{name}: disagreement on {inst!r}: {wrong}")
                return 1
            count += 1
        print(f"{name}: {count} instances in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
