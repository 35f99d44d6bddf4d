"""Seeded workload generators and the record of why each workload exists.

A workload is a fixed list of inputs plus the ordered CLI calls that a
user would make on them.  Everything is derived from the seed through
``random.Random(f"{name}:{seed}")``, so the same seed writes byte-identical
files.  Sizes are fixed per workload; the seed only moves capacities and
graph shapes, so the amount of work is nearly the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Per workload: why it was chosen, the layer it stresses and the one it
# bypasses, its input families, and the ROADMAP item it is meant to show.
WORKLOADS = {
    "bulk": {
        "why": "large complete graphs and large random trees; time goes to per-vertex "
        "bookkeeping in core (validation, serialization, verify) and to "
        "complete_solver.attach_stage",
        "stresses": ["core", "complete_solver", "cli serialization"],
        "bypasses": ["oracle", "reduction", "large tree_solver knapsacks"],
        "families": [
            "complete, n=32000, K=40, capacities 0..10, root capacity K",
            "complete, n=24000, K=30, capacities 0..10, root capacity K",
            "complete, n=16000, K=25, capacities 0..10, root capacity K",
            "random recursive tree, n=3000, K=10, capacities 1..3, root capacity K*deg(root) (x2)",
        ],
        "roadmap_items": [1, 5],
    },
    "tree-hubs": {
        "why": "trees whose few hub vertices hold most vertices as children; the per-vertex, "
        "per-k knapsack in tree_solver does almost all the work",
        "stresses": ["tree_solver.stripe_values", "tree_solver.solve_mckp"],
        "bypasses": ["complete_solver", "oracle", "reduction"],
        "families": [
            "hub tree, n=200, K=10, 4 hubs of capacity 200, other capacities 0..3",
            "hub tree, n=240, K=10, 4 hubs of capacity 240, other capacities 0..3",
            "hub tree, n=280, K=10, 4 hubs of capacity 280, other capacities 0..3",
        ],
        "roadmap_items": [2],
    },
    "general-mix": {
        "why": "sparse general graphs through the quadratic greedy, desk-size instances through "
        "the oracle, and 3-SAT gadgets; many short calls make start-up visible",
        "stresses": ["oracle.greedy_general", "oracle.brute_force_solve", "reduction", "cli start-up"],
        "bypasses": ["complete_solver", "large tree_solver knapsacks"],
        "families": [
            "4 sparse general graphs, n=3000, m=2n, K=3, capacities 1..3, through solve --alg auto",
            "10 desk complete instances through oracle, n=3..5, K=1..3, capacities 0..2",
            "10 desk trees through oracle, n=3..8, K=1..3, capacities 0..3",
            "10 desk general graphs through oracle, n=3..8, K=1..3, capacities 0..2",
            "3 random 3-CNFs, 3..5 variables, 3..6 clauses, through reduce then oracle --max-k 1",
        ],
        "roadmap_items": [3, 4],
    },
}

# Worst cases measured in ROADMAP.md that no workload runs, and why.
EXCLUDED = [
    {
        "case": "tree star, n=2000, K=10, root capacity 5000, leaves 1",
        "reason": "solve_tree takes about 211 s today; it joins tree-hubs once ROADMAP item 2 lands",
    },
    {
        "case": "complete, n=8, K=3, all capacities 3, through oracle at default limits",
        "reason": "brute_force_solve searches for about 522 s; it joins general-mix once ROADMAP item 4 bounds the work",
    },
    {
        "case": "any single call that runs for minutes",
        "reason": "a run must end within 180 s, and one such call would set every timing of its run",
    },
]


@dataclass
class Item:
    """One input of a workload: an instance file or a CNF file."""

    name: str
    path: Path
    call: str  # the CLI call that answers it: "solve", "oracle" or "reduce"
    instance: dict | None = None  # instance JSON document
    cnf: tuple[int, tuple[tuple[int, int, int], ...]] | None = None  # (num_vars, clauses)
    digest: str = ""


@dataclass
class Step:
    """One CLI call: arguments after ``python -m treepack.cli``."""

    kind: str  # "solve", "verify", "oracle" or "reduce"
    item: str
    argv: list[str]
    output: Path | None = None  # JSON file the call writes with -o


@dataclass
class Plan:
    workload: str
    items: dict[str, Item] = field(default_factory=dict)
    steps: list[Step] = field(default_factory=list)

    def digests(self) -> dict[str, str]:
        return {name: item.digest for name, item in self.items.items()}

    def work_nk(self) -> int:
        """Sum of n*K over the instances of one pass (gadgets count n*1)."""
        total = 0
        for item in self.items.values():
            if item.instance is not None:
                total += item.instance["n"] * item.instance["K"]
            else:
                num_vars, clauses = item.cnf
                total += 1 + 3 * num_vars + len(clauses)
        return total


# -- instance families -------------------------------------------------------


def _recursive_tree(rng: random.Random, n: int) -> list[list[int]]:
    """Random recursive tree: vertex v hangs off a uniform earlier vertex."""
    return [[rng.randrange(v), v] for v in range(1, n)]


def _root_degree(edges: list[list[int]]) -> int:
    return sum(1 for u, v in edges if u == 0 or v == 0)


def complete_instance(rng: random.Random, n: int, k: int) -> dict:
    caps = [rng.randint(0, 10) for _ in range(n)]
    caps[0] = k  # every tree can leave the root, so the work does not hinge on one draw
    return {"kind": "complete", "n": n, "root": 0, "capacities": caps, "K": k}


def random_tree_instance(rng: random.Random, n: int, k: int) -> dict:
    edges = _recursive_tree(rng, n)
    caps = [rng.randint(1, 3) for _ in range(n)]
    caps[0] = k * _root_degree(edges)
    return {"kind": "tree", "n": n, "root": 0, "edges": edges, "capacities": caps, "K": k}


def hub_tree_instance(rng: random.Random, n: int, k: int, hubs: int, hub_capacity: int) -> dict:
    """Hubs 1..hubs hang off the root and share 85% of the rest equally.

    The remaining vertices hang off a uniform earlier non-hub vertex.  Hub
    degrees and capacities are fixed, so the knapsack work at the hubs,
    which dominates, is the same for every seed.
    """
    edges = [[0, h] for h in range(1, hubs + 1)]
    rest = list(range(hubs + 1, n))
    on_hubs = len(rest) * 85 // 100
    owners = [1 + i % hubs for i in range(on_hubs)]
    rng.shuffle(owners)
    for v, owner in zip(rest, owners):
        edges.append([owner, v])
    for v in rest[on_hubs:]:
        edges.append([rng.randrange(hubs + 1, v), v])
    caps = [rng.randint(0, 3) for _ in range(n)]
    caps[0] = hubs * k
    for h in range(1, hubs + 1):
        caps[h] = hub_capacity
    return {"kind": "tree", "n": n, "root": 0, "edges": edges, "capacities": caps, "K": k}


def general_instance(rng: random.Random, n: int, k: int, extra: int, cap_lo: int, cap_hi: int) -> dict:
    """Connected graph: a random recursive tree plus `extra` random non-root edges."""
    edges = {tuple(e) for e in _recursive_tree(rng, n)}
    non_root_pairs = (n - 1) * (n - 2) // 2
    target = len(edges) + min(extra, non_root_pairs - sum(1 for u, _ in edges if u != 0))
    while len(edges) < target:
        u, v = sorted(rng.sample(range(1, n), 2))
        edges.add((u, v))
    edges = [list(e) for e in sorted(edges)]
    caps = [rng.randint(cap_lo, cap_hi) for _ in range(n)]
    return {"kind": "general", "n": n, "root": 0, "edges": edges, "capacities": caps, "K": k}


def sparse_general_instance(rng: random.Random, n: int, k: int) -> dict:
    """m = 2n edges, capacities 1..3; the root can serve each neighbour in every tree."""
    inst = general_instance(rng, n, k, n + 1, 1, 3)
    inst["capacities"][0] = k * _root_degree(inst["edges"])
    return inst


def desk_instance(rng: random.Random, kind: str) -> dict:
    """Desk-size instance inside the oracle's default limits (n <= 8, K <= 3).

    Complete graphs stay at n <= 5 with capacities <= 2: the search time on
    complete graphs grows steeply with n and capacity (n=6 already varies
    from 1 to 130 ms by seed; n=8 with capacities 3 runs for minutes, see
    EXCLUDED).
    """
    k = rng.randint(1, 3)
    if kind == "complete":
        n = rng.randint(3, 5)
        caps = [rng.randint(0, 2) for _ in range(n)]
        return {"kind": "complete", "n": n, "root": 0, "capacities": caps, "K": k}
    n = rng.randint(3, 8)
    if kind == "tree":
        caps = [rng.randint(0, 3) for _ in range(n)]
        return {"kind": "tree", "n": n, "root": 0, "edges": _recursive_tree(rng, n), "capacities": caps, "K": k}
    return general_instance(rng, n, k, rng.randint(0, n // 2), 0, 2)


def random_cnf(rng: random.Random) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    num_vars = rng.randint(3, 5)
    clauses = tuple(
        tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(rng.randint(3, 6))
    )
    return num_vars, clauses


# -- plans -------------------------------------------------------------------


def _write(path: Path, text: str) -> str:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


class _PlanWriter:
    def __init__(self, workload: str, workdir: Path):
        self.plan = Plan(workload)
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)

    def instance(self, name: str, call: str, data: dict) -> Item:
        path = self.inputs / f"{name}.json"
        item = Item(name, path, call, instance=data, digest=_write(path, json.dumps(data) + "\n"))
        self.plan.items[name] = item
        return item

    def solve_and_verify(self, name: str, data: dict) -> None:
        item = self.instance(name, "solve", data)
        out = self.outputs / f"{name}.packing.json"
        self.plan.steps.append(Step("solve", name, ["solve", "-i", str(item.path), "--alg", "auto", "-o", str(out)], out))
        self.plan.steps.append(Step("verify", name, ["verify", "-i", str(item.path), "-p", str(out)]))

    def oracle(self, name: str, data: dict) -> None:
        item = self.instance(name, "oracle", data)
        out = self.outputs / f"{name}.packing.json"
        self.plan.steps.append(Step("oracle", name, ["oracle", "-i", str(item.path), "-o", str(out)], out))

    def gadget(self, name: str, cnf: tuple[int, tuple[tuple[int, int, int], ...]]) -> None:
        num_vars, clauses = cnf
        lines = [f"c seeded 3-CNF {name}", f"p cnf {num_vars} {len(clauses)}"]
        lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
        path = self.inputs / f"{name}.cnf"
        item = Item(name, path, "reduce", cnf=cnf, digest=_write(path, "\n".join(lines) + "\n"))
        self.plan.items[name] = item
        gadget = self.outputs / f"{name}.gadget.json"
        labels = self.outputs / f"{name}.labels.json"
        out = self.outputs / f"{name}.packing.json"
        n = 1 + 3 * num_vars + len(clauses)
        self.plan.steps.append(
            Step("reduce", name, ["reduce", "--cnf", str(path), "-o", str(gadget), "--labels", str(labels)], gadget)
        )
        self.plan.steps.append(
            Step("oracle", name, ["oracle", "-i", str(gadget), "--max-n", str(n), "--max-k", "1", "-o", str(out)], out)
        )


def build_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's inputs under workdir and return its call plan."""
    rng = random.Random(f"{workload}:{seed}")
    b = _PlanWriter(workload, workdir)
    if workload == "bulk":
        b.solve_and_verify("complete-32000x40", complete_instance(rng, 32000, 40))
        b.solve_and_verify("tree-3000x10-a", random_tree_instance(rng, 3000, 10))
        b.solve_and_verify("complete-24000x30", complete_instance(rng, 24000, 30))
        b.solve_and_verify("tree-3000x10-b", random_tree_instance(rng, 3000, 10))
        b.solve_and_verify("complete-16000x25", complete_instance(rng, 16000, 25))
    elif workload == "tree-hubs":
        for n in (200, 240, 280):
            b.solve_and_verify(f"hubs-{n}x10", hub_tree_instance(rng, n, 10, 4, n))
    elif workload == "general-mix":
        for i in range(4):
            b.solve_and_verify(f"general-3000x3-{i}", sparse_general_instance(rng, 3000, 3))
        for i in range(10):
            for kind in ("complete", "tree", "general"):
                b.oracle(f"desk-{kind}-{i}", desk_instance(rng, kind))
        for i in range(3):
            b.gadget(f"cnf-{i}", random_cnf(rng))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.plan
