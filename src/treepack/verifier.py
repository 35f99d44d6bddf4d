"""The packing verifier: every way a packing breaks its instance, in one report."""

from __future__ import annotations

from collections import Counter

from .core import KIND_COMPLETE, Instance, Packing, _Value


class Violation(_Value):
    """One verification failure; tree/vertex are None when not applicable."""

    _fields = ("tree", "vertex", "reason")

    def __init__(self, tree: int | None, vertex: int | None, reason: str) -> None:
        self.__dict__.update(tree=tree, vertex=vertex, reason=reason)


class VerificationReport(_Value):
    """verify_packing's result: valid exactly when violations is empty."""

    _fields = ("valid", "violations")

    def __init__(self, valid: bool, violations: list[Violation]) -> None:
        self.__dict__.update(valid=valid, violations=violations)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"tree": v.tree, "vertex": v.vertex, "reason": v.reason}
                for v in self.violations
            ],
        }


def _rooted_outward(inst: Instance, parent: dict[int, int]) -> bool:
    """One pass over a tree's parent map, in insertion order: is the tree sound?

    True when the root has no parent and each (child, parent) entry has
    its parent already reached (the root or an earlier child) and is an
    edge of the instance graph.  Such a tree is connected and acyclic.
    On complete kinds only the child's range needs a test: a reached
    parent is in range, and a self edge's parent is its own, not yet
    reached, child.
    """
    if inst.root in parent:
        return False
    reached = {inst.root}
    add = reached.add
    if inst.kind == KIND_COMPLETE:
        n = inst.n
        for child, par in parent.items():
            if par not in reached or not 0 <= child < n:
                return False
            add(child)
    else:
        has_edge = inst.has_edge
        for child, par in parent.items():
            if par not in reached or not has_edge(par, child):
                return False
            add(child)
    return True


def verify_packing(inst: Instance, packing: Packing) -> VerificationReport:
    """Check a packing against its instance.

    Per tree: every edge present in the instance graph, every vertex
    reaching the root through the parent chain (no cycles, no orphans).
    Across trees: per-vertex child totals within capacity.  Failures are
    collected and reported, never raised; only a packing whose root is not
    the instance root, or whose tree count is not K, is an error.

    A tree whose parent map lists its edges root outward, as every solver
    and load_packing build them, is checked in one pass over the map
    (_rooted_outward): no sort, no child lists, one set lookup and insert
    per edge, plus one has_edge call on non-complete kinds.  Any other
    tree, valid or not, falls back to checking every edge in child order
    and walking each vertex's parent chain, which finds and orders its
    violations.
    """
    root, n, trees = inst.root, inst.n, packing.trees
    if packing.root != root:
        raise ValueError(f"packing rooted at {packing.root}, instance root is {root}")
    if len(trees) != inst.num_trees:
        raise ValueError(f"packing has {len(trees)} trees, instance needs K={inst.num_trees}")
    violations: list[Violation] = []
    for ti, parent in enumerate(trees):
        if _rooted_outward(inst, parent):
            continue
        if root in parent:
            violations.append(Violation(ti, root, "root must not have a parent"))
        bad_ids = set()
        for child in sorted(parent):
            par = parent[child]
            if not (0 <= child < n and 0 <= par < n):
                violations.append(
                    Violation(ti, child, f"edge ({par}, {child}) uses a vertex outside [0, {n})")
                )
                bad_ids.add(child)
            elif not inst.has_edge(par, child):
                violations.append(
                    Violation(ti, child, f"edge ({par}, {child}) not in the instance graph")
                )
        status: dict[int, bool | None] = {root: True}  # None: cut off, or on the walk's chain
        for v in sorted({root, *parent, *parent.values()}):
            if v in status or v in bad_ids:
                continue
            chain: list[int] = []
            x = v
            while x not in status:
                status[x] = None
                chain.append(x)
                x = parent.get(x, x)  # an orphan is its own parent, which ends the walk
            ok = status[x]  # None: a parent cycle, an orphan, or a chain into either
            for y in chain:
                status[y] = ok
                if not ok:
                    violations.append(Violation(ti, y, "not connected to the root"))
    totals: Counter = Counter()
    for parent in trees:
        totals.update(parent.values())
    caps = inst.capacities
    over = [v for v, total in totals.items() if 0 <= v < n and total > caps[v]]
    for v in sorted(over):
        reason = f"capacity exceeded: {totals[v]} children across trees, capacity {caps[v]}"
        violations.append(Violation(None, v, reason))
    return VerificationReport(not violations, violations)
