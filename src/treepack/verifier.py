"""The packing verifier: every way a packing breaks its instance, in one report.

The report is the JSON document treepack verify prints:
{"valid": bool, "violations": [{"tree": t, "vertex": v, "reason": r}, ...]},
valid exactly when violations is empty.  tree is None on a capacity
violation, which no one tree causes, and tree and vertex are None when
the document's stated objective differs from the packing's count.
"""

from .core import KIND_COMPLETE, Instance, Packing, objective


def _rooted_outward(inst: Instance, parent: dict[int, int], mark: list[int], ti: int) -> bool:
    """One pass over tree ti's parent map, in insertion order: is the tree sound?

    True when the root has no parent and each (child, parent) entry has
    both ids in [0, n), its parent already reached (the root or an
    earlier child) and is an edge of the instance graph; a complete kind
    has every such edge.  Such a tree is connected and acyclic.  Reached
    vertices are those with mark[v] == ti, so one n-long mark list serves
    every tree of a packing; a self edge's parent is its own, not yet
    reached, child.
    """
    root, n = inst.root, inst.n
    if root in parent:
        return False
    mark[root] = ti
    complete, has_edge = inst.kind == KIND_COMPLETE, inst.has_edge
    for child, par in parent.items():
        reached = 0 <= par < n and 0 <= child < n and mark[par] == ti
        if not (reached and (complete or has_edge(par, child))):
            return False
        mark[child] = ti
    return True


def verify_packing(inst: Instance, packing: Packing, stated: int | None = None) -> dict:
    """Check a packing against its instance; return the report document.

    Per tree: every edge present in the instance graph, every vertex
    reaching the root through the parent chain (no cycles, no orphans).
    Across trees: per-vertex child totals within capacity.  Last, a
    stated objective, if given (the packing document's), must equal
    objective(packing), the count of its occurrences.  Failures are
    collected and reported, never raised; only a packing whose root is not
    the instance root, or whose tree count is not K, is an error.

    A tree whose parent map lists its edges root outward, as every solver
    and load_packing build them, is checked in one pass over the map
    (_rooted_outward): no sort, no child lists, two range tests and one
    mark lookup and store per edge, plus one has_edge call on non-complete
    kinds.  Any other tree, valid or not, falls back to checking every
    edge in child order and walking each vertex's parent chain, which
    finds and orders its violations.  Children are counted per vertex in
    an n-long list, so capacity violations come in ascending id order.
    """
    root, n, trees = inst.root, inst.n, packing.trees
    if packing.root != root:
        raise ValueError(f"packing rooted at {packing.root}, instance root is {root}")
    if len(trees) != inst.num_trees:
        raise ValueError(f"packing has {len(trees)} trees, instance needs K={inst.num_trees}")
    violations: list[dict] = []
    mark = [-1] * n
    for ti, parent in enumerate(trees):
        if _rooted_outward(inst, parent, mark, ti):
            continue
        if root in parent:
            violations.append({"tree": ti, "vertex": root, "reason": "root must not have a parent"})
        bad_ids = set()
        for child, par in sorted(parent.items()):
            if not (0 <= child < n and 0 <= par < n):
                reason = f"edge ({par}, {child}) uses a vertex outside [0, {n})"
                violations.append({"tree": ti, "vertex": child, "reason": reason})
                bad_ids.add(child)
            elif not inst.has_edge(par, child):
                reason = f"edge ({par}, {child}) not in the instance graph"
                violations.append({"tree": ti, "vertex": child, "reason": reason})
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
                    violations.append({"tree": ti, "vertex": y, "reason": "not connected to the root"})
    totals = [0] * n
    for parent in trees:
        for v in parent.values():
            if 0 <= v < n:
                totals[v] += 1
    for v, (total, cap) in enumerate(zip(totals, inst.capacities)):
        if total > cap:
            reason = f"capacity exceeded: {total} children across trees, capacity {cap}"
            violations.append({"tree": None, "vertex": v, "reason": reason})
    if stated is not None and stated != (counted := objective(packing)):
        reason = f"stated objective {stated}, counted {counted}"
        violations.append({"tree": None, "vertex": None, "reason": reason})
    return {"valid": not violations, "violations": violations}
