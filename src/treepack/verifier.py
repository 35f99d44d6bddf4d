"""The packing verifier: every way a packing breaks its instance, in one report.

The report is the JSON document treepack verify prints:
{"valid": bool, "violations": [{"tree": t, "vertex": v, "reason": r}, ...]},
valid exactly when violations is empty.  tree is None on a capacity
violation, which no one tree causes, and tree and vertex are None when
the document's stated objective differs from the packing's count.

One per-edge check, _outward_edges, serves both entry points.
valid_document runs it over a parsed packing document's [parent, child]
lists and builds nothing per tree; verify_packing runs it over each
parent map, and falls back to the full search for violations only on a
tree the check rejects.
"""

from operator import le

from .core import KIND_COMPLETE, Instance, Packing, objective


def _outward_edges(inst: Instance, edges, mark: list[int], totals: list[int], ti: int) -> bool:
    """One pass over tree ti's (parent, child) edges, in order: is the tree sound?

    True when every edge has both ids plain ints (type int, so no bool),
    its child in [0, n) and not yet reached, its parent in [0, n) and
    already reached (the root or an earlier child), and is an edge of the
    instance graph; a complete kind has every such edge.  Such a tree is
    connected and acyclic.  Reached vertices are those with mark[v] ==
    ti, so one n-long mark list serves every tree of a packing; the root
    is reached first, so a root listed as a child fails, and so does a
    child listed twice.  Each edge that passes adds 1 to totals[parent]
    as it goes, so on False the totals hold a partial count.  An edge
    that is not a pair gives False; nothing is raised.
    """
    has_edge = None if inst.kind == KIND_COMPLETE else inst.has_edge
    mark[inst.root] = ti
    try:
        for par, child in edges:
            if not (
                type(par) is int and type(child) is int and child >= 0 and par >= 0
                and mark[child] != ti and mark[par] == ti  # an id >= n raises IndexError
            ) or (has_edge is not None and not has_edge(par, child)):
                return False
            mark[child] = ti
            totals[par] += 1
    except (TypeError, ValueError, IndexError):  # an edge that is not a pair, an id >= n
        return False
    return True


def valid_document(inst: Instance, data: object) -> bool:
    """Is the parsed packing document valid, by one pass over each tree's edge list?

    True when the document has K trees, each tree's edges all pass
    _outward_edges, no vertex's children across trees exceed its
    capacity, and the stated objective, if the key is present, is an int
    equal to the count of occurrences: then verify_packing of the loaded
    packing reports no violation.  False means only that this pass is in
    doubt: a damaged shape, an edge out of root-outward order, a fault of
    any kind.  No parent map is built.  data is as json.load returns it:
    a tuple edge, which JSON never yields, would pass where
    packing_from_dict rejects it.
    """
    if not isinstance(data, dict) or not isinstance(trees := data.get("trees"), list):
        return False
    if len(trees) != inst.num_trees:
        return False
    mark, totals = [-1] * inst.n, [0] * inst.n
    count = len(trees)
    for ti, tree in enumerate(trees):
        edges = tree.get("edges") if isinstance(tree, dict) else None
        if not isinstance(edges, list) or not _outward_edges(inst, edges, mark, totals, ti):
            return False
        count += len(edges)
    if "objective" in data and not (type(stated := data["objective"]) is int and stated == count):
        return False
    return all(map(le, totals, inst.capacities))


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
    (_outward_edges), which also counts its children.  Any other tree,
    valid or not, falls back to checking every edge in child order and
    walking each vertex's parent chain, which finds and orders its
    violations; then every tree's children are counted again, so no
    partial count of a rejected tree reaches the capacity check.
    Children are counted per vertex in an n-long list, so capacity
    violations come in ascending id order.
    """
    root, n, trees = inst.root, inst.n, packing.trees
    if packing.root != root:
        raise ValueError(f"packing rooted at {packing.root}, instance root is {root}")
    if len(trees) != inst.num_trees:
        raise ValueError(f"packing has {len(trees)} trees, instance needs K={inst.num_trees}")
    violations: list[dict] = []
    mark, totals = [-1] * n, [0] * n
    sound = True
    for ti, parent in enumerate(trees):
        if _outward_edges(inst, zip(parent.values(), parent), mark, totals, ti):
            continue
        sound = False
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
    if not sound:  # a rejected tree's pass counted only some of its children
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
