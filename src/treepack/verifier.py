"""The packing verifier: every way a packing breaks its instance, in one report.

The report is the JSON document treepack verify prints:
{"valid": bool, "violations": [{"tree": t, "vertex": v, "reason": r}, ...]},
valid exactly when violations is empty.  tree is None on a capacity
violation, which no one tree causes, and tree and vertex are None when
the document's stated objective differs from the packing's count.

verify_document is treepack verify's one entry point: it judges a
parsed packing document.  One per-edge check, _outward_edges, first
runs over the document's [parent, child] lists and builds nothing per
tree; a file it finds valid gets the valid report at once.  Any other
file takes the long route: core.packing_from_dict's parent maps and
the stated objective, then verify_packing, which checks every edge of
every tree in child order and reaches from the root over each tree's
child lists.  So every report, input error and its order is
verify_packing's.
"""

from operator import le

from . import core
from .core import KIND_COMPLETE, Instance, Packing, _as_int, _edge_ids, objective


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


def verify_document(inst: Instance, data: object) -> dict:
    """The report on a parsed packing document, as treepack verify prints it.

    First one pass over each tree's [parent, child] list (_outward_edges),
    which builds no parent map.  The document is valid, and gets
    {"valid": true, "violations": []} at once, when it has K trees whose
    edges all pass, no vertex's children across trees exceed its
    capacity, and the stated objective is absent or an int equal to the
    count of occurrences.  Any other document, valid ones whose edges are
    not root outward included, takes the long route:
    core.packing_from_dict (through the module, so a swapped loader is
    the one called), the stated objective as an integer, or None when the
    key is absent, then verify_packing.  That route alone raises
    ValueError on a malformed document or objective, with the loader's
    error winning, and writes every violation.  data is as json.load
    returns it: a tuple edge, which JSON never yields, would pass where
    packing_from_dict rejects it.
    """
    trees = data.get("trees") if isinstance(data, dict) else None
    if isinstance(trees, list) and len(trees) == inst.num_trees:
        mark, totals = [-1] * inst.n, [0] * inst.n
        count = len(trees)
        for ti, tree in enumerate(trees):
            edges = tree.get("edges") if isinstance(tree, dict) else None
            if not isinstance(edges, list) or not _outward_edges(inst, edges, mark, totals, ti):
                break
            count += len(edges)
        else:
            stated = data.get("objective", count)
            if type(stated) is int and stated == count and all(map(le, totals, inst.capacities)):
                return {"valid": True, "violations": []}
    packing = core.packing_from_dict(data, inst.root)
    stated = _as_int(data["objective"], "objective") if "objective" in data else None
    return verify_packing(inst, packing, stated)


def verify_packing(inst: Instance, packing: Packing, stated: int | None = None) -> dict:
    """Check a packing against its instance; return the report document.

    Per tree: every edge present in the instance graph, every vertex
    reached from the root along the tree's edges (no cycles, no orphans).
    Across trees: per-vertex child totals within capacity.  Last, a
    stated objective, if given (the packing document's), must equal
    objective(packing), the count of its occurrences.  Failures are
    collected and reported, never raised; only a packing whose root is not
    the instance root, whose tree count is not K, or with an id that is
    not an integer (a bool included) is an error, a ValueError; the last
    is the loader's own test, core._edge_ids, run on each map's edges in
    order, so the message names the first bad edge as packing_from_dict's
    does.

    The violations come per tree: the root's parent, if it has one; then
    each edge with an id outside [0, n) or not in the graph, in ascending
    child id; then, in ascending id, each vertex in [0, n) that the map
    names, as a child or a parent, and the reach from the root misses,
    except a child already named for an edge outside [0, n).  After every
    tree come the capacity violations, in ascending id, and last the
    stated objective's.  The edge loop, in child order, counts each
    in-range parent's children in one n-long list and files each child
    under its parent; the reach follows those lists, out-of-range ids
    included.  So any map of m edges costs a sort, O(m log m), wherever
    its edges are listed.
    """
    root, n, trees = inst.root, inst.n, packing.trees
    if packing.root != root:
        raise ValueError(f"packing rooted at {packing.root}, instance root is {root}")
    if len(trees) != inst.num_trees:
        raise ValueError(f"packing has {len(trees)} trees, instance needs K={inst.num_trees}")
    violations: list[dict] = []
    totals = [0] * n
    for ti, parent in enumerate(trees):
        for child, par in parent.items():
            _edge_ids(par, child, ti)
        if root in parent:
            violations.append({"tree": ti, "vertex": root, "reason": "root must not have a parent"})
        kids: dict[int, list[int]] = {}
        for child, par in sorted(parent.items()):
            kids.setdefault(par, []).append(child)
            if 0 <= par < n:
                totals[par] += 1
            if not (0 <= child < n and 0 <= par < n):
                reason = f"edge ({par}, {child}) uses a vertex outside [0, {n})"
                violations.append({"tree": ti, "vertex": child, "reason": reason})
            elif not inst.has_edge(par, child):
                reason = f"edge ({par}, {child}) not in the instance graph"
                violations.append({"tree": ti, "vertex": child, "reason": reason})
        reached = [root]
        for v in reached:  # each child list is popped once, so a cycle through the root ends too
            reached.extend(kids.pop(v, ()))
        for v in sorted({*parent, *parent.values()}.difference(reached)):
            if 0 <= v < n and 0 <= parent.get(v, v) < n:  # not a child already reported for its edge
                violations.append({"tree": ti, "vertex": v, "reason": "not connected to the root"})
    for v, (total, cap) in enumerate(zip(totals, inst.capacities)):
        if total > cap:
            reason = f"capacity exceeded: {total} children across trees, capacity {cap}"
            violations.append({"tree": None, "vertex": v, "reason": reason})
    if stated is not None and stated != (counted := objective(packing)):
        reason = f"stated objective {stated}, counted {counted}"
        violations.append({"tree": None, "vertex": None, "reason": reason})
    return {"valid": not violations, "violations": violations}
