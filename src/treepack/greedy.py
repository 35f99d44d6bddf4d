"""Round-robin greedy baseline: a feasible packing of any instance kind, no optimality claim."""

from .core import KIND_COMPLETE, Instance, Packing


def greedy_general(inst: Instance) -> Packing:
    """Round-robin greedy baseline for any instance kind.

    Each turn, each tree in order adopts the smallest vertex reachable
    through one of its members with spare capacity (members scanned in
    insertion order, so breadth first); rounds repeat until no tree can
    grow.  Feasible by construction.  No optimality claim.

    Runs in O((n + m)·K) time and O(n + objective) memory: capacities only
    fall and member sets only grow, so a member that cannot adopt now never
    can again.  A tree's members are its root and its parent map's keys.
    Each tree keeps a head index past its leading dead members and a cursor
    into the head's sorted neighbor list past neighbors the tree already
    holds; a scan stops at the first member that can adopt, so no other
    member needs a cursor.  On complete kinds every head scans range(n), so
    the cursor carries over between heads: O(n + K + objective) time.
    """
    root = inst.root
    count = inst.num_trees
    caps = list(inst.capacities)
    parents: list[dict[int, int]] = [{} for _ in range(count)]
    orders = [[root] for _ in range(count)]
    everyone = range(inst.n) if inst.kind == KIND_COMPLETE else None  # n >= 1: truthy
    scans = [(0, 0)] * count  # (head, cursor) per tree
    live = list(range(count))
    while live:
        growing = []
        for k in live:
            order, parent = orders[k], parents[k]
            i, j = scans[k]
            found = None
            while i < len(order):
                u = order[i]
                if caps[u] > 0:
                    nbrs = everyone or inst.neighbors(u)
                    while j < len(nbrs) and ((w := nbrs[j]) == root or w in parent):
                        j += 1
                    if j < len(nbrs):
                        found = u, nbrs[j]
                        break
                i, j = i + 1, j if everyone else 0
            scans[k] = i, j
            if found:
                u, w = found
                caps[u] -= 1
                parent[w] = u
                order.append(w)
                growing.append(k)
        live = growing
    return Packing(root, parents)
