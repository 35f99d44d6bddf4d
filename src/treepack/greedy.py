"""Round-robin greedy baseline: a feasible packing of any instance kind, no optimality claim."""

from .core import Instance, Packing


def greedy_general(inst: Instance) -> Packing:
    """Round-robin greedy baseline for any instance kind.

    Each turn, each tree in order adopts the smallest vertex reachable
    through one of its members with spare capacity (members scanned in
    insertion order, so breadth first); rounds repeat until no tree can
    grow.  Feasible by construction.  No optimality claim.

    Runs in O((n + m)·K): capacities only fall and member sets only grow,
    so a member that cannot adopt now never can again.  Each tree keeps a
    head index past its leading dead members and a cursor into the head's
    sorted neighbor list past neighbors the tree already holds.  A scan
    stops at the first member that can adopt, so no member past the head
    has been scanned and none needs a cursor of its own.
    """
    root = inst.root
    count = inst.num_trees
    caps = list(inst.capacities)
    parents: list[dict[int, int]] = [{} for _ in range(count)]
    orders = [[root] for _ in range(count)]
    members = [bytearray(inst.n) for _ in range(count)]
    for member in members:
        member[root] = 1
    scans = [(0, 0)] * count  # (head, cursor) per tree
    live = list(range(count))
    while live:
        growing = []
        for k in live:
            order, member = orders[k], members[k]
            i, j = scans[k]
            found = None
            while i < len(order):
                u = order[i]
                if caps[u] > 0:
                    nbrs = inst.neighbors(u)
                    while j < len(nbrs) and member[nbrs[j]]:
                        j += 1
                    if j < len(nbrs):
                        found = u, nbrs[j]
                        break
                i, j = i + 1, 0
            scans[k] = i, j
            if found:
                u, w = found
                caps[u] -= 1
                parents[k][w] = u
                member[w] = 1
                order.append(w)
                growing.append(k)
        live = growing
    return Packing(root, parents)
