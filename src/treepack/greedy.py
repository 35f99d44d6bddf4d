"""Round-robin greedy baseline: a feasible packing of any instance kind, no optimality claim."""

from .core import KIND_COMPLETE, Instance, Packing


def greedy_general(inst: Instance) -> Packing:
    """Round-robin greedy baseline for any instance kind.

    Each turn, each tree in order adopts one vertex reachable through one
    of its members with spare capacity (members scanned in insertion
    order, so breadth first).  A member offers its non-member neighbors
    in descending input capacity, ties to the smaller id, so the
    vertices that can carry the tree further join it first.  Rounds
    repeat until no tree can grow.  Feasible by construction.  No
    optimality claim.

    The offer order is one rank over all vertices per call, a stable sort
    of range(n) by -c_v.  One pass over the rank hands each vertex to its
    neighbors' offer lists, so every list comes out in rank order without
    a sort of its own: O(n log n + m) once.

    Each tree is a generator, grow(parent), suspended after each adoption
    in the middle of one scan: over its member list, which grows as it
    adopts, and over the current member's offers.  Capacities only fall
    and member sets only grow, so a member that cannot adopt now never
    can again, and an offer already passed stays a member.  After each
    turn the scan leaves a member whose last unit of capacity is spent,
    by this tree or by another.  Each tree therefore reads each member's
    offers at most once: O((n + m)·K) time beyond the rank and
    O(n + m + objective) memory, a tree's members being its root and its
    parent map's keys.  On complete kinds all members of a tree share one
    pass over the rank, so no neighbor list is built and the time is
    O(n log n + K + objective).
    """
    root = inst.root
    caps = list(inst.capacities)
    rank = sorted(range(inst.n), key=inst.capacities.__getitem__, reverse=True)  # stable: ties keep id order
    offers: list[list[int]] = []
    if inst.kind != KIND_COMPLETE:
        offers = [[] for _ in range(inst.n)]
        for w in rank:
            for u in inst.neighbors(w):
                offers[u].append(w)

    def grow(parent: dict[int, int]):
        members = [root]
        everyone = iter(rank) if inst.kind == KIND_COMPLETE else None
        for u in members:
            if caps[u] > 0:
                for w in everyone or offers[u]:
                    if w != root and w not in parent:
                        caps[u] -= 1
                        parent[w] = u
                        members.append(w)
                        yield
                        if caps[u] == 0:
                            break

    parents: list[dict[int, int]] = [{} for _ in range(inst.num_trees)]
    turns = [grow(parent) for parent in parents]
    while turns:
        turns = [t for t in turns if next(t, True) is None]
    return Packing(root, parents)
