"""Round-robin greedy baseline: a feasible packing of any instance kind, no optimality claim."""

from .core import KIND_COMPLETE, Instance, Packing


def greedy_general(inst: Instance) -> Packing:
    """Round-robin greedy baseline for any instance kind.

    Each turn, each tree in order adopts the smallest vertex reachable
    through one of its members with spare capacity (members scanned in
    insertion order, so breadth first); rounds repeat until no tree can
    grow.  Feasible by construction.  No optimality claim.

    Each tree is a generator, grow(parent), suspended after each adoption
    in the middle of one scan: over its member list, which grows as it
    adopts, and over the current member's neighbors.  Capacities only
    fall and member sets only grow, so a member that cannot adopt now
    never can again, and a neighbor already passed stays a member.  After
    each turn the scan leaves a member whose last unit of capacity is
    spent, by this tree or by another.  Each tree therefore reads each
    member's neighbors at most once: O((n + m)·K) time and
    O(n + objective) memory, a tree's members being its root and its
    parent map's keys.  On complete kinds all members of a tree share one
    pass over range(n), so no neighbor list is built and the time is
    O(n + K + objective).
    """
    root = inst.root
    caps = list(inst.capacities)

    def grow(parent: dict[int, int]):
        members = [root]
        everyone = iter(range(inst.n)) if inst.kind == KIND_COMPLETE else None
        for u in members:
            if caps[u] > 0:
                for w in everyone or inst.neighbors(u):
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
