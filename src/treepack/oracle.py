"""Exhaustive reference solver for small instances, plus a greedy baseline.

The exhaustive search enumerates every capacity-feasible packing exactly
once: each tree is generated through binary take-or-skip decisions over
an ordered stream of candidate edges, packings that differ only by tree
order are collapsed by requiring non-increasing canonical encodings
across the K slots, and an admissible bound on the best possible
completion prunes hopeless branches without affecting exactness.
"""

from __future__ import annotations

from .core import Instance, Packing, RootedTree, SearchLimitExceeded


def brute_force_solve(inst: Instance, *, max_n: int = 8, max_k: int = 3) -> tuple[int, Packing]:
    """Exact optimum by exhaustive enumeration.

    Intended for desk-size verification only; instances beyond the limits
    raise SearchLimitExceeded instead of running unboundedly.
    """
    if inst.n > max_n:
        raise SearchLimitExceeded(f"n={inst.n} exceeds the search limit max_n={max_n}")
    if inst.num_trees > max_k:
        raise SearchLimitExceeded(
            f"K={inst.num_trees} exceeds the search limit max_k={max_k}"
        )
    n = inst.n
    count = inst.num_trees
    root = inst.root
    last = count - 1
    adjacency = {v: inst.neighbors(v) for v in range(n)}
    caps = list(inst.capacities)
    root_edges = [(root, w) for w in adjacency[root]]

    # K null trees are always feasible, so start from that packing.
    best_value = count
    best_trees: list[dict[int, int]] = [{} for _ in range(count)]
    cap_total = sum(caps)
    done: list[dict[int, int]] = []
    encs: list[tuple] = []

    def grow(slot: int, done_value: int, parent: dict[int, int], members: set[int], ext: list[tuple[int, int]]) -> None:
        nonlocal best_value, best_trees, cap_total
        slots_left = last - slot
        spare = min(caps[root], slots_left) * (n - 1) + (n - len(members))
        if done_value + len(members) + slots_left + min(spare, cap_total) <= best_value:
            return
        # The tree as currently built is itself a candidate for this slot.
        if slot == last:
            if count == 1 or tuple(sorted(parent.items())) <= encs[-1]:
                value = done_value + len(members)
                if value > best_value:
                    best_value = value
                    best_trees = [dict(t) for t in done] + [dict(parent)]
        else:
            enc = tuple(sorted(parent.items()))
            if slot == 0 or enc <= encs[-1]:
                done.append(parent)
                encs.append(enc)
                grow(slot + 1, done_value + len(members), {}, {root}, list(root_edges))
                encs.pop()
                done.pop()
        # Grow further: take candidate edges in order; skipping one bans it
        # for the rest of this branch, which makes every tree reachable by
        # exactly one decision path.
        for idx, (u, v) in enumerate(ext):
            if v in members or caps[u] == 0:
                continue
            caps[u] -= 1
            cap_total -= 1
            parent[v] = u
            members.add(v)
            new_ext = [(v, w) for w in adjacency[v] if w not in members] + ext[idx + 1 :]
            grow(slot, done_value, parent, members, new_ext)
            del parent[v]
            members.remove(v)
            caps[u] += 1
            cap_total += 1

    grow(0, 0, {}, {root}, list(root_edges))
    packing = Packing(tuple(RootedTree(root, pm) for pm in best_trees))
    return best_value, packing


def greedy_general(inst: Instance) -> Packing:
    """Round-robin greedy baseline for any instance kind.

    Each turn, each tree in order adopts the smallest vertex reachable
    through one of its members with spare capacity (members scanned in
    insertion order, so breadth first); rounds repeat until no tree can
    grow.  Feasible by construction.  No optimality claim.

    Runs in O((n + m)·K): capacities only fall and member sets only grow,
    so a member that cannot adopt now never can again.  Each tree keeps a
    head index past its leading dead members and, per member, a cursor
    into the sorted neighbor list past neighbors it already holds.
    """
    n = inst.n
    root = inst.root
    caps = list(inst.capacities)
    parents: list[dict[int, int]] = []
    orders: list[list[int]] = []
    members: list[bytearray] = []
    cursors: list[list[int]] = []  # per member, parallel to orders[k]
    for _ in range(inst.num_trees):
        parents.append({})
        orders.append([root])
        member = bytearray(n)
        member[root] = 1
        members.append(member)
        cursors.append([0])
    heads = [0] * inst.num_trees
    live = list(range(inst.num_trees))
    while live:
        growing = []
        for k in live:
            order, member, cursor = orders[k], members[k], cursors[k]
            i = heads[k]
            found = None
            while i < len(order):
                u = order[i]
                if caps[u] > 0:
                    nbrs = inst.neighbors(u)
                    j = cursor[i]
                    while j < len(nbrs) and member[nbrs[j]]:
                        j += 1
                    cursor[i] = j
                    if j < len(nbrs):
                        found = u, nbrs[j]
                        break
                i += 1
            heads[k] = i
            if found:
                u, w = found
                caps[u] -= 1
                parents[k][w] = u
                member[w] = 1
                order.append(w)
                cursor.append(0)
                growing.append(k)
        live = growing
    return Packing(tuple(RootedTree(root, pm) for pm in parents))
