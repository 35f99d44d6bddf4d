"""Exhaustive reference solver for small instances.

The exhaustive search enumerates every capacity-feasible packing exactly
once: each tree is generated through binary take-or-skip decisions over
an ordered stream of candidate edges, packings that differ only by tree
order are collapsed by requiring non-increasing canonical encodings
across the K slots, and an admissible bound on the best possible
completion prunes hopeless branches without affecting exactness.
"""

from .core import Instance, Packing, SearchLimitExceeded


def brute_force_solve(inst: Instance, *, max_n: int = 8, max_k: int = 3) -> tuple[int, Packing]:
    """Exact optimum by exhaustive enumeration.

    Intended for desk-size verification only; instances beyond the limits,
    or whose search is deeper than Python's recursion limit, raise
    SearchLimitExceeded instead of running unboundedly.
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
    adjacency = [inst.neighbors(v) for v in range(n)]
    caps = list(inst.capacities)
    root_edges = [(root, w) for w in adjacency[root]]

    # K null trees are always feasible, so start from that packing.
    best_value = count
    best_trees: list[dict[int, int]] = [{} for _ in range(count)]
    cap_total = sum(caps)
    done: list[tuple[tuple, dict[int, int]]] = []  # (encoding, parent map) per filled slot

    def grow(slot: int, done_value: int, parent: dict[int, int], ext: list[tuple[int, int]]) -> None:
        nonlocal best_value, best_trees, cap_total
        size = len(parent) + 1  # the tree's vertices: the root and the map's keys
        slots_left = last - slot
        spare = min(caps[root], slots_left) * (n - 1) + (n - size)
        if done_value + size + slots_left + min(spare, cap_total) <= best_value:
            return
        # The tree as currently built is itself a candidate for this slot.
        enc = tuple(sorted(parent.items())) if last else None
        if not done or enc <= done[-1][0]:
            if slot < last:
                done.append((enc, parent))
                grow(slot + 1, done_value + size, {}, root_edges)
                done.pop()
            elif done_value + size > best_value:
                best_value = done_value + size
                best_trees = [dict(t) for _, t in done] + [dict(parent)]
        # Grow further: take candidate edges in order; skipping one bans it
        # for the rest of this branch, which makes every tree reachable by
        # exactly one decision path.
        for idx, (u, v) in enumerate(ext):
            if v in parent or caps[u] == 0:  # no candidate ends at the root
                continue
            caps[u] -= 1
            cap_total -= 1
            parent[v] = u
            new_ext = [(v, w) for w in adjacency[v] if w != root and w not in parent] + ext[idx + 1 :]
            grow(slot, done_value, parent, new_ext)
            del parent[v]
            caps[u] += 1
            cap_total += 1

    try:
        grow(0, 0, {}, root_edges)
    except RecursionError:  # one level per edge taken, so a long path can run out of stack
        raise SearchLimitExceeded(f"n={n}: the search is deeper than the recursion limit") from None
    return best_value, Packing(root, best_trees)
