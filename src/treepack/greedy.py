"""Round-robin greedy baseline: a feasible packing of any instance kind, no optimality claim."""

from heapq import heappop, heappush
from itertools import compress

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

    Dead ends go last.  A vertex with no capacity left is dead: it can
    only be a leaf, in any tree, so a unit spent on it early is a unit
    that cannot carry that tree or another on to the live vertices
    behind.  In phase 1 the trees adopt only live vertices, and a scan
    of a member's offers stops at the first non-member whose input
    capacity is 0: the offers come in rank order, so none after it can be
    live.  Phase 2 starts once no tree can adopt a live vertex, and adopts
    the rest.

    Then one leaf re-hang round, tree by tree.  At tree i's turn take
    each leaf x whose parent p is dead, in map order.  Let j be the first
    tree holding p in which p has a non-member neighbor, w the first such
    neighbor in offer order, and q the first neighbor of x in offer order
    that has capacity left and was a member of tree i when the round
    began.  If both exist, x moves under q and p spends the unit it got
    back on w in tree j.  Tree i keeps its size and tree j gains w, so
    each move adds 1 to the objective.  x has no descendants, so no cycle
    can form.  The moved x is listed last in tree i's map, after q, so
    every map stays root outward in insertion order.  Then both phases
    run again from the members the round added: an older member with
    capacity left already has every neighbor in its tree.

    The offer order is one rank over all vertices per call, a stable sort
    of range(n) by -c_v.  One pass over the rank hands each vertex to its
    neighbors' offer lists, so every list comes out in rank order without
    a sort of its own: O(n log n + m) once.  On a complete kind every
    vertex offers the rank itself, one list for all: O(n) memory, and no
    neighbor list is built.

    Each tree is a generator, grow(parent, members, alive), suspended
    after each adoption in the middle of one scan: over its member list,
    which grows as it adopts, and over the current member's offers.
    Members that share an offer list share one scan of it.  Within a
    phase capacities only fall and member sets only grow, so a member
    that cannot adopt now never can again, and an offer already passed
    stays a member or dead.  Each tree therefore reads each offer list at
    most once per phase, and a tree that spans every vertex starts no
    scan: O((n + m)·K) time beyond the rank, O(n·K) on a complete kind,
    whose one list holds n vertices.  The round reads offer lists from
    cursors, one per list and tree, each moved past the vertices that can
    no longer serve: the members of tree j for w, and for q the vertices
    with no capacity left.  From its cursor a q search reads on past x
    and past vertices not near.  On a complete kind a tree that searches
    spans every vertex and its root has no capacity left (a root with
    capacity left after phase 2 made every tree span), so every vertex
    with capacity left is near, and a search reads on only when x rests
    at its cursor, over vertices the cursor passes later: each cursor
    reads each entry of its list at most twice.  That is O((n + m)·K)
    again, O(n·K) on a complete kind.  A vertex keeps the trees it
    belongs to in a heap: O(objective·log K).  Memory is O(n + m +
    objective), O(n + objective) on a complete kind, a tree's members
    being its root and its parent map's keys.
    """
    root = inst.root
    caps = list(inst.capacities)
    rank = sorted(range(inst.n), key=inst.capacities.__getitem__, reverse=True)  # stable: ties keep id order
    if inst.kind == KIND_COMPLETE:
        offers = [rank] * inst.n
    else:
        offers = [[] for _ in range(inst.n)]
        for w in rank:
            for u in inst.neighbors(w):
                offers[u].append(w)
    parents: list[dict[int, int]] = [{} for _ in range(inst.num_trees)]

    def grow(parent: dict[int, int], members: list[int], alive: bool):
        line = None
        for u in members:
            if caps[u] > 0:
                if offers[u] is not line:  # members that share an offer list share one scan of it
                    scan = iter(line := offers[u])
                for w in scan:
                    if w != root and w not in parent:
                        if caps[w] > 0 or not alive:
                            caps[u] -= 1
                            parent[w] = u
                            members.append(w)
                            yield
                            if caps[u] == 0:
                                break
                        elif not inst.capacities[w]:
                            break  # offers come in rank order: none after w had capacity to begin with

    def phases(lists: list[list[int]]) -> None:
        for alive in (True, False):
            turns = [grow(p, members, alive) for p, members in zip(parents, lists) if members and len(p) < inst.n - 1]
            while turns:
                turns = [t for t in turns if next(t, True) is None]

    # Cursors into offer lists, one per (list, tree): first_use's skip the root and
    # the tree's members, spare_member's the vertices with no capacity left.
    passed: dict[tuple[int, int], int] = {}
    spared: dict[tuple[int, int], int] = {}

    def first_use(p: int, home: list[int]) -> tuple[int, int] | None:
        """The first tree j in home, a heap, where p has a non-member neighbor w, and the first such w."""
        line = offers[p]
        while home:
            j = home[0]
            tree, key = parents[j], (id(line), j)
            g = passed.get(key, 0)
            while g < len(line) and (line[g] == root or line[g] in tree):
                g += 1
            passed[key] = g
            if g < len(line):
                return j, line[g]
            heappop(home)
        return None

    def spare_member(near: set[int], x: int, i: int) -> int | None:
        """The first neighbor q of x in offer order, not x, with capacity left and in near, tree i's set."""
        line, key = offers[x], (id(offers[x]), i)
        g = spared.get(key, 0)
        while g < len(line) and caps[line[g]] == 0:
            g += 1
        spared[key] = g
        return next((q for h in range(g, len(line)) if (q := line[h]) != x and caps[q] > 0 and q in near), None)

    def rehang() -> list[list[int]]:
        """One round of leaf moves; the members each tree gained."""
        fresh: list[list[int]] = [[] for _ in parents]
        spare = set(compress(range(inst.n), caps))  # capacities only fall: a superset from here on
        homes: list[list[int]] = [[] for _ in range(inst.n)]
        for j, parent in enumerate(parents):
            if len(parent) < inst.n - 1:  # a tree that spans every vertex has no use for a unit
                homes[root].append(j)
                for v in parent:
                    homes[v].append(j)
        for i, (parent, gained) in enumerate(zip(parents, fresh)):
            # The spare members since the round began.  The root is never q: with
            # capacity left after phase 2 it is the parent of all its neighbors.
            near = spare.intersection(parent).difference(gained)
            if not near:
                continue
            # Only a leaf next to a spare member can move; each distinct offer list is read once.
            nearby = set().union(*{id(offers[v]): offers[v] for v in near}.values())
            inner = set(parent.values())
            for x in [x for x in parent if x in nearby and caps[parent[x]] == 0 and x not in inner]:
                p = parent[x]
                if x in inner:  # x took a moved leaf earlier in this round
                    continue
                use = first_use(p, homes[p])
                q = spare_member(near, x, i) if use is not None else None
                if q is None:
                    continue
                j, w = use
                del parent[x]
                parent[x] = q
                parents[j][w] = p
                caps[q] -= 1
                inner.add(q)
                fresh[j].append(w)
                heappush(homes[w], j)
        return fresh

    phases([[root] for _ in parents])
    phases(rehang())
    return Packing(root, parents)
