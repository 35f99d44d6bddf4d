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
    behind.  In phase 1 the trees adopt only live vertices.  Phase 2
    starts once no tree can adopt a live vertex, and adopts the rest.

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
    a sort of its own: O(n log n + m) once.

    Each tree is a generator, grow(parent, members, alive), suspended
    after each adoption in the middle of one scan: over its member list,
    which grows as it adopts, and over the current member's offers.
    Within a phase capacities only fall and member sets only grow, so a
    member that cannot adopt now never can again, and an offer already
    passed stays a member or dead.  Each tree therefore reads each
    member's offers at most once per phase: O((n + m)·K) time beyond the
    rank.  The round reads each leaf's offers once per tree, and each
    parent's offers once per tree it belongs to, from a cursor, which
    is O((n + m)·K) again.  A vertex keeps the trees it belongs to in a
    heap: O(objective·log K).  Memory is O(n + m + objective), a tree's
    members being its root and its parent map's keys.

    On complete kinds no neighbor list is built.  The vertices with
    capacity left form one shared list over the rank, ending at the
    first vertex of input capacity 0.  A dead vertex leaves the list the
    first time a tree meets it, so the trees do not each skip it.  In
    phase 1 all members of a tree share one pass over that list, in
    phase 2 one pass over the rank.  After phase 2 a tree with a spare
    member spans every vertex, so in the round q is the first vertex of
    the list other than x, and w is tree j's first non-member, from one
    cursor over the rank per tree.  The time is O(n log n + K +
    objective·log K), the list's amortized cost near constant, and the
    packing is the one the same graph given as general gets.
    """
    root = inst.root
    caps = list(inst.capacities)
    rank = sorted(range(inst.n), key=inst.capacities.__getitem__, reverse=True)  # stable: ties keep id order
    complete = inst.kind == KIND_COMPLETE
    offers: list[list[int]] = []
    if not complete:
        offers = [[] for _ in range(inst.n)]
        for w in rank:
            for u in inst.neighbors(w):
                offers[u].append(w)
    parents: list[dict[int, int]] = [{} for _ in range(inst.num_trees)]

    # Complete kinds: positions in rank of the vertices that may have
    # capacity left, ending at the first vertex of input capacity 0.
    # after[p] == p marks a listed position; a removed one points further
    # on (a union-find over positions).
    end = inst.n - inst.capacities.count(0)
    after = list(range(end + 1)) if complete else []

    def live():
        """The vertices with capacity left, in rank order; a dead one leaves the list when met."""
        p = 0
        while p < end:
            nxt = after[p]
            if nxt != p:
                after[p] = after[nxt]
                p = nxt
            elif caps[rank[p]] > 0:
                yield rank[p]
                p += 1
            else:
                after[p] = p + 1
                p += 1

    def grow(parent: dict[int, int], members: list[int], alive: bool):
        everyone = (live() if alive else iter(rank)) if complete else None
        for u in members:
            if caps[u] > 0:
                for w in everyone or offers[u]:
                    if w != root and w not in parent and (caps[w] > 0 or not alive):
                        caps[u] -= 1
                        parent[w] = u
                        members.append(w)
                        yield
                        if caps[u] == 0:
                            break

    def phases(lists: list[list[int]]) -> None:
        for alive in (True, False):
            turns = [grow(parent, members, alive) for parent, members in zip(parents, lists) if members]
            while turns:
                turns = [t for t in turns if next(t, True) is None]

    def spare_member(near: set[int], x: int) -> int | None:
        # On complete kinds near is empty unless the tree spans every vertex, so the
        # first live vertex other than x and the root is in it.
        return next((q for q in (live() if complete else offers[x]) if q != x and caps[q] > 0 and q in near), None)

    passed: dict = {}  # first_use's cursors: per tree on complete kinds, else per (vertex, tree)

    def first_use(p: int, home: list[int]) -> tuple[int, int] | None:
        """The first tree j in home, a heap, where p has a non-member neighbor w, and the first such w."""
        while home:
            j = home[0]
            tree = parents[j]
            line, key = (rank, j) if complete else (offers[p], (p, j))
            g = passed.get(key, 0)
            while g < len(line) and (line[g] == root or line[g] in tree):
                g += 1
            passed[key] = g
            if g < len(line):
                return j, line[g]
            heappop(home)
        return None

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
        for parent, gained in zip(parents, fresh):
            # The spare members since the round began.  The root is never q: with
            # capacity left after phase 2 it is the parent of all its neighbors.
            near = spare.intersection(parent).difference(gained)
            if not near:
                continue
            inner = set(parent.values())
            # Only a leaf next to a spare member can move; on complete kinds every vertex is.
            nearby = parent if complete else set().union(*map(offers.__getitem__, near))
            for x in [x for x in parent if x in nearby and caps[parent[x]] == 0 and x not in inner]:
                p = parent[x]
                if x in inner:  # x took a moved leaf earlier in this round
                    continue
                use = first_use(p, homes[p])
                q = spare_member(near, x) if use is not None else None
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
