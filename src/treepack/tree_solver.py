"""Exact solver for tree instances.

Every vertex u gets a stripe vector f_u: entry k (1-based) is the best
total occupancy inside u's subtree when u itself is served by k trees.  A
leaf scores k, just itself once per tree.  An inner vertex with capacity c
scores k plus the best way to hand out at most c child slots: child w
served at level j in 0..k costs j slots and gains f_w(j), with f_w(0) = 0.
The root's K-th entry is the instance optimum.

Every stripe vector is concave with marginals f(k) - f(k-1) >= 1, taking
f(0) = 0.  By induction from the leaves, whose vectors are linear: with
concave children, choosing the levels is a concave separable allocation,
which taking the largest marginals greedily solves exactly (Ibaraki &
Katoh, Resource Allocation Problems, 1988).  Every marginal is >= 1, so
all slots that can be used are, and f_u(k) = k + h(k), where h(k) is the
sum of the c largest elements of M_k, the children's marginals at levels
1..k.  A top-c sum is a weighted uniform-matroid rank, hence submodular,
and each child's level-(k+1) marginal is at most its level-k one.  So
h(k+1) - h(k), the gain of adding the level-(k+1) marginals to M_k, is at
most the gain of adding them to M_(k-1), which is at most the gain of
adding the level-k marginals to M_(k-1): h(k) - h(k-1).  As h never
decreases, f_u's marginals 1 + h(k) - h(k-1) are nonincreasing and >= 1.

One pass over k = 1..K with a min-heap of the c largest marginals so far
gives all K entries of a vertex with d children in O(d*K*log c) time.
Reconstruction reads each child's level off the same ranking.
"""

from heapq import heappush, heapreplace, nsmallest
from collections.abc import Sequence

from .core import KIND_TREE, Instance, Packing


def solve_mckp(
    stripes: int, capacity: int, child_values: Sequence[Sequence[int]]
) -> tuple[int, list[int]]:
    """Multiple-choice knapsack over the children of one vertex.

    The general reference: it is exact for any value vectors, concave or
    not.  The solver itself uses the greedy merge, which needs concave
    vectors; this table DP stays as the independent check of it.

    Args:
        stripes: number of trees k the vertex itself is served by (k >= 1).
        capacity: child slots available at the vertex.
        child_values: per child, gains[i-1] is the payoff for level i.

    Returns:
        (value, allocations) with value = stripes + sum of chosen gains and
        one level in 0..stripes per child (0 means not served), summing to
        at most capacity.  Among equal-value options for a child the lowest
        level wins, which keeps the result deterministic and biases toward
        spare capacity.

    The table for d children only needs capacity columns up to k*d: beyond
    that every child can already sit at the top level, so the values
    plateau and lookups clamp to the last stored column.
    """
    k = stripes
    if k < 1:
        raise ValueError(f"stripes: must be >= 1, got {k}")
    if capacity < 0:
        raise ValueError(f"capacity: must be >= 0, got {capacity}")
    for j, values in enumerate(child_values):
        if len(values) < k:
            raise ValueError(f"child {j}: value vector has {len(values)} entries, need {k}")

    choices: list[list[int]] = []
    prev = [k]  # no children: worth k at any capacity
    for d, values in enumerate(child_values, start=1):
        limit = min(capacity, k * d)
        row = [k] * (limit + 1)
        choice = [0] * (limit + 1)
        top = len(prev) - 1
        for c in range(1, limit + 1):
            best = prev[min(c, top)]
            pick = 0
            for i in range(1, min(k, c) + 1):
                cand = prev[min(c - i, top)] + values[i - 1]
                if cand > best:
                    best, pick = cand, i
            row[c] = best
            choice[c] = pick
        choices.append(choice)
        prev = row

    value = prev[min(capacity, len(prev) - 1)]
    allocations = [0] * len(child_values)
    c = capacity
    for d in range(len(child_values) - 1, -1, -1):
        pick = choices[d][min(c, len(choices[d]) - 1)]
        allocations[d] = pick
        c -= pick
    return value, allocations


def greedy_allocation(
    stripes: int, capacity: int, child_values: Sequence[Sequence[int]]
) -> list[int]:
    """Per-child levels at a vertex served by `stripes` trees.

    Takes the `capacity` largest marginals f_w(j) - f_w(j-1), j <= stripes,
    over all children w, ranked by larger marginal, then earlier child,
    then lower level; a child's level is how many of its marginals are
    taken.  For concave vectors, such as stripe vectors, this is the
    allocation solve_mckp returns.
    """
    ranked: list[tuple[int, int]] = []
    for i, values in enumerate(child_values):
        prev = 0
        for value in values[:stripes]:
            ranked.append((prev - value, i))
            prev = value
    levels = [0] * len(child_values)
    for _, i in nsmallest(capacity, ranked):
        levels[i] += 1
    return levels


def _rooted(inst: Instance) -> tuple[list[int], list[int]]:
    """Each vertex's parent toward the root (-1 at the root), plus a root-first order."""
    if inst.kind != KIND_TREE:
        raise ValueError(f"kind: expected a tree instance, got {inst.kind!r}")
    up = [-1] * inst.n
    order = [inst.root]
    for u in order:
        for w in inst.neighbors(u):
            if w != up[u]:
                up[w] = u
                order.append(w)
    return up, order


def stripe_values(inst: Instance) -> dict[int, list[int]]:
    """Stripe vectors of every vertex of a tree instance, by the greedy merge.

    Entry k-1 of vertex u's vector is the best occupancy of u's subtree
    with u served by k trees.  Children are finished before their parents
    (iterative, so path-like trees of any depth are fine).  For each inner
    vertex one pass over the levels pushes every child's level-k marginal
    into a min-heap holding the best `capacity` marginals so far, keeping
    their sum; entry k-1 is k plus that sum.
    """
    up, order = _rooted(inst)
    caps = inst.capacities
    count = inst.num_trees
    values: dict[int, list[int]] = {}
    for u in reversed(order):
        vecs = [values[w] for w in inst.neighbors(u) if w != up[u]]
        capacity = caps[u]
        taken: list[int] = []  # min-heap of the chosen marginals
        total = 0
        vec = []
        for k in range(count):
            for g in vecs:
                gain = g[k] - g[k - 1] if k else g[0]
                if len(taken) < capacity:
                    heappush(taken, gain)
                    total += gain
                elif taken and gain > taken[0]:
                    total += gain - heapreplace(taken, gain)
            vec.append(k + 1 + total)
        values[u] = vec
    return values


def solve_tree(inst: Instance, *, value_only: bool = False) -> tuple[int, Packing | None]:
    """Optimal packing of a tree instance.

    Returns the optimal objective and, unless value_only is set, a packing
    achieving it.  A vertex granted level s is in trees 0..s-1, so each
    stripe set is a prefix, carried as its length: the root is in all K
    trees, and a child given level j <= s by greedy_allocation is in its
    parent's first j.  The trees are nested: tree t+1's parent map is a
    sub-map of tree t's.  Each grant of a stripe to a child consumes one
    capacity unit.  The walk reads children off the adjacency, so the
    tree is rooted only once, inside stripe_values.
    """
    values = stripe_values(inst)
    count = inst.num_trees
    best = values[inst.root][count - 1]
    if value_only:
        return best, None
    caps = inst.capacities
    parent_maps: list[dict[int, int]] = [{} for _ in range(count)]
    stack = [(inst.root, -1, count)]
    while stack:
        u, up, level = stack.pop()
        kids = [w for w in inst.neighbors(u) if w != up]
        allocation = greedy_allocation(level, caps[u], [values[w] for w in kids])
        for w, granted in zip(kids, allocation):
            if granted:
                for s in range(granted):
                    parent_maps[s][w] = u
                stack.append((w, u, granted))
    return best, Packing(inst.root, parent_maps)
