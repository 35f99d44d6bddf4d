"""Exact solver for tree instances.

Every vertex u has a value function f_u: f_u(k) is the best total
occupancy inside u's subtree when u itself is served by k trees.  A leaf
scores k, just itself once per tree.  An inner vertex with capacity c
scores k plus the best way to hand out at most c child slots: child w
served at level j in 0..k costs j slots and gains f_w(j), with f_w(0) = 0.
The root's value at K is the instance optimum.

Every f_u is concave with marginals f(k) - f(k-1) >= 1, taking f(0) = 0.
By induction from the leaves, whose functions are linear: with concave
children, choosing the levels is a concave separable allocation, which
taking the largest marginals greedily solves exactly (Ibaraki & Katoh,
Resource Allocation Problems, 1988).  Every marginal is >= 1, so all
slots that can be used are, and f_u(k) = k + h(k), where h(k) is the sum
of the c largest elements of M_k, the children's marginals at levels
1..k.  A top-c sum is a weighted uniform-matroid rank, hence submodular,
and each child's level-(k+1) marginal is at most its level-k one.  So
h(k+1) - h(k), the gain of adding the level-(k+1) marginals to M_k, is at
most the gain of adding them to M_(k-1), which is at most the gain of
adding the level-k marginals to M_(k-1): h(k) - h(k-1).  As h never
decreases, f_u's marginals 1 + h(k) - h(k-1) are nonincreasing and >= 1.

So the levels whose marginal exceeds 1 form a prefix, and f_u is stored
once, as its excess list e_u: entry k-1 is f_u(k) - f_u(k-1) - 1, listed
only while it is positive.  Then f_u(k) = k + sum(e_u[:k]), and every
later marginal is 1.  With d children, M_k holds d*k marginals, so h(k)
is min(c, d*k) for the marginals themselves plus the sum of the c largest
child excesses at levels 1..k.  One pass over the levels with a min-heap
of those excesses builds e_u and stops at the first level that adds
nothing, or at u's reach, the most trees u can be served by: K at the
root, and min(reach(u), c_u) for a child of u, which is served by no
more trees than u and takes at most c_u of u's slots.  Cutting a child
w's list at reach(w) changes nothing at u: at a level past c_u, w's
first c_u excesses are each at least as large as the one cut, so the
sum of the c_u largest stays the same.  A vertex costs O((d + L) * log
c), where L is the length of its own and its children's lists, never
more than its reach each.  Reconstruction reads each child's level off
the same ranking.

The tree is rooted once, into child lists; leaves and vertices of
capacity 0 take no part in the merge.  The optimum, K plus the sum of
the root's list, is known before any tree is built.  Reconstruction is
one walk from the root that keeps, in the order it grants them, each
granted child and its level s, the number of trees it is in (trees
0..s-1); tree t is the walk's grants of level above t.  The CLI writes
the document from those grants one tree at a time, each "[parent,
child]" string formatted once (_packing_text), so a tree solve holds
O(n) state plus one tree's text; solve_tree builds K parent maps from
the same grants.
"""

from heapq import heappush, heappushpop, nsmallest
from collections.abc import Iterator, Sequence

from .core import KIND_TREE, Instance, Packing, _document


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


def greedy_allocation(stripes: int, capacity: int, excesses: Sequence[Sequence[int]]) -> list[int]:
    """Per-child levels at a vertex served by `stripes` trees.

    Takes the `capacity` largest marginals at levels <= stripes over all
    children, ranked by larger marginal, then earlier child, then lower
    level; a child's level is how many of its marginals are taken.  The
    marginals above 1 are the children's excess lists, as stripe_values
    returns them, and rank first; the slots left over go to marginals of
    exactly 1, child by child, each child taking the levels past its list
    in one step.  For concave value functions this is the allocation
    solve_mckp returns.
    """
    ranked = [(-x, i) for i, excess in enumerate(excesses) for x in excess[:stripes]]
    levels = [0] * len(excesses)
    for _, i in nsmallest(capacity, ranked):
        levels[i] += 1
    spare = max(capacity - len(ranked), 0)
    for i, excess in enumerate(excesses):
        ones = min(max(stripes - len(excess), 0), spare)
        levels[i] += ones
        spare -= ones
    return levels


def _rooted(inst: Instance) -> tuple[list, list[int], list[int]]:
    """Child lists, the vertices that can serve a child (root first), and reach.

    reach[v] bounds the trees v can be served by: K at the root, and
    min(reach[u], c_u) for a child of u (0 outside the order).  Only a
    vertex with children and positive capacity is in the order: a leaf
    and a vertex of capacity 0 have the empty excess list and grant
    nothing, and nothing below a vertex of capacity 0 is ever served.
    children[u] lists all of u's children in ascending id, and is () for
    a vertex outside the order.
    """
    if inst.kind != KIND_TREE:
        raise ValueError(f"kind: expected a tree instance, got {inst.kind!r}")
    caps, adjacency, n = inst.capacities, inst._adjacency, inst.n  # sorted neighbor tuples
    up = [-1] * n
    reach = [0] * n
    reach[inst.root] = inst.num_trees
    children: list = [()] * n
    order = [inst.root] if caps[inst.root] and n > 1 else []
    for u in order:
        kids = children[u] = [w for w in adjacency[u] if w != up[u]]
        below = min(reach[u], caps[u])
        for w in kids:
            if caps[w] and len(adjacency[w]) > 1:
                up[w] = u
                reach[w] = below
                order.append(w)
    return children, order, reach


def stripe_values(inst: Instance) -> dict[int, list[int]]:
    """Excess lists of every vertex of a tree instance, by the greedy merge.

    Entry k-1 of vertex u's list is f_u(k) - f_u(k-1) - 1, where f_u(k) is
    the best occupancy of u's subtree with u served by k trees.  The list
    ends before the first level whose marginal is 1, or at u's reach, the
    most trees u can be served by, so f_u(k) = k + sum(list[:k]) for every
    k up to the reach.  Leaves and vertices of capacity 0 keep the empty
    list and cost nothing past the rooting.  Children are finished before
    their parents (iterative, so path-like trees of any depth are fine).
    For each vertex in the order, one pass over the levels pushes every
    child's level-k excess into a min-heap holding the best `capacity`
    excesses so far, keeping their sum; u's level-k excess is the growth
    of min(capacity, d*k), for d children, plus the growth of that sum,
    and the pass stops where it is 0.
    """
    children, order, reach = _rooted(inst)
    caps = inst.capacities
    values: dict[int, list[int]] = {v: [] for v in range(inst.n)}
    for u in reversed(order):
        capacity, d = caps[u], len(children[u])
        kids = [e for w in children[u] if (e := values[w])]  # the children with an excess
        taken: list[int] = []  # min-heap of the chosen excesses
        total = reached = 0
        values[u] = excess = []
        for k in range(reach[u]):
            kids = [e for e in kids if len(e) > k] if k else kids
            for e in kids:
                if len(taken) < capacity:
                    heappush(taken, e[k])
                    total += e[k]
                elif e[k] > taken[0]:
                    total += e[k] - heappushpop(taken, e[k])
            grown = min(capacity, d * (k + 1)) + total
            if grown == reached:
                break
            excess.append(grown - reached)
            reached = grown
    return values


def _grants(
    inst: Instance, values: dict[int, list[int]]
) -> tuple[list[tuple[int, int]], list[int]]:
    """The walk's grants in order, as (child, parent) pairs, and each child's level.

    A vertex granted level s is in trees 0..s-1, so each stripe set is a
    prefix, carried as its length: the root holds level K, and a child
    given level j <= s by greedy_allocation is in its parent's first j.
    The walk reads each granted vertex's children off the adjacency (the
    tree was rooted in stripe_values) and descends only into vertices
    with a non-empty excess list, which are exactly those of _rooted's
    order (reach >= 1 and a first excess >= 1): leaves and vertices of
    capacity 0 keep [] and end the walk.
    """
    caps, adjacency = inst.capacities, inst._adjacency
    pairs: list[tuple[int, int]] = []
    levels: list[int] = []
    stack = [(inst.root, -1, inst.num_trees)]
    while stack:
        u, up, level = stack.pop()
        kids = [w for w in adjacency[u] if w != up]
        allocation = greedy_allocation(level, caps[u], [values[w] for w in kids])
        for w, granted in zip(kids, allocation):
            if granted:
                pairs.append((w, u))
                levels.append(granted)
                if values[w]:
                    stack.append((w, u, granted))
    return pairs, levels


def _nested(items: list, levels: list[int], count: int) -> Iterator[list]:
    """Per tree t < count, the items whose level exceeds t, in order.

    Tree t's list is filtered from tree t-1's only where some item's
    level is t, and is otherwise the same list object; a filter costs
    tree t-1's size, so the work is O(count + the items' total level).
    """
    cuts = set(levels)
    for t in range(1, count + 1):
        yield items
        if t in cuts:
            items = [x for x, level in zip(items, levels) if level > t]
            levels = [level for level in levels if level > t]


def solve_tree(inst: Instance, *, value_only: bool = False) -> tuple[int, Packing | None]:
    """Optimal packing of a tree instance.

    Returns the optimal objective and, unless value_only is set, a packing
    achieving it: tree t's parent map holds the walk's grants of level
    above t, in walk order, so the trees are nested (tree t+1's map is a
    sub-map of tree t's) and each map lists every child after its parent.
    Each grant of a stripe to a child consumes one capacity unit.
    """
    values = stripe_values(inst)
    best = inst.num_trees + sum(values[inst.root])
    if value_only:
        return best, None
    pairs, levels = _grants(inst, values)
    return best, Packing(inst.root, [dict(t) for t in _nested(pairs, levels, inst.num_trees)])


def _packing_text(inst: Instance) -> tuple[int, Iterator[str]]:
    """The optimum, and the packing document in chunks, one per tree then the tail.

    The optimum comes from the root's excess list before any tree is
    built; the walk runs when the first chunk is asked for.  Each
    "[parent, child]" string is formatted once, and a tree's text is
    joined again only where a level ends.  Joined, the chunks equal
    json.dumps(packing_to_dict(solve_tree(inst)[1])) plus "\n".
    """
    values = stripe_values(inst)
    best = inst.num_trees + sum(values[inst.root])

    def texts() -> Iterator[str]:
        pairs, levels = _grants(inst, values)
        edges = [f"[{p}, {c}]" for c, p in pairs]
        text, prev = "", None
        for tree in _nested(edges, levels, inst.num_trees):
            if tree is not prev:
                text, prev = ", ".join(tree), tree
            yield text

    return best, _document(texts(), best)
