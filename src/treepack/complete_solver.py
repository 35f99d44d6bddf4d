"""Exact solver for complete-graph instances.

Stage one builds one root path per tree in closed form.  With last the
highest-id non-root vertex of positive capacity and active = min(c_root,
K), the chain is the other non-root vertices of positive capacity, in
descending capacity, ties in ascending id (one stable sort).  Path k <
active is the root, the chain vertices of capacity above k, then last;
later paths are the root alone.  Since the chain is sorted by capacity,
the vertices of capacity above k are a prefix of it, so every active
path is the first one with its chain cut shorter.  The residual
capacity is max(c_v - active, 0), except c_last at last.  Stage two
turns each path into a tree: in path order, every vertex with residual
capacity adopts the still-missing vertices (smallest id first) until
the tree spans everything or capacity runs out.  Those vertices are
known before any path is built: the root, the vertices with c_v >
active, which head the chain and lie on every active path, and last.
Both stages are generators, and attach_stage(inst) draws stage one
itself at its first tree: path k is sliced from the chain when tree k
is asked for, and each tree comes in its native form, its path and its
runs of (adopter, adopted ids).  solve_complete turns the pairs into
parent maps; the CLI takes the optimum from optimal_objective and
writes the document one tree at a time as the pairs come (_packing_text,
framed by core._document), so a complete solve holds O(n) state plus
one tree's text, and one that only asks for the optimum builds no tree.

On a complete graph this is optimal.  The order inside a path is free:
any order of its vertices is a path of the complete graph, and each
vertex but last pays one unit for its successor in every order.  So a
path holds the vertices it would hold in id order, the residuals are
the same, and so is the count below.  Every capacity unit spent buys
one extra vertex occurrence, at most min(c_root, K) trees can be
non-null (each needs one root slot), and a tree holds at most n - 1
non-root occurrences, which yields the closed-form optimum of
optimal_objective.

The cost is output-sensitive: O(n log n + K + objective) time, never
more than O(n log n + nK), but only O(n + K + adopted ids) of it is
Python steps: the residuals, one step per level, a binary search per
distinct path and one step per run.  The rest is C-level: the sort, a slice per distinct path, the scans for
missing ids, and the text, where the first path's text is one format
and every later path's text is a slice of it.
"""

from bisect import bisect_left
from collections.abc import Iterator
from itertools import chain as concat, compress, islice

from .core import KIND_COMPLETE, Instance, Packing, _document


def _require_complete(inst: Instance) -> None:
    if inst.kind != KIND_COMPLETE:
        raise ValueError(f"kind: expected a complete instance, got {inst.kind!r}")


def build_stage_paths(inst: Instance) -> tuple[Iterator[list[int]], list[int]]:
    """The K root paths in closed form, lazily, and the residual capacities.

    last is the highest-id non-root vertex with positive capacity and
    active = min(c_root, K) (0 if there is no last).  The chain is the
    other non-root vertices of positive capacity, in descending capacity,
    ties in ascending id.  Path k < active is [root, *chain[:m_k], last],
    m_k counting the chain vertices of capacity above k; later paths are
    [root].  The residual is max(c_v - active, 0), except c_last at last.
    The paths come from a generator, each sliced from the chain when it
    is asked for, and only at a level some capacity has; a path equal to
    the one before is the same list object, so treat the lists as
    read-only.  O(n log n) up front (one sort), then O(K) steps, a
    binary search per distinct path and the path copies.
    """
    _require_complete(inst)
    caps = inst.capacities
    root, count = inst.root, inst.num_trees
    chain = list(compress(range(inst.n), caps))  # the vertices of positive capacity
    if caps[root]:
        chain.remove(root)
    last = chain.pop() if chain else root  # last = root: no path is active
    active = min(caps[root], count) if last != root else 0
    residual = [c - active if c > active else 0 for c in caps]
    residual[last] = caps[last]
    chain.sort(key=caps.__getitem__, reverse=True)  # stable: equal capacities keep id order

    def paths() -> Iterator[list[int]]:
        path, m = [root, *chain, last], len(chain)
        for k in range(active):
            if m and caps[chain[m - 1]] <= k:  # the chain's tail has capacity k: path k drops it
                m = bisect_left(chain, -k, hi=m, key=lambda v: -caps[v])
                path = path[: m + 2]  # one copy: the root, chain[:m], then a slot for last
                path[-1] = last
            yield path
        path = [root]
        for _ in range(count - active):
            yield path

    return paths(), residual


def attach_stage(inst: Instance) -> Iterator[tuple[list[int], list[tuple[int, list[int]]]]]:
    """Grow each root path of build_stage_paths(inst) into a tree; lazily.

    Yields one (path, runs) pair per tree: runs lists the tree's
    adoptions in order, as (adopter, adopted ids), each run after the
    path and the runs before it.  Stage one is drawn at the first tree.
    Only vertices with residual capacity adopt, and they are known up
    front: capacities never increase, so a vertex missing from path k
    had zero capacity when the path was built and still has zero now.
    The root is on every path, and every other vertex with residual
    capacity (c_v > active, or last) is on every active path, in the
    same order: they adopt in path order, as the first path lists them.
    The missing vertices of active path k are those other than last
    with c_v <= k (the root's capacity is at least active), of a null
    path those other than the root; they are drawn lazily, smallest id
    first, until the tree spans everything or capacity runs out.  So a
    path is read only for its length and its last vertex, and the first
    one for its funded vertices.  A tree costs O(adopters) steps, plus a
    C-level scan over the ids up to the last one it adopts.
    """
    caps, n, root = inst.capacities, inst.n, inst.root
    paths, residual = build_stage_paths(inst)
    funded: list[int] = []
    for k, path in enumerate(paths):
        runs, left = [], n - len(path)  # left: the vertices missing from the tree
        if len(path) > 1:  # an active path holds every funded vertex
            if not funded:  # the first path, before any adoption (last is always funded)
                funded = list(compress(path, map(residual.__getitem__, path)))
            adopters, last = funded, path[-1]
            missing = filter(last.__ne__, compress(range(n), map(k.__ge__, caps)))
        else:
            adopters, missing = [root], filter(root.__ne__, range(n))
        for v in compress(adopters, map(residual.__getitem__, adopters)):
            if not left:
                break  # the tree spans every vertex
            adopted = list(islice(missing, min(residual[v], left)))
            runs.append((v, adopted))
            residual[v] -= len(adopted)
            left -= len(adopted)
        yield path, runs


def solve_complete(inst: Instance) -> Packing:
    """Optimal packing of a complete instance.

    O(n log n + K + objective) time, never more than O(n log n + nK):
    every path vertex and every adopted vertex is an occurrence of the
    returned packing.
    Each parent map is its path's edges, then each run's, root outward.
    """
    trees = []
    for path, runs in attach_stage(inst):
        parent = dict(zip(path[1:], path))
        for adopter, ids in runs:
            parent.update(dict.fromkeys(ids, adopter))
        trees.append(parent)
    return Packing(inst.root, trees)


def _packing_text(inst: Instance) -> tuple[int, Iterator[str]]:
    """The optimum in closed form, and the packing document in chunks.

    The chunks are one per tree, then the tail with the objective and a
    newline; joined, they equal json.dumps(packing_to_dict(p)) plus "\n"
    for p = solve_complete(inst).  They are written from attach_stage's
    pairs as they come, with no parent map and no document-sized string.
    The first active path's text is one C-level format.  Every later
    active path is a prefix of that path plus last, so its text is a
    slice of that text plus "last]": the cut follows the text's one
    "[x, ", x the vertex before last, found by a backward search from the
    cut before.  A path that is the same list as the one before reuses
    its text; a run is one join after its adopter's "[p, " prefix.
    """
    value = optimal_objective(inst)
    trees = attach_stage(inst)

    def texts() -> Iterator[str]:
        full, prev = "", None
        for path, runs in trees:
            if path is not prev:
                text, prev = "", path
                if len(path) > 1:
                    if not full:  # the first active path: every later one is a prefix of it, then last
                        pairs = concat.from_iterable(zip(path, path[1:]))
                        full = ", ".join(["[%d, %d]"] * (len(path) - 1)) % tuple(pairs)
                        cut = len(full)
                    needle = f"[{path[-2]}, "  # full holds it once: x's edge, x the vertex before last
                    cut = full.rfind(needle, 0, cut) + len(needle)
                    text = full[:cut] + f"{path[-1]}]"
            edges = [text] if text else []
            edges += [f"[{p}, " + f"], [{p}, ".join(map(str, ids)) + "]" for p, ids in runs if ids]
            yield ", ".join(edges)

    return value, _document(texts(), value)


def optimal_objective(inst: Instance) -> int:
    """Closed-form optimum for complete instances.

    With active = min(c_root, K) trees that can be non-null, the spanned
    occurrences in those trees are min(active + sum(c), active * n); each
    of the K - active leftover trees still contributes its root.
    """
    _require_complete(inst)
    active = min(inst.capacities[inst.root], inst.num_trees)
    spanned = min(active + sum(inst.capacities), active * inst.n)
    return spanned + (inst.num_trees - active)
