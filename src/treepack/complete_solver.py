"""Exact solver for complete-graph instances.

Stage one builds one root path per tree in closed form.  With last the
highest-id non-root vertex of positive capacity and active = min(c_root,
K), path k < active is the root, the other vertices of capacity above k
(ascending id), then last; later paths are the root alone.  The residual
capacity is max(c_v - active, 0), except c_last at last.  Stage two turns
each path into a tree: in path order, every vertex with residual capacity
adopts the still-missing vertices (smallest id first) until the tree
spans everything or capacity runs out.  Those vertices are known before
any path is built: the root, the vertices with c_v > active, which lie
on every active path, and last.  Both stages are generators, and
attach_stage(inst) draws stage one itself at its first tree: path k is
filtered from path k-1 when tree k is asked for, and each tree comes in
its native form, its path and its runs of (adopter, adopted ids).
solve_complete turns the pairs into parent maps; the CLI takes the
optimum from optimal_objective and writes the document one tree at a
time as the pairs come (_packing_text, framed by core._document), so a
complete solve holds O(n) state plus one tree's text, and one that only
asks for the optimum builds no tree.

On a complete graph this is optimal.  Every capacity unit spent buys one
extra vertex occurrence, at most min(c_root, K) trees can be non-null
(each needs one root slot), and a tree holds at most n - 1 non-root
occurrences, which yields the closed-form optimum of optimal_objective.

The cost is output-sensitive: O(n + K + objective), never more than
O(nK).  A path costs its own length, and a tree its path plus the
vertices it adopts and the members skipped on the way to them.
"""

from collections.abc import Iterator
from itertools import compress, islice

from .core import KIND_COMPLETE, Instance, Packing, _document


def _require_complete(inst: Instance) -> None:
    if inst.kind != KIND_COMPLETE:
        raise ValueError(f"kind: expected a complete instance, got {inst.kind!r}")


def build_stage_paths(inst: Instance) -> tuple[Iterator[list[int]], list[int]]:
    """The K root paths in closed form, lazily, and the residual capacities.

    last is the highest-id non-root vertex with positive capacity and
    active = min(c_root, K) (0 if there is no last).  Path k < active is
    [root, *(v not in {root, last} with c_v > k, ascending), last]; later
    paths are [root].  The residual is max(c_v - active, 0), except c_last
    at last.  The paths come from a generator, each filtered from the one
    before when it is asked for, and only at a level some capacity has;
    a path equal to the one before is the same list object, so treat the
    lists as read-only.  O(n) up front, then O(K + path lengths).
    """
    _require_complete(inst)
    caps = inst.capacities
    root, count = inst.root, inst.num_trees
    inner = list(compress(range(inst.n), caps))  # the vertices of positive capacity
    if caps[root]:
        inner.remove(root)
    last = inner.pop() if inner else root  # last = root: no path is active
    active = min(caps[root], count) if last != root else 0
    residual = [c - active if c > active else 0 for c in caps]
    residual[last] = caps[last]

    def paths(inner: list[int]) -> Iterator[list[int]]:
        path, cuts = [root, *inner, last], set(map(caps.__getitem__, inner))
        for k in range(active):
            if k in cuts:  # some vertex has capacity k, so path k drops it
                inner = [v for v in inner if caps[v] > k]
                path = [root, *inner, last]
            yield path
        path = [root]
        for _ in range(count - active):
            yield path

    return paths(inner), residual


def attach_stage(inst: Instance) -> Iterator[tuple[list[int], list[tuple[int, list[int]]]]]:
    """Grow each root path of build_stage_paths(inst) into a tree; lazily.

    Yields one (path, runs) pair per tree: runs lists the tree's
    adoptions in order, as (adopter, adopted ids), each run after the
    path and the runs before it.  Stage one is drawn at the first tree.
    Only vertices with residual capacity adopt, and they are known up
    front: capacities never increase, so a vertex missing from path k
    had zero capacity when the path was built and still has zero now.
    The root is on every path, and every other vertex with residual
    capacity (c_v > active, or last) is on every active path; they adopt
    in path order, root first, then ascending id.  The missing vertices
    of active path k are those other than last with c_v <= k (the root's
    capacity is at least active), of a null path those other than the
    root; they are drawn lazily, smallest id first, until the tree spans
    everything or capacity runs out.  So a path is read only for its
    length and its last vertex.  A tree costs O(adopters + attached +
    the members skipped on the way).
    """
    caps, n, root = inst.capacities, inst.n, inst.root
    paths, residual = build_stage_paths(inst)
    funded = [v for v in compress(range(n), residual) if v != root]
    for k, path in enumerate(paths):
        runs, left = [], n - len(path)  # left: the vertices missing from the tree
        if len(path) > 1:  # an active path holds every funded vertex
            adopters, last = [root, *funded], path[-1]
            missing = (v for v in range(n) if caps[v] <= k and v != last)
        else:
            adopters, missing = [root], (v for v in range(n) if v != root)
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

    O(n + K + objective) time, never more than O(nK): every path vertex
    and every adopted vertex is an occurrence of the returned packing.
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
    A path is one join over a table of strings indexed by id, each id
    formatted once, for the vertices of the first path, which
    holds every later one's: "[root, " for the root, "v], [v, " for an
    inner vertex and "last]" for last.  A path that is the same list as
    the one before reuses its text; a run is one join after its
    adopter's "[p, " prefix.
    """
    value = optimal_objective(inst)
    trees = attach_stage(inst)

    def texts() -> Iterator[str]:
        links, text, prev = [], "", None  # links: indexed by id, lighter than a dict
        for path, runs in trees:
            if path is not prev:
                if not links:
                    links = [""] * inst.n
                    for v, x in zip(path, map(str, path)):
                        links[v] = f"{x}], [{x}, "
                    links[path[0]], links[path[-1]] = f"[{path[0]}, ", f"{path[-1]}]"
                text, prev = "".join([links[v] for v in path]) if len(path) > 1 else "", path
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
