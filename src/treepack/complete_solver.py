"""Exact solver for complete-graph instances.

Stage one builds one root path per tree in closed form.  With last the
highest-id non-root vertex of positive capacity and active = min(c_root,
K), path k < active is the root, the other vertices of capacity above k
(ascending id), then last; later paths are the root alone.  The residual
capacity is max(c_v - active, 0), except c_last at last.  Stage two turns
each path into a tree: scanning the path from the root, every vertex with
residual capacity adopts the still-missing vertices (smallest id first)
until the tree spans everything or capacity runs out.  It returns each
tree in that native form, its path and its runs of (adopter, adopted
ids); solve_complete turns the pairs into parent maps, and the CLI
writes the packing document straight from them, one tree at a time
(_packing_text), so a complete solve builds no parent map and no
document-sized string.

On a complete graph this is optimal.  Every capacity unit spent buys one
extra vertex occurrence, at most min(c_root, K) trees can be non-null
(each needs one root slot), and a tree holds at most n - 1 non-root
occurrences, which yields the closed-form optimum of optimal_objective.

The cost is output-sensitive: O(n + K + objective), never more than
O(nK).  A path costs its own length, and a tree its path plus the
vertices it adopts and the members skipped on the way to them.
"""

from collections.abc import Iterator
from itertools import compress, filterfalse, islice

from .core import KIND_COMPLETE, Instance, Packing


def _require_complete(inst: Instance) -> None:
    if inst.kind != KIND_COMPLETE:
        raise ValueError(f"kind: expected a complete instance, got {inst.kind!r}")


def build_stage_paths(inst: Instance) -> tuple[list[list[int]], list[int]]:
    """Build the K root paths in closed form; returns (paths, residual capacities).

    last is the highest-id non-root vertex with positive capacity and
    active = min(c_root, K) (0 if there is no last).  Path k < active is
    [root, *(v not in {root, last} with c_v > k, ascending), last]; later
    paths are [root].  The residual is max(c_v - active, 0), except c_last
    at last.  Each path filters the previous one: O(n + K + path lengths).
    """
    _require_complete(inst)
    caps = inst.capacities
    root, count = inst.root, inst.num_trees
    inner = [v for v in range(inst.n) if v != root and caps[v] > 0]
    last = inner.pop() if inner else root  # last = root: no path is active
    active = min(caps[root], count) if last != root else 0
    paths = []
    for k in range(active):
        inner = [v for v in inner if caps[v] > k]
        paths.append([root, *inner, last])
    paths += [[root] for _ in range(count - active)]
    residual = [c - active if c > active else 0 for c in caps]
    residual[last] = caps[last]
    return paths, residual


def attach_stage(inst: Instance, paths: list[list[int]], residual: list[int]) -> list[tuple]:
    """Grow each path into a tree using the shared residual capacity.

    Returns one (path, runs) pair per tree: runs lists the tree's
    adoptions in order, as (adopter, adopted ids), each run after the
    path and the runs before it.  Only path vertices are scanned for
    spare capacity.  That is enough: capacities never increase, so a
    vertex missing from path k had zero capacity when the path was built
    and still has zero now; every unit usable by tree k sits on the path
    itself.  The scan visits only the path vertices with spare capacity
    left (compress over their current capacities), and the missing
    vertices are drawn lazily from the ids not on the path, so a tree
    costs O(path + attached) rather than O(n).  The path's vertex set
    for that filter is built only when some vertex has spare capacity:
    on large complete instances most trees adopt nothing.
    """
    _require_complete(inst)
    caps = list(residual)
    n = inst.n
    trees = []
    for path in paths:
        missing, runs = None, []
        for v in compress(path, map(caps.__getitem__, path)):
            missing = missing or filterfalse(set(path).__contains__, range(n))
            spare = caps[v]
            # islice needs a word-sized stop; a capacity may be larger.
            adopted = list(islice(missing, min(spare, n)))
            runs.append((v, adopted))
            caps[v] = spare - len(adopted)
            if len(adopted) < spare:
                break  # the tree spans every vertex
        trees.append((path, runs))
    return trees


def solve_complete(inst: Instance) -> Packing:
    """Optimal packing of a complete instance.

    O(n + K + objective) time, never more than O(nK): every path vertex
    and every adopted vertex is an occurrence of the returned packing.
    Each parent map is its path's edges, then each run's, root outward.
    """
    trees = []
    for path, runs in attach_stage(inst, *build_stage_paths(inst)):
        parent = dict(zip(path[1:], path))
        for adopter, ids in runs:
            parent.update(dict.fromkeys(ids, adopter))
        trees.append(parent)
    return Packing(inst.root, trees)


def _packing_text(trees: list[tuple]) -> tuple[int, Iterator[str]]:
    """The objective of attach_stage's trees, and their packing document in chunks.

    The chunks are one per tree, then the tail with the objective and a
    newline; joined, they equal _packing_json(solve_complete(inst), n)
    plus "\n", with no parent map and no document-sized string.  A path
    is one join over a table of "v], [v" strings, built from the first
    path's inner vertices, which hold every later path's; a run is one
    join after its adopter's "[p, " prefix.
    """
    value = sum([len(path) + sum([len(ids) for _, ids in runs]) for path, runs in trees])
    links = {v: f"{v}], [{v}" for v in trees[0][0][1:-1]}

    def chunks() -> Iterator[str]:
        head = '{"trees": ['
        for path, runs in trees:
            inner = map(links.__getitem__, path[1:-1])
            edges = [f"[{', '.join([str(path[0]), *inner, str(path[-1])])}]"] if path[1:] else []
            edges += [f"[{p}, " + f"], [{p}, ".join(map(str, ids)) + "]" for p, ids in runs if ids]
            yield f'{head}{{"edges": [{", ".join(edges)}]}}'
            head = ", "
        yield f'], "objective": {value}}}\n'

    return value, chunks()


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
