"""Exact solver for complete-graph instances.

The solver runs in two stages over a shared, mutating capacity vector.
Stage one builds one root path per tree: the path threads through every
vertex that still has spare capacity (ascending id after the root) and
charges one unit to each path vertex except the last.  If the root is out
of capacity the path degenerates to the root alone.  Stage two turns each
path into a tree: scanning the path from the root, every vertex with
leftover capacity adopts the still-missing vertices (smallest id first)
until the tree spans everything or capacity runs out.

On a complete graph this is optimal.  Every capacity unit spent buys one
extra vertex occurrence, at most min(c_root, K) trees can be non-null
(each needs one root slot), and a tree holds at most n - 1 non-root
occurrences, which yields the closed-form optimum of optimal_objective.

The cost is output-sensitive: O(n + K + objective), never more than
O(nK).  Stage one keeps the vertices with spare capacity in a shrinking
list, so a path costs its own length; stage two draws the missing
vertices lazily and stops once the path's capacity or the missing
vertices run out, so a tree costs its path plus the vertices it adopts
and the members skipped on the way to them.
"""

from __future__ import annotations

from itertools import compress, filterfalse, islice

from .core import KIND_COMPLETE, Instance, Packing


def _require_complete(inst: Instance) -> None:
    if inst.kind != KIND_COMPLETE:
        raise ValueError(f"kind: expected a complete instance, got {inst.kind!r}")


def build_stage_paths(inst: Instance) -> tuple[list[list[int]], list[int]]:
    """Build the K root paths; returns (paths, residual capacities).

    Each path starts at the root; a single-vertex path pays nothing since
    its only vertex is also the termination vertex.  The non-root vertices
    with spare capacity are kept in a list that shrinks as they run out,
    so the work is O(n + K) plus the total path length.
    """
    _require_complete(inst)
    caps = list(inst.capacities)
    root = inst.root
    alive = [v for v in range(inst.n) if v != root and caps[v] > 0]
    paths: list[list[int]] = []
    for _ in range(inst.num_trees):
        if caps[root] == 0 or not alive:
            paths.append([root])
            continue
        paths.append([root] + alive)
        caps[root] -= 1
        last = alive.pop()  # the termination vertex pays nothing
        for v in alive:
            caps[v] -= 1
        alive = [v for v in alive if caps[v] > 0]
        alive.append(last)
    return paths, caps


def attach_stage(inst: Instance, paths: list[list[int]], residual: list[int]) -> Packing:
    """Grow each path into a tree using the shared residual capacity.

    Only path vertices are scanned for spare capacity.  That is enough:
    capacities never increase, so a vertex missing from path k had zero
    capacity when the path was built and still has zero now; every unit
    usable by tree k sits on the path itself.  The scan visits only the
    path vertices with spare capacity left (compress over their current
    capacities), and the missing vertices are drawn lazily, so a tree
    costs O(path + attached) rather than O(n).  A tree whose path has no
    spare vertex is just its path: its member set and the missing-vertex
    iterator are never built.  Each parent map goes into the Packing as
    built, root outward, with no copy.
    """
    _require_complete(inst)
    caps = list(residual)
    n = inst.n
    trees = []
    for path in paths:
        parent = dict(zip(path[1:], path))
        missing = None
        for v in compress(path, map(caps.__getitem__, path)):
            if missing is None:
                missing = filterfalse(set(path).__contains__, range(n))
            spare = caps[v]
            # islice needs a word-sized stop; a capacity may be larger.
            adopted = list(islice(missing, min(spare, n)))
            parent.update(dict.fromkeys(adopted, v))
            caps[v] = spare - len(adopted)
            if len(adopted) < spare:
                break  # the tree spans every vertex
        trees.append(parent)
    return Packing(inst.root, trees)


def solve_complete(inst: Instance) -> Packing:
    """Optimal packing of a complete instance.

    O(n + K + objective) time, never more than O(nK): every path vertex
    and every adopted vertex is an occurrence of the returned packing.
    """
    paths, residual = build_stage_paths(inst)
    return attach_stage(inst, paths, residual)


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
