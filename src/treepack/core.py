"""Problem model: instances, rooted trees, packings, verification, JSON I/O.

An instance is an undirected connected graph with a designated root, a
per-vertex child budget (the capacity), and a tree count K.  A packing is
an ordered family of K trees, each rooted at the instance root.  It is
feasible when, for every vertex, the number of children it has summed
across all K trees stays within its capacity.  The objective of a packing
is the total number of vertex occurrences: a vertex contained in j of the
K trees contributes j.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Any, Mapping

KIND_GENERAL = "general"
KIND_COMPLETE = "complete"
KIND_TREE = "tree"
KINDS = (KIND_GENERAL, KIND_COMPLETE, KIND_TREE)


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    Attributes:
        kind: "general", "complete" or "tree".  Complete instances carry no
            explicit edge list; every pair of distinct vertices is adjacent.
        n: number of vertices, with ids 0..n-1.
        capacities: per-vertex child budget, shared across all trees.
        num_trees: how many rooted trees a packing must contain (K in the
            JSON format).  Must satisfy 1 <= K <= n.
        root: the common root of all trees (default 0).
        edges: undirected edges as (u, v) pairs; required unless complete.

    Construction validates everything and raises ValueError naming the
    offending field, so a constructed instance always satisfies its
    invariants (connected graph, tree kinds acyclic, capacities >= 0).
    """

    kind: str
    n: int
    capacities: tuple[int, ...]
    num_trees: int
    root: int = 0
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind: expected one of {KINDS}, got {self.kind!r}")
        n = _as_int(self.n, "n")
        if n <= 0:
            raise ValueError(f"n: must be positive, got {n}")
        root = _as_int(self.root, "root")
        if not 0 <= root < n:
            raise ValueError(f"root: {root} outside [0, {n})")
        # Whole-tuple tests at C speed; the per-entry loops run only to
        # find the entry to name in the error.
        caps = tuple(self.capacities)
        if not set(map(type, caps)) <= {int}:
            for c in caps:
                _as_int(c, "capacities")
        if len(caps) != n:
            raise ValueError(f"capacities: expected {n} entries, got {len(caps)}")
        if min(caps) < 0:
            for v, c in enumerate(caps):
                if c < 0:
                    raise ValueError(f"capacities: negative capacity {c} at vertex {v}")
        object.__setattr__(self, "capacities", caps)
        k = _as_int(self.num_trees, "K")
        if not 1 <= k <= n:
            raise ValueError(f"K: out of range, need 1 <= K <= n={n}, got {k}")

        if self.kind == KIND_COMPLETE:
            if self.edges is not None:
                raise ValueError("edges: must be omitted for complete instances")
            return
        if self.edges is None:
            raise ValueError(f"edges: required for kind={self.kind!r}")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edges: each edge is a (u, v) pair, got {e!r}") from None
            u = _as_int(u, "edges")
            v = _as_int(v, "edges")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edges: vertex out of range in ({u}, {v})")
            if u == v:
                raise ValueError(f"edges: self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"edges: duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))
        if self.kind == KIND_TREE and len(norm) != n - 1:
            raise ValueError(
                f"edges: {len(norm)} edges on {n} vertices, not a tree"
            )
        if not self._connected():
            if self.kind == KIND_TREE:
                raise ValueError("edges: graph is disconnected, not a tree")
            raise ValueError("edges: graph is not connected")

    def _connected(self) -> bool:
        reached = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self._adjacency[u]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        return len(reached) == self.n

    @cached_property
    def _adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges or ():
            adj[u].append(v)
            adj[v].append(u)
        for neighbors in adj:
            neighbors.sort()
        return adj

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges or ())

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending order (materialized for complete kinds)."""
        if self.kind == KIND_COMPLETE:
            return [u for u in range(self.n) if u != v]
        return self._adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            return False
        if self.kind == KIND_COMPLETE:
            return True
        return ((u, v) if u < v else (v, u)) in self._edge_set


@dataclass(frozen=True)
class RootedTree:
    """One rooted tree, stored as a child -> parent map (root has no entry).

    The map fixes the tree completely: vertex set {root} plus the map keys,
    edges (parent[v], v).  An empty map is the null tree, just the root.
    Trees are treated as immutable after construction.

    The constructor does not check connectivity or edge membership; that is
    verify_packing's job, so damaged packings read from files can still be
    represented and reported on instead of failing to load.
    """

    root: int
    parent: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent", dict(self.parent))

    @classmethod
    def null(cls, root: int) -> "RootedTree":
        return cls(root, {})

    @property
    def is_null(self) -> bool:
        return not self.parent

    @property
    def vertices(self) -> set[int]:
        verts = set(self.parent)
        verts.update(self.parent.values())
        verts.add(self.root)
        return verts

    def child_counts(self) -> Counter:
        return Counter(self.parent.values())

    def edges(self) -> list[tuple[int, int]]:
        """(parent, child) pairs, root outward, children in ascending order."""
        parent = self.parent
        return [(parent[c], c) for c in self._edge_order()]

    def _edge_order(self) -> list[int]:
        """Children in edges() order: the connected ones, then remnants."""
        order = self._reached()
        if len(order) < len(self.parent):
            # Remnants not reachable from the root (invalid trees), kept so
            # that saving and reloading loses nothing.
            seen = set(order)
            order += [c for c in sorted(self.parent) if c not in seen]
        return order

    def _reached(self) -> list[int]:
        """Children connected to the root, breadth first, siblings ascending."""
        root, parent = self.root, self.parent
        children: dict[int, list[int]] = {}
        for c in sorted(parent):
            if c != root:
                children.setdefault(parent[c], []).append(c)
        reached = [root]
        for u in reached:
            kids = children.get(u)
            if kids:
                reached += kids
        del reached[0]
        return reached


@dataclass(frozen=True)
class Packing:
    """An ordered family of rooted trees, one per stripe."""

    trees: tuple[RootedTree, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))


def objective(packing: Packing) -> int:
    """Total vertex occurrences: a vertex inside j trees counts j times."""
    return sum(len(tree.vertices) for tree in packing.trees)


@dataclass(frozen=True)
class Violation:
    """One verification failure; tree/vertex are None when not applicable."""

    tree: int | None
    vertex: int | None
    reason: str


@dataclass
class VerificationReport:
    valid: bool
    violations: list[Violation]

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"tree": v.tree, "vertex": v.vertex, "reason": v.reason}
                for v in self.violations
            ],
        }


def _rooted_outward(inst: Instance, tree: RootedTree) -> bool:
    """One pass over the parent map, in insertion order: is the tree sound?

    True when the root has no parent and each (child, parent) entry has
    its parent already reached (the root or an earlier child) and is an
    edge of the instance graph.  Such a tree is connected and acyclic.
    On complete kinds only the child's range needs a test: a reached
    parent is in range, and a self edge's parent is its own, not yet
    reached, child.
    """
    root, parent = tree.root, tree.parent
    if root in parent:
        return False
    reached = {root}
    add = reached.add
    if inst.kind == KIND_COMPLETE:
        n = inst.n
        for child, par in parent.items():
            if par not in reached or not 0 <= child < n:
                return False
            add(child)
    else:
        has_edge = inst.has_edge
        for child, par in parent.items():
            if par not in reached or not has_edge(par, child):
                return False
            add(child)
    return True


def verify_packing(inst: Instance, packing: Packing) -> VerificationReport:
    """Check a packing against its instance.

    Per tree: rooted at the instance root, every edge present in the
    instance graph, every vertex reaching the root through the parent chain
    (no cycles, no orphans).  Across trees: per-vertex child totals within
    capacity.  Failures are collected and reported, never raised; only a
    tree-count mismatch is an error.

    A tree whose parent map lists its edges root outward, as every solver
    and load_packing build them, is checked in one pass over the map
    (_rooted_outward): no sort, no child lists, one set lookup and insert
    per edge, plus one has_edge call on non-complete kinds.  Any other
    tree, valid or not, falls back to checking every edge in child order
    and walking each vertex's parent chain, which finds and orders its
    violations.
    """
    trees = packing.trees
    if len(trees) != inst.num_trees:
        raise ValueError(
            f"packing has {len(trees)} trees, instance needs K={inst.num_trees}"
        )
    n = inst.n
    violations: list[Violation] = []
    for ti, tree in enumerate(trees):
        root, parent = tree.root, tree.parent
        if root != inst.root:
            violations.append(
                Violation(ti, root, f"tree rooted at {root}, instance root is {inst.root}")
            )
            continue
        if _rooted_outward(inst, tree):
            continue
        if root in parent:
            violations.append(Violation(ti, root, "root must not have a parent"))
        bad_ids = set()
        for child in sorted(parent):
            par = parent[child]
            if not (0 <= child < n and 0 <= par < n):
                violations.append(
                    Violation(ti, child, f"edge ({par}, {child}) uses a vertex outside [0, {n})")
                )
                bad_ids.add(child)
            elif not inst.has_edge(par, child):
                violations.append(
                    Violation(ti, child, f"edge ({par}, {child}) not in the instance graph")
                )
        status = {root: True}
        for v in sorted(tree.vertices):
            if v in status or v in bad_ids:
                continue
            chain: list[int] = []
            chain_set: set[int] = set()
            x = v
            while True:
                if x in status:
                    ok = status[x]
                    break
                if x in chain_set:
                    ok = False  # parent cycle
                    break
                chain.append(x)
                chain_set.add(x)
                if x not in parent:
                    ok = False  # orphan that is not the root
                    break
                x = parent[x]
            for y in chain:
                status[y] = ok
                if not ok:
                    violations.append(Violation(ti, y, "not connected to the root"))
    totals: Counter = Counter()
    for tree in trees:
        totals.update(tree.parent.values())
    caps = inst.capacities
    over = [v for v, total in totals.items() if 0 <= v < n and total > caps[v]]
    for v in sorted(over):
        violations.append(
            Violation(
                None,
                v,
                f"capacity exceeded: {totals[v]} children across trees, capacity {caps[v]}",
            )
        )
    return VerificationReport(not violations, violations)


def instance_from_dict(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise ValueError("instance: expected a JSON object")
    missing = [key for key in ("kind", "n", "capacities", "K") if key not in data]
    if missing:
        raise ValueError(f"instance: missing field(s) {', '.join(missing)}")
    kind = data["kind"]
    if not isinstance(kind, str):
        raise ValueError(f"kind: expected a string, got {kind!r}")
    capacities = data["capacities"]
    if not isinstance(capacities, list):
        raise ValueError("capacities: expected a list")
    edges_data = data.get("edges")
    edges: tuple[tuple[int, int], ...] | None = None
    if edges_data is not None:
        if not isinstance(edges_data, list):
            raise ValueError("edges: expected a list")
        pairs = []
        for e in edges_data:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"edges: each edge is a [u, v] pair, got {e!r}")
            pairs.append((e[0], e[1]))
        edges = tuple(pairs)
    return Instance(
        kind=kind.lower(),
        n=data["n"],
        capacities=tuple(capacities),
        num_trees=data["K"],
        root=data.get("root", 0),
        edges=edges,
    )


def instance_to_dict(inst: Instance) -> dict:
    data: dict[str, Any] = {
        "kind": inst.kind,
        "n": inst.n,
        "root": inst.root,
        "capacities": list(inst.capacities),
        "K": inst.num_trees,
    }
    if inst.edges is not None:
        data["edges"] = [list(e) for e in inst.edges]
    return data


def _parse(source: IO, what: str) -> Any:
    try:
        return json.load(source)
    except RecursionError:
        raise ValueError(f"{what}: JSON nested too deeply") from None


def load_instance(source: IO) -> Instance:
    """Parse an instance JSON document from a readable stream."""
    return instance_from_dict(_parse(source, "instance"))


def save_instance(inst: Instance, sink: IO[str]) -> None:
    """Write the instance JSON document to a text stream."""
    sink.write(json.dumps(instance_to_dict(inst)))


def packing_from_dict(data: Any, root: int) -> Packing:
    if not isinstance(data, dict) or "trees" not in data:
        raise ValueError("packing: missing field trees")
    trees_data = data["trees"]
    if not isinstance(trees_data, list):
        raise ValueError("trees: expected a list")
    trees = []
    for i, td in enumerate(trees_data):
        if not isinstance(td, dict) or "edges" not in td:
            raise ValueError(f"trees[{i}]: missing field edges")
        edges = td["edges"]
        if not isinstance(edges, list):
            raise ValueError(f"trees[{i}].edges: expected a list, got {type(edges).__name__}")
        parent: dict[int, int] = {}
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"trees[{i}].edges: each edge is a [parent, child] pair, got {e!r}")
            par, child = e
            if type(par) is not int or type(child) is not int:
                par = _as_int(par, f"trees[{i}].edges")
                child = _as_int(child, f"trees[{i}].edges")
            if child in parent:
                raise ValueError(f"trees[{i}]: vertex {child} has two parents")
            parent[child] = par
        trees.append(RootedTree(root, parent))
    return Packing(tuple(trees))


def packing_to_dict(packing: Packing) -> dict:
    trees = []
    for tree in packing.trees:
        parent = tree.parent
        trees.append({"edges": [[parent[c], c] for c in tree._edge_order()]})
    return {"trees": trees, "objective": objective(packing)}


def load_packing(source: IO, inst: Instance) -> Packing:
    """Parse a packing JSON document; trees are rooted at the instance root."""
    return packing_from_dict(_parse(source, "packing"), inst.root)


def save_packing(packing: Packing, sink: IO[str]) -> None:
    """Write the packing JSON document to a text stream; loading it back restores the parent maps."""
    sink.write(json.dumps(packing_to_dict(packing)))
