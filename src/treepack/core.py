"""Problem model: instances, packings, JSON I/O.

An instance is an undirected connected graph with a designated root, a
per-vertex child budget (the capacity), and a tree count K.  A packing is
an ordered family of K trees, all rooted at the instance root: the root
once, and one child -> parent map per tree.  It is
feasible when, for every vertex, the number of children it has summed
across all K trees stays within its capacity.  The objective of a packing
is the total number of vertex occurrences: a vertex contained in j of the
K trees contributes j.

An instance keeps one edge lookup, its sorted adjacency tuples: has_edge
is a binary search there, and the edges tuple is the normalized input.
Every packing document is written as text in chunks, one per tree and
then the tail, framed by _document, with the same bytes as json.dumps of
packing_to_dict plus a newline.  _packing_chunks writes them from parent
maps (greedy and the oracle).  The exact solvers have writers of their
own, complete_solver and tree_solver._packing_text, because a command
compiles only the modules it runs: they write from root paths and
adoption runs, and from granted levels.

A packing document is read into parent maps by packing_from_dict, one
loop over each tree's edges (_parent_map); its id test, _edge_ids, is
the one verifier.verify_packing runs on parent maps.  How treepack
verify judges a document: verifier.verify_document.
"""

import json
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from importlib import import_module
from io import IOBase

KIND_GENERAL = "general"
KIND_COMPLETE = "complete"
KIND_TREE = "tree"
KINDS = (KIND_GENERAL, KIND_COMPLETE, KIND_TREE)


class SearchLimitExceeded(RuntimeError):
    """Raised when an input is past a limit on the work a command may do.

    The oracle's max_n and max_k and reduction.MAX_VERTICES are such
    limits; the CLI exits with code 3 on this error.
    """


def _on_first_call(module: str, name: str):
    """A stand-in for treepack.<module>.<name> that imports the module when called.

    The stand-in stays the module attribute, so callers that swap it out
    (tests, the benchmark's tracer) keep working.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f"treepack.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


def _as_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return value


class _Value:
    """Base of the model types: read-only, compared, hashed and shown by _fields.

    Each subclass's __init__ stores its fields through self.__dict__;
    afterwards assigning or deleting any attribute raises AttributeError.
    Instance and SatInstance hash; hash() of a Packing or a ReductionOutput
    raises TypeError, as their fields hold dicts.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Instance(_Value):
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

    _fields = ("kind", "n", "capacities", "num_trees", "root", "edges")

    def __init__(
        self,
        kind: str,
        n: int,
        capacities: tuple[int, ...],
        num_trees: int,
        root: int = 0,
        edges: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"kind: expected one of {KINDS}, got {kind!r}")
        n = _as_int(n, "n")
        if n <= 0:
            raise ValueError(f"n: must be positive, got {n}")
        root = _as_int(root, "root")
        if not 0 <= root < n:
            raise ValueError(f"root: {root} outside [0, {n})")
        # Whole-tuple tests at C speed; the per-entry loops run only to
        # find the entry to name in the error.
        caps = tuple(capacities)
        if not set(map(type, caps)) <= {int}:
            for c in caps:
                _as_int(c, "capacities")
        if len(caps) != n:
            raise ValueError(f"capacities: expected {n} entries, got {len(caps)}")
        if min(caps) < 0:
            for v, c in enumerate(caps):
                if c < 0:
                    raise ValueError(f"capacities: negative capacity {c} at vertex {v}")
        k = _as_int(num_trees, "K")
        if not 1 <= k <= n:
            raise ValueError(f"K: out of range, need 1 <= K <= n={n}, got {k}")
        fields = self.__dict__
        fields.update(kind=kind, n=n, capacities=caps, num_trees=num_trees, root=root)

        if kind == KIND_COMPLETE:
            if edges is not None:
                raise ValueError("edges: must be omitted for complete instances")
            fields["edges"] = None
            return
        if edges is None:
            raise ValueError(f"edges: required for kind={kind!r}")
        seen: dict[tuple[int, int], None] = {}  # the normalized edges, in input order
        adjacency: list = [[] for _ in range(n)]  # lists, then sorted tuples
        for e in edges:
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
            seen[key] = None
            adjacency[u].append(v)
            adjacency[v].append(u)
        if kind == KIND_TREE and len(seen) != n - 1:
            raise ValueError(f"edges: {len(seen)} edges on {n} vertices, not a tree")
        reached = {0}
        queue = [0]
        for u in queue:
            for w in adjacency[u]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        if len(reached) != n:
            if kind == KIND_TREE:
                raise ValueError("edges: graph is disconnected, not a tree")
            raise ValueError("edges: graph is not connected")
        for v, neighbors in enumerate(adjacency):
            neighbors.sort()
            adjacency[v] = tuple(neighbors)
        fields.update(edges=tuple(seen), _adjacency=adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order (materialized for complete kinds)."""
        if self.kind == KIND_COMPLETE:
            return tuple([u for u in range(self.n) if u != v])
        return self._adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Is {u, v} an edge?  A binary search in u's sorted neighbors: O(log deg u)."""
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            return False
        if self.kind == KIND_COMPLETE:
            return True
        neighbors = self._adjacency[u]
        i = bisect_left(neighbors, v)
        return i < len(neighbors) and neighbors[i] == v


class Packing(_Value):
    """K trees rooted at one vertex: the root, and one child -> parent map per tree.

    A map fixes its tree: vertex set {root} plus the map's keys, edges
    (parent[v], v); the empty map {} is the null tree, just the root.  Its
    insertion order is the tree's one edge order, the order the packing
    file lists: every solver inserts each child after its parent, root
    outward, which lets treepack verify settle a valid file in one pass
    over its edge lists (verifier.verify_document).  The maps are kept as
    given, not copied, and treated as immutable.

    Construction does no validation: connectivity, edge membership and the
    root are verify_packing's job, so damaged packings read from files can
    still be represented and reported on instead of failing to load.
    """

    _fields = ("root", "trees")

    def __init__(self, root: int, trees: Sequence[dict[int, int]]) -> None:
        self.__dict__.update(root=root, trees=tuple(trees))


def objective(packing: Packing) -> int:
    """Total vertex occurrences: a vertex inside j trees counts j times.

    Defined on packings that verify: there a tree's vertices are its root
    and its map's children, so each tree counts len(parent) + 1 and no
    vertex set is built.  On a damaged tree (a parent that is neither a
    child nor the root, or a root with a parent) the count can differ
    from the size of its vertex set.
    """
    return sum(map(len, packing.trees)) + len(packing.trees)


def instance_from_dict(data: object) -> Instance:
    if not isinstance(data, dict):
        raise ValueError("instance: expected a JSON object")
    missing = [key for key in ("kind", "n", "capacities", "K") if key not in data]
    if missing:
        raise ValueError(f"instance: missing field(s) {', '.join(missing)}")
    capacities = data["capacities"]
    if not isinstance(capacities, list):
        raise ValueError("capacities: expected a list")
    edges = data.get("edges")
    if edges is not None and not isinstance(edges, list):
        raise ValueError("edges: expected a list")
    # Instance checks the kind, and unpacks, checks and normalizes each edge itself.
    return Instance(
        kind=data["kind"],
        n=data["n"],
        capacities=capacities,
        num_trees=data["K"],
        root=data.get("root", 0),
        edges=edges,
    )


def instance_to_dict(inst: Instance) -> dict:
    data: dict[str, object] = {
        "kind": inst.kind,
        "n": inst.n,
        "root": inst.root,
        "capacities": list(inst.capacities),
        "K": inst.num_trees,
    }
    if inst.edges is not None:
        data["edges"] = [list(e) for e in inst.edges]
    return data


def _parse(source: IOBase, what: str) -> object:
    """json.load, with every parse error a ValueError that names the document."""
    try:
        return json.load(source)
    except RecursionError:
        raise ValueError(f"{what}: JSON nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an over-long integer
        raise ValueError(f"{what}: {exc}") from None


def load_instance(source: IOBase) -> Instance:
    """Parse an instance JSON document from a readable stream."""
    return instance_from_dict(_parse(source, "instance"))


def _edge_ids(par: object, child: object, i: int) -> None:
    """The loader's id test on an edge of tree i: a ValueError unless both ids are integers.

    A bool is not an integer; int subclasses, which only library callers
    pass, are.  verifier.verify_packing runs the same test on parent maps.
    """
    if type(par) is not int or type(child) is not int:
        _as_int(par, f"trees[{i}].edges")
        _as_int(child, f"trees[{i}].edges")


def _parent_map(edges: list, i: int) -> dict[int, int]:
    """Tree i's child -> parent map from its [parent, child] pairs, in edge order.

    One loop over the edges; it raises ValueError at the first edge that
    is not a pair, whose ids fail _edge_ids, or whose child already has a
    parent.
    """
    parent = {}
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"trees[{i}].edges: each edge is a [parent, child] pair, got {e!r}")
        par, child = e
        _edge_ids(par, child, i)
        if child in parent:
            raise ValueError(f"trees[{i}]: vertex {child} has two parents")
        parent[child] = par
    return parent


def packing_from_dict(data: object, root: int) -> Packing:
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
        trees.append(_parent_map(edges, i))
    return Packing(root, trees)


def packing_to_dict(packing: Packing) -> dict:
    """The packing document: each tree's [parent, child] pairs, and the objective.

    The order is the parent map's insertion order, which every solver makes
    root outward and packing_from_dict keeps, so saving, loading and saving
    again gives the same document.
    """
    trees = [{"edges": [[p, c] for c, p in parent.items()]} for parent in packing.trees]
    return {"trees": trees, "objective": objective(packing)}


def _packing_chunks(packing: Packing) -> Iterator[str]:
    """The packing document in chunks, written straight from the parent maps.

    One chunk per tree, framed by _document, then the tail; joined, they
    equal json.dumps(packing_to_dict(packing)) plus "\n".  A tree's text is
    one join over "[parent, child]" strings, with no list built per edge.
    """
    texts = (", ".join([f"[{p}, {c}]" for c, p in t.items()]) for t in packing.trees)
    return _document(texts, objective(packing))


def _document(texts: Iterable[str], value: int) -> Iterator[str]:
    """A packing document in chunks: one per tree from its edges' text, then the tail.

    A tree's text is its "[parent, child]" pairs joined by ", ".  Joined,
    the chunks are json.dumps of packing_to_dict's document for those
    trees and value, plus "\n".  There is at least one tree, since K >= 1.
    """
    head = '{"trees": ['
    for text in texts:
        yield f'{head}{{"edges": [{text}]}}'
        head = ", "
    yield f'], "objective": {value}}}\n'


def load_packing(source: IOBase, inst: Instance) -> Packing:
    """Parse a packing JSON document; its root is the instance root."""
    return packing_from_dict(_parse(source, "packing"), inst.root)
