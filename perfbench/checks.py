"""Reference optima and output checks, all computed outside the timed phase.

References:
  complete  the closed form ``optimal_objective``.
  tree      a recurrence written here that calls ``solve_mckp`` per vertex;
            it shares only the knapsack with ``tree_solver.stripe_values``.
            Oracle answers on desk trees are checked against ``solve_tree``.
  general   an upper bound (ROADMAP item 3): the minimum of the closed form
            on the complete relaxation and the degree cap.  Oracle answers
            must also reach the greedy baseline.
  CNF       satisfiability by truth table, and the gadget's upper bound.

Every packing a call writes is also checked here, independently of the
program's own verifier: tree shape, graph edges, capacities and the
occurrence count.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter, deque

import treepack as tp


def _instance(data: dict) -> tp.Instance:
    edges = data.get("edges")
    return tp.Instance(
        kind=data["kind"],
        n=data["n"],
        capacities=tuple(data["capacities"]),
        num_trees=data["K"],
        root=data["root"],
        edges=None if edges is None else tuple(map(tuple, edges)),
    )


def tree_optimum(data: dict) -> int:
    """Stripe-value recurrence: f_v(k) = best MCKP over v's children at k trees."""
    n, root, caps, count = data["n"], data["root"], data["capacities"], data["K"]
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in data["edges"]:
        adjacency[u].append(v)
        adjacency[v].append(u)
    order = [root]
    parent = {root: -1}
    for u in order:  # grows while iterating: breadth-first order
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    values: dict[int, list[int]] = {}
    for u in reversed(order):
        kids = [values.pop(w) for w in adjacency[u] if parent.get(w) == u]
        if not kids:
            values[u] = list(range(1, count + 1))
        else:
            values[u] = [tp.solve_mckp(k, caps[u], kids)[0] for k in range(1, count + 1)]
    return values[root][count - 1]


def upper_bound(data: dict) -> int:
    """min(complete-relaxation closed form, K + sum_v min(c_v, K*(deg(v) - [v != root])))."""
    relaxed = dict(data, kind="complete")
    relaxed.pop("edges", None)
    closed_form = tp.optimal_objective(_instance(relaxed))
    if data["kind"] == "complete":
        return closed_form
    degree = Counter()
    for u, v in data["edges"]:
        degree[u] += 1
        degree[v] += 1
    count, root = data["K"], data["root"]
    degree_cap = count + sum(
        min(c, count * (degree[v] - (v != root))) for v, c in enumerate(data["capacities"])
    )
    return min(closed_form, degree_cap)


def satisfiable(num_vars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses):
            return True
    return False


def satisfies(assignment: dict[int, bool], clauses) -> bool:
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses)


def gadget_size(num_vars: int, clauses) -> tuple[int, int]:
    """(vertex count, decision threshold) of the paper's 3-SAT gadget."""
    return 1 + 3 * num_vars + len(clauses), 1 + 2 * num_vars + len(clauses)


def reference(item) -> dict:
    """What a correct answer for one input must satisfy."""
    if item.cnf is not None:
        num_vars, clauses = item.cnf
        gadget = tp.reduce_3sat(tp.SatInstance(num_vars, clauses))
        return {
            "kind": "cnf",
            "satisfiable": satisfiable(num_vars, clauses),
            "upper": upper_bound(tp.instance_to_dict(gadget.instance)),
        }
    data = item.instance
    kind = data["kind"]
    if kind == "complete":
        return {"kind": kind, "exact": tp.optimal_objective(_instance(data))}
    if kind == "tree" and item.call == "oracle":
        return {"kind": kind, "exact": tp.solve_tree(_instance(data), value_only=True)[0]}
    if kind == "tree":
        return {"kind": kind, "exact": tree_optimum(data)}
    if item.call == "oracle":
        greedy = tp.objective(tp.greedy_general(_instance(data)))
        return {"kind": kind, "upper": upper_bound(data), "lower": greedy}
    return {"kind": kind, "upper": upper_bound(data)}


def packing_error(data: dict, packing) -> str | None:
    """Independent feasibility check of a packing document; None when feasible."""
    if not isinstance(packing, dict) or not isinstance(packing.get("trees"), list):
        return "packing: no tree list"
    n, root, count = data["n"], data["root"], data["K"]
    if len(packing["trees"]) != count:
        return f"packing: {len(packing['trees'])} trees, need K={count}"
    if data["kind"] == "complete":
        def has_edge(u: int, v: int) -> bool:
            return u != v
    else:
        graph = {(min(u, v), max(u, v)) for u, v in data["edges"]}

        def has_edge(u: int, v: int) -> bool:
            return (min(u, v), max(u, v)) in graph
    load = [0] * n
    occurrences = 0
    for t, tree in enumerate(packing["trees"]):
        children: dict[int, list[int]] = {}
        parent_of: dict[int, int] = {}
        for edge in tree.get("edges", ()):
            p, c = edge
            if not (0 <= p < n and 0 <= c < n) or not has_edge(p, c):
                return f"tree {t}: edge ({p}, {c}) not in the graph"
            if c == root or c in parent_of:
                return f"tree {t}: vertex {c} has two parents or is the root"
            parent_of[c] = p
            children.setdefault(p, []).append(c)
            load[p] += 1
        reached = 1
        queue = deque([root])
        while queue:
            for c in children.get(queue.popleft(), ()):
                reached += 1
                queue.append(c)
        if reached != len(parent_of) + 1:
            return f"tree {t}: {len(parent_of) + 1 - reached} vertices not connected to the root"
        occurrences += reached
    for v, used in enumerate(load):
        if used > data["capacities"][v]:
            return f"vertex {v}: {used} children across trees, capacity {data['capacities'][v]}"
    if packing.get("objective") != occurrences:
        return f"objective {packing.get('objective')} but the trees hold {occurrences} occurrences"
    return None


class Checker:
    """Checks call outputs against the references, caching by output digest.

    Outputs are deterministic, so a packing whose bytes were already found
    feasible is not walked again; the objective is still compared every time.
    """

    def __init__(self, plan, refs: dict[str, dict]):
        self.plan = plan
        self.refs = refs
        self.feasible: set[tuple[str, str]] = set()
        self.gadgets: dict[str, tp.ReductionOutput] = {}

    def _feasible(self, item: str, data: dict, raw: bytes, packing) -> str | None:
        key = (item, hashlib.sha256(raw).hexdigest())
        if key in self.feasible:
            return None
        error = packing_error(data, packing)
        if error is None:
            self.feasible.add(key)
        return error

    def gadget(self, name: str) -> tp.ReductionOutput:
        if name not in self.gadgets:
            num_vars, clauses = self.plan.items[name].cnf
            self.gadgets[name] = tp.reduce_3sat(tp.SatInstance(num_vars, clauses))
        return self.gadgets[name]

    def bound(self, item: str) -> int:
        """The optimum for exact kinds, else the upper bound."""
        ref = self.refs[item]
        return ref["exact"] if "exact" in ref else ref["upper"]

    def solution(self, item: str, raw: bytes, packing) -> tuple[str | None, int]:
        """Check a solve/oracle packing; returns (error, objective)."""
        ref = self.refs[item]
        if ref["kind"] == "cnf":
            data = tp.instance_to_dict(self.gadget(item).instance)
        else:
            data = self.plan.items[item].instance
        error = self._feasible(item, data, raw, packing)
        if error is not None:
            return error, 0
        value = packing["objective"]
        if "exact" in ref and value != ref["exact"]:
            return f"objective {value}, optimum is {ref['exact']}", value
        if value > self.bound(item):
            return f"objective {value} above the upper bound {self.bound(item)}", value
        if value < ref.get("lower", value):
            return f"objective {value} below the greedy baseline {ref['lower']}", value
        if ref["kind"] == "cnf":
            return self._gadget_answer(item, packing, value), value
        return None, value

    def _gadget_answer(self, item: str, packing, value: int) -> str | None:
        num_vars, clauses = self.plan.items[item].cnf
        gadget = self.gadget(item)
        sat = self.refs[item]["satisfiable"]
        if (value >= gadget.gamma) != sat:
            return f"gadget optimum {value} vs threshold {gadget.gamma}, but satisfiable={sat}"
        assignment = tp.extract_assignment(gadget, tp.packing_from_dict(packing, gadget.instance.root))
        if sat and (assignment is None or not satisfies(assignment, clauses)):
            return f"extracted assignment {assignment} does not satisfy the formula"
        if not sat and assignment is not None:
            return "assignment extracted from an unsatisfiable formula"
        return None

    def reduce_output(self, item: str, summary, gadget_doc) -> str | None:
        num_vars, clauses = self.plan.items[item].cnf
        n, gamma = gadget_size(num_vars, clauses)
        if not isinstance(summary, dict) or summary.get("gamma") != gamma or summary.get("num_vertices") != n:
            return f"reduce summary {summary}, expected {n} vertices and threshold {gamma}"
        if gadget_doc != tp.instance_to_dict(self.gadget(item).instance):
            return "gadget instance differs from reduce_3sat on the same formula"
        return None
