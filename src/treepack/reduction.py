"""3-SAT gadget generation: CNF formula in, single-tree packing instance out.

The gadget wires one selector vertex per variable to the root, hangs the
two literal vertices off each selector, and makes each clause vertex
adjacent to its three literals.  Capacities let the root adopt every
selector, each selector adopt exactly one of its two literals, literals
adopt any number of clauses, and clauses adopt nothing.  A single tree
then reaches 1 + 2n + m total vertices exactly when the formula is
satisfiable, and the literals inside such a tree spell the assignment.
"""

from io import IOBase

from .core import (
    KIND_GENERAL,
    MAX_VERTICES,
    Instance,
    Packing,
    SearchLimitExceeded,
    _on_first_call,
    _Value,
    objective,
)

verify_packing = _on_first_call("verifier", "verify_packing")  # loaded only by extract_assignment


class SatInstance(_Value):
    """A CNF formula with exactly three literals per clause.

    Literals are signed 1-based variable indexes.  A clause may repeat a
    variable, in either polarity.
    """

    _fields = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, int, int], ...]) -> None:
        if isinstance(num_vars, bool) or not isinstance(num_vars, int) or num_vars < 1:
            raise ValueError(f"num_vars: must be a positive integer, got {num_vars!r}")
        clauses = tuple(tuple(cl) for cl in clauses)
        if not clauses:
            raise ValueError("clauses: formula has no clauses")
        for j, cl in enumerate(clauses, start=1):
            if len(cl) != 3:
                raise ValueError(f"clause {j}: needs exactly 3 literals, got {len(cl)}")
            for lit in cl:
                not_int = isinstance(lit, bool) or not isinstance(lit, int)
                if not_int or lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"clause {j}: literal {lit!r} out of range")
        self.__dict__.update(num_vars=num_vars, clauses=clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class ReductionOutput(_Value):
    """Gadget instance, decision threshold and vertex role map ("x3", "clause_5")."""

    _fields = ("instance", "gamma", "labels")

    def __init__(self, instance: Instance, gamma: int, labels: dict[int, str]) -> None:
        self.__dict__.update(instance=instance, gamma=gamma, labels=labels)


def _literal_vertex(num_vars: int, i: int, value: bool) -> int:
    """Variable i's literal pair follows the selectors, positive first."""
    base = num_vars + 2 * i - 1
    return base if value else base + 1


def _clause_vertex(num_vars: int, j: int) -> int:
    """Clause j (1-based) follows the 2 * num_vars literal vertices."""
    return 3 * num_vars + j


def parse_dimacs(text: str) -> SatInstance:
    """Parse DIMACS CNF text; every clause must have exactly three literals.

    Exactly one "p cnf" header comes before the first clause, and the
    clauses must number as many as it declares.  A line starting with "%"
    ends the formula: SATLIB's uf files follow it with a lone "0", which
    is not a clause.
    """
    num_vars: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ValueError(f"dimacs: second problem line {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"dimacs: bad problem line {line!r}")
            try:
                num_vars = int(parts[2])
            except ValueError:
                raise ValueError(f"dimacs: bad variable count {parts[2]!r}") from None
            try:
                num_clauses = int(parts[3])
            except ValueError:
                raise ValueError(f"dimacs: bad clause count {parts[3]!r}") from None
            continue
        if num_vars is None:
            raise ValueError("dimacs: clause before the 'p cnf' problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"dimacs: bad token {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise ValueError("dimacs: missing 'p cnf' problem line")
    if current:
        clauses.append(tuple(current))  # unterminated final clause tolerated
    if len(clauses) != num_clauses:
        raise ValueError(f"dimacs: header declares {num_clauses} clauses, found {len(clauses)}")
    return SatInstance(num_vars, tuple(clauses))  # type: ignore[arg-type]


def load_dimacs(source: IOBase) -> SatInstance:
    """Parse DIMACS CNF from a binary stream; the bytes must be UTF-8."""
    return parse_dimacs(source.read().decode("utf-8"))


def reduce_3sat(sat: SatInstance, *, max_vertices: int = MAX_VERTICES) -> ReductionOutput:
    """Build the gadget instance for a formula.

    Vertex layout: 0 is the root, 1..n the selectors, then the literal
    pairs (positive before negative, per variable), then one vertex per
    clause.  Capacities: root n, selectors 1, literals m, clauses 0.  The
    threshold is 1 + 2n + m.  A clause repeating a literal contributes the
    connecting edge once; no other edge ends at a clause vertex, so the
    duplicates are dropped within each clause.

    The declared variable count, not the formula's length, sets the
    gadget's size, so a gadget of more than max_vertices vertices raises
    SearchLimitExceeded before anything is built.
    """
    n = sat.num_vars
    m = sat.num_clauses
    size = _clause_vertex(n, m) + 1
    if size > max_vertices:
        raise SearchLimitExceeded(
            f"gadget of {size} vertices exceeds the limit max_vertices={max_vertices}"
        )
    labels = {0: "root"}
    edges: list[tuple[int, int]] = []
    capacities = [0] * size
    capacities[0] = n
    for i in range(1, n + 1):
        pos, neg = _literal_vertex(n, i, True), _literal_vertex(n, i, False)
        edges += ((0, i), (i, pos), (i, neg))
        labels[i] = f"selector_{i}"
        labels[pos] = f"x{i}"
        labels[neg] = f"not_x{i}"
        capacities[i] = 1
        capacities[pos] = capacities[neg] = m
    for j, cl in enumerate(sat.clauses, start=1):
        clause = _clause_vertex(n, j)
        labels[clause] = f"clause_{j}"
        edges += dict.fromkeys((_literal_vertex(n, abs(lit), lit > 0), clause) for lit in cl)

    instance = Instance(
        kind=KIND_GENERAL,
        n=len(capacities),
        capacities=tuple(capacities),
        num_trees=1,
        root=0,
        edges=tuple(edges),
    )
    return ReductionOutput(instance, 1 + 2 * n + m, labels)


def extract_assignment(reduction: ReductionOutput, packing: Packing) -> dict[int, bool] | None:
    """Read a satisfying assignment out of a verified packing.

    Returns None when the packing misses the threshold.  Otherwise a
    variable is True exactly when its positive literal vertex is in the
    tree.  A verified tree never holds both literals of a variable (the
    selector has a single child slot and clauses have none), so that case
    raises, as does an unverified packing.
    """
    if not verify_packing(reduction.instance, packing)["valid"]:
        raise ValueError("packing does not verify against the gadget instance")
    if objective(packing) < reduction.gamma:
        return None
    members = {packing.root, *packing.trees[0]}  # a verified tree: its root and children
    n = reduction.instance.n - reduction.gamma  # (1 + 3n + m) - (1 + 2n + m)
    assignment: dict[int, bool] = {}
    for i in range(1, n + 1):
        pos = _literal_vertex(n, i, True) in members
        neg = _literal_vertex(n, i, False) in members
        if pos and neg:
            raise ValueError(f"variable {i}: both literal vertices are in the tree")
        assignment[i] = pos
    return assignment
