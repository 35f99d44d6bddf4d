"""3-SAT gadget generation: CNF formula in, single-tree packing instance out.

The gadget wires one selector vertex per variable to the root, hangs the
two literal vertices off each selector, and makes each clause vertex
adjacent to its three literals.  Capacities let the root adopt every
selector, each selector adopt exactly one of its two literals, literals
adopt any number of clauses, and clauses adopt nothing.  A single tree
then reaches 1 + 2n + m total vertices exactly when the formula is
satisfiable, and the literals inside such a tree spell the assignment.

The gadget is moreover an L-reduction from MAX-3SAT (Papadimitriou and
Yannakakis, JCSS 43, 1991), so the problem is APX-hard already at K = 1.
Let T be any tree that verifies, and read its assignment as "variable
i is true exactly when its positive literal vertex is in T".  That
assignment satisfies sat(T) >= obj(T) - 1 - 2n clauses:
  - T holds the root, at most n selectors and at most one literal per
    variable: a literal's parent can only be its selector (clauses have
    capacity 0), and a selector has capacity 1;
  - every clause in T hangs under a literal in T, which the assignment
    therefore makes true.
The optimum is OPT = 1 + 2n + MAX-SAT, so MAX-SAT - sat(T) <= OPT - obj(T)
and beta = 1.  When every variable occurs, n <= 3m and MAX-SAT >= m/2,
so OPT <= 14 MAX-SAT and alpha <= 14.
"""

from io import IOBase

from .core import (
    KIND_GENERAL,
    Instance,
    Packing,
    SearchLimitExceeded,
    _on_first_call,
    _Value,
    objective,  # unused here; the benchmark's tracer swaps reduction.objective
)

verify_packing = _on_first_call("verifier", "verify_packing")  # loaded only by extract_assignment

# Gadget vertex limit of reduce_3sat: far above desk-size formulas and
# SATLIB-scale ones (uf250: 1,816 vertices), far below a header that asks
# for gigabytes.
MAX_VERTICES = 100_000


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


def _number(token: str, what: str) -> int:
    """int(token), or a ValueError that names what the token should be."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"dimacs: bad {what} {token!r}") from None


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
            num_vars = _number(parts[2], "variable count")
            num_clauses = _number(parts[3], "clause count")
            continue
        if num_vars is None:
            raise ValueError("dimacs: clause before the 'p cnf' problem line")
        for tok in line.split():
            lit = _number(tok, "token")
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


def reduce_3sat(sat: SatInstance) -> ReductionOutput:
    """Build the gadget instance for a formula.

    Vertex layout: 0 is the root, 1..n the selectors, then the literal
    pairs (positive before negative, per variable), then one vertex per
    clause.  Capacities: root n, selectors 1, literals m, clauses 0.  The
    threshold is 1 + 2n + m.  A clause repeating a literal contributes the
    connecting edge once; no other edge ends at a clause vertex, so the
    duplicates are dropped within each clause.

    The declared variable count, not the formula's length, sets the
    gadget's size, so a gadget of more than MAX_VERTICES vertices raises
    SearchLimitExceeded before anything is built.
    """
    n = sat.num_vars
    m = sat.num_clauses
    size = _clause_vertex(n, m) + 1
    if size > MAX_VERTICES:
        raise SearchLimitExceeded(
            f"gadget of {size} vertices exceeds the limit max_vertices={MAX_VERTICES}"
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


def extract_assignment(reduction: ReductionOutput, packing: Packing) -> dict[int, bool]:
    """Read the assignment a verified packing encodes; raise on an unverified one.

    A variable is True exactly when its positive literal vertex is in the
    tree.  Every verified tree encodes one: a tree at the threshold
    satisfies the formula, and any tree T satisfies at least
    obj(T) - 1 - 2n clauses (see the module docstring).
    """
    if not verify_packing(reduction.instance, packing)["valid"]:
        raise ValueError("packing does not verify against the gadget instance")
    tree = packing.trees[0]  # the root is never a literal, so the children suffice
    n = reduction.instance.n - reduction.gamma  # (1 + 3n + m) - (1 + 2n + m)
    return {i: _literal_vertex(n, i, True) in tree for i in range(1, n + 1)}
