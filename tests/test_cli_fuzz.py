"""CLI fuzz: damaged instance, packing and DIMACS documents never crash a subcommand.

Each example starts from valid documents, applies a few mutations (dropped
or retyped fields, out-of-range ids, wrong lengths, non-UTF-8 bytes, deep
nesting, huge integers) and runs every subcommand in-process.  Every call
must end in a documented exit code without an uncaught exception, an exit
code 2 or 3 must end stderr with one ``error:`` line, and only ``verify``
may report an invalid packing (exit 1).  An instance that still loads
must also solve, search and verify without an input error.

The DIMACS variable count may be raised past ``reduce``'s gadget vertex
limit, which must then exit 3 before building anything; a document that
parses within the limit must reduce with exit 0.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_properties import complete_instances, graph_instances
from treepack import (
    Instance,
    greedy_general,
    instance_to_dict,
    load_instance,
    load_packing,
    packing_to_dict,
    parse_dimacs,
    solve_complete,
    solve_tree,
)
from treepack.cli import main
from treepack.reduction import MAX_VERTICES

HUGE = (2**63, -(2**63) - 1, 10**30, -(10**30), 10**4000)
ODD = (None, True, False, "x", "", 1.5, float("nan"), [], {}, [1, 2], {"a": 1}, -1, 0)
BAD_BYTES = (b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf0\x28\x8c\x28", b"\x00")
DEEP = "__deep__"


# Small enough for the oracle's search to finish at once.
instances = st.one_of(complete_instances(max_n=4), graph_instances(max_n=4))


def solution(inst: Instance) -> dict:
    if inst.kind == "complete":
        return packing_to_dict(solve_complete(inst))
    if inst.kind == "tree":
        return packing_to_dict(solve_tree(inst)[1])
    return packing_to_dict(greedy_general(inst))


def nodes(doc, path=()):
    """Every (path, value) in a JSON document, the document itself first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


def mutate_json(draw, doc, n: int):
    """Apply one structural fault to a JSON document; returns the new document."""
    op = draw(st.sampled_from(("drop", "retype", "id", "huge", "length", "deep")))
    found = list(nodes(doc))
    if op in ("id", "huge"):
        # Integers in value positions: ids, counts, capacities.
        found = [(p, v) for p, v in found if p and type(v) is int] or found
    elif op == "length":
        found = [(p, v) for p, v in found if isinstance(v, list)] or found
    path, value = draw(st.sampled_from(found))
    if op == "length" and isinstance(value, list):
        if value and draw(st.booleans()):
            value.pop(draw(st.integers(0, len(value) - 1)))
        else:
            value.append(value[0] if value else draw(st.integers(-1, n)))
        return doc
    if not path:
        return doc if op != "retype" else draw(st.sampled_from(ODD))
    *head, last = path
    holder = doc
    for key in head:
        holder = holder[key]
    if op == "drop":
        del holder[last]
    elif op == "retype":
        holder[last] = draw(st.sampled_from(ODD))
    elif op == "id":
        holder[last] = draw(st.sampled_from((-1, n, n + 1, -n - 1)))
    elif op == "huge":
        holder[last] = draw(st.sampled_from(HUGE))
    elif op == "deep":
        holder[last] = DEEP
    return doc


def damage_bytes(draw, data: bytes) -> bytes:
    """Insert an invalid UTF-8 sequence or cut the document short."""
    at = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data[:at]


def encode_json(draw, doc, n: int) -> bytes:
    for _ in range(draw(st.integers(0, 3))):
        doc = mutate_json(draw, doc, n)
    text = json.dumps(doc)
    depth = draw(st.sampled_from((5, 2_000, 100_000)))
    text = text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    data = text.encode()
    if draw(st.integers(0, 4)) == 0:
        data = damage_bytes(draw, data)
    return data


@st.composite
def dimacs(draw) -> bytes:
    num_vars = draw(st.integers(1, 4))
    lits = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lits, min_size=3, max_size=3), min_size=1, max_size=4))
    header = ["p", "cnf", str(num_vars), str(len(clauses))]
    rows = [[str(lit) for lit in clause] + ["0"] for clause in clauses]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("header", "vars", "token", "drop", "insert", "huge", "line")))
        if op == "vars":
            # Unused variables, or a gadget past the vertex limit.
            header[2] = draw(st.sampled_from((str(num_vars + 5), "33333", "80000", str(10**30))))
            continue
        if op == "header":
            spot = draw(st.sampled_from((0, 1, 3)))
            header[spot] = draw(st.sampled_from(("q", "dnf", "-1", "x", str(10**30), "")))
            if draw(st.booleans()):
                header[2] = draw(st.sampled_from(("0", "-3", "two", "1.5")))
            continue
        if op == "line":
            line = draw(st.sampled_from(("c note", "%", "p cnf 1 1", "[[[")))
            rows.insert(draw(st.integers(0, len(rows))), [line])
            continue
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(row)))
        if op == "token" and row:
            token = draw(st.sampled_from(("a", "1.0", "--1", "0x1", str(num_vars + 1))))
            row[min(at, len(row) - 1)] = token
        elif op == "drop" and row:
            del row[min(at, len(row) - 1)]
        elif op == "insert":
            row.insert(at, str(draw(st.integers(-num_vars, num_vars))))
        elif op == "huge":
            row.insert(at, str(draw(st.sampled_from(HUGE))))
    text = "\n".join(" ".join(row) for row in [header] + rows) + "\n"
    data = text.encode()
    if draw(st.integers(0, 4)) == 0:
        data = damage_bytes(draw, data)
    return data


def run_cli(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def expected_codes(inst_bytes: bytes, pack_bytes: bytes, max_n: int) -> dict:
    """Exit codes each subcommand must give when the instance itself is valid."""
    try:
        inst = load_instance(io.BytesIO(inst_bytes))
    except ValueError:
        return {}
    expect = {"oracle": {0} if inst.n <= max_n and inst.num_trees <= 3 else {3}, "solve": {0}}
    try:
        packing = load_packing(io.BytesIO(pack_bytes), inst)
    except ValueError:
        return expect
    if len(packing.trees) == inst.num_trees:
        expect["verify"] = {0, 1}
    return expect


def check(command: str, code: int, err: str, allowed=(0, 1, 2, 3)) -> None:
    assert code in allowed, (command, code, err)
    assert "Traceback" not in err
    assert code != 1 or command == "verify", (command, err)
    if code in (2, 3):
        assert err.splitlines()[-1].startswith("error: "), err


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A fresh directory per example.

    Rewriting one just-written file can wait for its writeback on some
    filesystems, so examples never reuse a path.
    """
    root = tmp_path_factory.mktemp("fuzz")
    count = itertools.count()

    def _fresh():
        path = root / str(next(count))
        path.mkdir()
        return path

    return _fresh


@settings(max_examples=250)
@given(data=st.data(), inst=instances)
def test_instance_and_packing_documents(work, data, inst):
    draw = data.draw
    here = work()
    inst_path, pack_path, out_path = here / "inst.json", here / "pack.json", here / "out.json"
    inst_doc, pack_doc = instance_to_dict(inst), solution(inst)
    target = draw(st.sampled_from(("instance", "packing", "both")))
    inst_bytes = json.dumps(inst_doc).encode()
    pack_bytes = json.dumps(pack_doc).encode()
    if target != "packing":
        inst_bytes = encode_json(draw, inst_doc, inst.n)
    if target != "instance":
        pack_bytes = encode_json(draw, pack_doc, inst.n)
    inst_path.write_bytes(inst_bytes)
    pack_path.write_bytes(pack_bytes)
    alg = draw(st.sampled_from(("auto", "greedy")))
    extra = ["--value-only"] if draw(st.booleans()) else []
    max_n = draw(st.integers(inst.n - 1, 4))  # below n: the search limit
    calls = (
        ("solve", ["-i", str(inst_path), "--alg", alg, "-o", str(out_path), *extra]),
        ("verify", ["-i", str(inst_path), "-p", str(pack_path)]),
        ("oracle", ["-i", str(inst_path), "-o", str(out_path), "--max-n", str(max_n)]),
    )
    expect = expected_codes(inst_bytes, pack_bytes, max_n)
    for command, args in calls:
        code, err = run_cli(command, *args)
        check(command, code, err, expect.get(command, (0, 1, 2, 3)))


@settings(max_examples=200)
@given(cnf=dimacs())
def test_dimacs_documents(work, cnf):
    here = work()
    cnf_path, gadget, labels = here / "f.cnf", here / "gadget.json", here / "labels.json"
    cnf_path.write_bytes(cnf)
    argv = ["--cnf", str(cnf_path), "-o", str(gadget), "--labels", str(labels)]
    try:
        sat = parse_dimacs(cnf.decode("utf-8"))
    except ValueError:
        expect = {2}
    else:
        expect = {3} if 1 + 3 * sat.num_vars + sat.num_clauses > MAX_VERTICES else {0}
    code, err = run_cli("reduce", *argv)
    check("reduce", code, err, expect)
