"""In-process traced replay of a workload, for per-layer self times.

The replay runs ``treepack.cli.main`` on the same argument lists, in the
same order, as the timed CLI run.  Spans are recorded only around calls
into public functions of core, complete_solver, tree_solver, oracle,
reduction and cli.  Internal calls are nested by swapping the public
function at the module attribute the caller looks it up in, for the
traced passes only; ``core.parse`` and ``core.json_dump`` wrap the
``json`` module as core and cli see it.

Self time is a span's duration minus the durations of its child spans
(children never overlap: the program is single-threaded).  Time inside
a pass that no top-level span covers is ``trace.other``, so per pass the
self times plus ``trace.other`` add up to the pass wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from time import perf_counter

from treepack import cli, complete_solver, core, reduction, tree_solver

# (module, attribute, span name): what the traced passes wrap.
WRAPPED = [
    (cli, "packing_to_dict", "core.packing_to_dict"),
    (cli, "objective", "core.objective"),
    (cli, "verify_packing", "core.verify_packing"),
    (cli, "solve_tree", "tree_solver.reconstruct"),
    (cli, "greedy_general", "oracle.greedy_general"),
    (cli, "brute_force_solve", "oracle.brute_force_solve"),
    (cli, "reduce_3sat", "reduction.reduce_3sat"),
    (core, "instance_from_dict", "core.instance_from_dict"),
    (core, "packing_from_dict", "core.packing_from_dict"),
    (core, "objective", "core.objective"),
    (complete_solver, "build_stage_paths", "complete_solver.build_stage_paths"),
    (complete_solver, "attach_stage", "complete_solver.attach_stage"),
    (tree_solver, "stripe_values", "tree_solver.stripe_values"),
    (tree_solver, "solve_mckp", "tree_solver.solve_mckp"),
    (reduction, "parse_dimacs", "reduction.parse_dimacs"),
    (reduction, "verify_packing", "core.verify_packing"),
    (reduction, "objective", "core.objective"),
]

# Every span name, in report order.  The self time of solve_tree is what
# is left after stripe_values and the knapsacks: the reconstruction.
SPANS = [
    "cli.startup",
    "cli.main",
    "core.parse",
    "core.instance_from_dict",
    "core.packing_from_dict",
    "core.verify_packing",
    "core.packing_to_dict",
    "core.objective",
    "core.json_dump",
    "complete_solver.build_stage_paths",
    "complete_solver.attach_stage",
    "tree_solver.reconstruct",
    "tree_solver.stripe_values",
    "tree_solver.solve_mckp",
    "oracle.brute_force_solve",
    "oracle.greedy_general",
    "reduction.parse_dimacs",
    "reduction.reduce_3sat",
    "reduction.extract_assignment",
]


class Tracer:
    """Collects spans in memory: [name, start, end, parent index, instance id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = ""

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.instance])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per name: summed self seconds and call count; plus top-level seconds."""
        child_time = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top += end - start
        seconds: dict[str, float] = dict.fromkeys(SPANS, 0.0)
        calls: dict[str, int] = dict.fromkeys(SPANS, 0)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            seconds[name] += end - start - inner
            calls[name] += 1
        return seconds, calls, top


class _TracedJson:
    """The json module as core and cli see it during traced passes."""

    def __init__(self, tracer: Tracer):
        self.load = tracer.wrap("core.parse", json.load)
        self.dumps = tracer.wrap("core.json_dump", json.dumps)
        self.dump = tracer.wrap("core.json_dump", json.dump)

    def __getattr__(self, name: str):
        return getattr(json, name)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the wrapped module attributes in; restore them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
    saved += [(cli, "json", cli.json), (core, "json", core.json)]
    try:
        for module, attr, name in WRAPPED:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        cli.json = core.json = _TracedJson(tracer)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _span(tracer: Tracer | None, name: str, fn):
    return fn if tracer is None else tracer.wrap(name, fn)


def replay_pass(plan, env: dict, gadgets: dict, tracer: Tracer | None) -> tuple[float, list]:
    """One pass: CLI start-up once, then every call of the plan in-process.

    Gadget oracle calls are followed by the extract_assignment round trip.
    Returns the pass wall time and, per call, (step, exit code, stdout).
    """
    results = []
    start = perf_counter()
    if tracer is not None:
        tracer.instance = ""
    _span(tracer, "cli.startup", subprocess.run)(
        [sys.executable, "-m", "treepack.cli", "--help"], env=env, stdout=subprocess.DEVNULL, check=True
    )
    main = _span(tracer, "cli.main", cli.main)
    for step in plan.steps:
        if tracer is not None:
            tracer.instance = step.item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(step.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        results.append((step, code, out.getvalue()))
        if step.kind == "oracle" and step.item in gadgets and code == 0:
            gadget = gadgets[step.item]
            with open(step.output, "rb") as fh:
                packing = core.load_packing(fh, gadget.instance)
            _span(tracer, "reduction.extract_assignment", reduction.extract_assignment)(gadget, packing)
    return perf_counter() - start, results
