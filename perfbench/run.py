"""treepack benchmark: the CLI end to end on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every call of the workload runs as its own
``python -m treepack.cli`` subprocess, one at a time (a closed loop with
one client), and the end-to-end metrics are reported.  With ``--trace 1``
the workload is replayed in-process with spans around the library's
public functions (see tracing.py) and the per-layer metrics are reported.

A run sets up its inputs three times (``setup_s`` is the median), computes
the reference answers, then repeats the workload's pass of calls a fixed
number of times derived from ``--seconds`` and the workload's nominal pass
time, so that two versions of the program are measured on the same
samples.  Timings are scaled to the reference machine's speed: the run
pins itself and its CLI children to one CPU, times a fixed calibration
loop on it before every call, and multiplies the timings of each pass by
reference / median calibration time of that pass (see ``speed_factor``).
The record keeps the unscaled values.  Every output is checked; the last
line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed.  A record with the
environment, input hashes and sample counts is written to
``.bench_work/<workload>-<seed>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import EXCLUDED, WORKLOADS, Step, build_plan

ROOT = Path.cwd()
SRC = ROOT / "src"

# Seconds one pass of CLI calls takes on the reference machine (2-core
# Xeon, Python 3.11).  passes = round(--seconds / nominal), at least enough
# for 20 solve/oracle samples, so that solve_ms.tail has 10 beyond it.
NOMINAL_PASS_S = {"bulk": 4.3, "tree-hubs": 3.3, "general-mix": 5.9}
SETUP_REPEATS = 3
CALL_TIMEOUT_S = 60.0
# No new pass once the timed phase has run this many times --seconds: on a
# machine in a slow phase (shared hosts drift by up to 1.7x) or with a much
# slower program, a run still ends in bounded time, with fewer samples.
MAX_TIMED_FACTOR = 1.5
MIN_TAIL_SAMPLES = 20
TIMED_KINDS = ("solve", "oracle")

# Shared hosts drift in speed by up to 1.7x over minutes, which moves every
# timing of a run together.  CALIBRATION_REFERENCE_S is what one
# calibration_s() takes on the reference machine when it is quiet.  The
# calibration does not touch treepack, so a change to the program cannot
# move it; it only removes the machine's drift from run-to-run comparisons.
CALIBRATION_REFERENCE_S = 0.025

END_TO_END = {
    "wall_s": "s",
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "verify_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
    "objective_ratio": "ratio",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ---------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "treepack").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# -- machine speed ---------------------------------------------------------------


def calibration_s() -> float:
    """Seconds for fixed pure-Python work like the program's: integer DP, dict churn, JSON."""
    start = perf_counter()
    row = [0] * 400
    for d in range(60):
        prev = row
        row = [max(prev[c], prev[c - 1] + (d * c) % 7) if c else 0 for c in range(400)]
    seen = {}
    for i in range(40000):
        seen[i * 7919 % 65536] = i
    json.loads(json.dumps([[i, i + 1] for i in range(20000)]))
    return perf_counter() - start


def speed_factor(calibrations: list[float]) -> float:
    """Multiplier that turns times measured next to these calibrations into reference-speed times."""
    return CALIBRATION_REFERENCE_S / statistics.median(calibrations)


# -- CLI calls -------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Call:
    """One finished CLI subprocess."""

    step: Step | None
    seconds: float
    code: int
    max_rss_kb: int
    stdout: Path


def run_cli(argv: list[str], env: dict, stdout: Path, step=None) -> Call:
    """Run ``python -m treepack.cli`` and time it from launch to exit.

    The child is reaped with wait4 so that its own rusage gives its max RSS.
    A call still running after CALL_TIMEOUT_S is killed and fails.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "treepack.cli", *argv], stdout=out, stderr=err, env=env)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(step, seconds, proc.returncode, usage.ru_maxrss, stdout)


# -- set-up --------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path, env: dict):
    """Generate and write the inputs, then one warm-up CLI call; repeated.

    Returns the last plan, the per-repeat seconds and the calibration
    times taken around them.  Every repeat must write byte-identical inputs.
    """
    times, calibrations, digests, plan = [], [], [], None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir / "inputs", ignore_errors=True)
        calibrations += [calibration_s() for _ in range(3)]
        start = perf_counter()
        plan = build_plan(workload, seed, workdir)
        warm = run_cli(["--help"], env, workdir / "outputs" / "warmup.out")
        times.append(perf_counter() - start)
        if warm.code != 0:
            raise RuntimeError(f"warm-up call exited with {warm.code}")
        digests.append(plan.digests())
    if any(d != digests[0] for d in digests):
        raise RuntimeError("the same seed wrote different inputs")
    return plan, times, calibrations


# -- checks of one pass -----------------------------------------------------------


class Tally:
    """Attempted and failed calls, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def _load_json(data: bytes | None):
    if data is None:
        return None
    try:
        return json.loads(data)
    except ValueError:
        return None


def check_call(checker, step, code: int, stdout: bytes, output: bytes | None) -> tuple[str | None, int]:
    """Error (or None) for one call, plus the objective for solve/oracle calls."""
    if code != 0:
        return f"exit code {code}", 0
    doc = _load_json(stdout)
    if doc is None:
        return "stdout is not JSON", 0
    try:
        if step.kind in TIMED_KINDS:
            if _load_json(output) != doc:
                return "output file differs from stdout", 0
            return checker.solution(step.item, output, doc)
        if step.kind == "verify":
            ok = doc.get("valid") is True and doc.get("violations") == []
            return (None if ok else f"verify reported {doc}"), 0
        return checker.reduce_output(step.item, doc, _load_json(output)), 0
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return f"check raised {exc!r}", 0


def self_check(checker, step, output: bytes) -> str | None:
    """Prove the checks fire: corrupted outputs must count as failures.

    Feeds the checker the given correct packing (1) with one edge deleted
    and (2) with its objective off by one.  Both must fail.
    """
    probe = Tally()
    for name, corrupt in (("edge deleted", _drop_edge), ("objective off by one", _bump_objective)):
        raw = json.dumps(corrupt(json.loads(output))).encode()
        probe.record(name, check_call(checker, step, 0, raw, raw)[0])
    if probe.failed != 2:
        return f"self-check: only {probe.failed} of 2 corrupted outputs counted as failures"
    return None


def _drop_edge(packing: dict) -> dict:
    next(t for t in packing["trees"] if t["edges"])["edges"].pop()
    return packing


def _bump_objective(packing: dict) -> dict:
    packing["objective"] += 1
    return packing


def _self_check_step(plan, refs, outputs: list):
    """The smallest solve/oracle output of an exact kind whose packing has an edge."""
    candidates = [
        (len(raw), i)
        for i, (step, raw) in enumerate(zip(plan.steps, outputs))
        if step.kind in TIMED_KINDS and "exact" in refs[step.item] and raw and b"[[" in raw
    ]
    if not candidates:
        return None, None
    i = min(candidates)[1]
    return plan.steps[i], outputs[i]


def _read(path: Path | None) -> bytes | None:
    try:
        return path.read_bytes() if path is not None else None
    except OSError:
        return None


# -- timed run (trace 0) ---------------------------------------------------------


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _timings(walls: list[float], solve_ms: list[float], verify_ms: list[float], setup: float) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "solve_ms.p50": statistics.median(solve_ms),
        "solve_ms.tail": percentile_tail(solve_ms)[0],
        "verify_ms.p50": statistics.median(verify_ms),
        "setup_s": setup,
    }


def timed_run(args, plan, refs, env: dict, workdir: Path, setup: tuple[list[float], list[float]]):
    from checks import Checker

    checker = Checker(plan, refs)
    tally = Tally()
    per_pass = sum(step.kind in TIMED_KINDS for step in plan.steps)
    min_passes = math.ceil(MIN_TAIL_SAMPLES / per_pass)
    passes = max(round(args.seconds / NOMINAL_PASS_S[args.workload]), min_passes)
    walls: list[float] = []
    solve_ms: list[float] = []
    verify_ms: list[float] = []
    factors: list[float] = []
    scaled: dict[str, list[float]] = {"walls": [], "solve": [], "verify": []}
    peak_kb = 0
    objective_sum = reference_sum = 0
    problems: list[str] = []
    started = perf_counter()
    for p in range(passes):
        calls, calibrations = [], []
        for i, step in enumerate(plan.steps):
            calibrations.append(calibration_s())
            calls.append(run_cli(step.argv, env, workdir / "outputs" / f"call-{i}.stdout", step))
        factor = speed_factor(calibrations)
        factors.append(factor)
        walls.append(sum(call.seconds for call in calls))
        scaled["walls"].append(walls[-1] * factor)
        outputs = [_read(step.output) for step in plan.steps]
        for call, output in zip(calls, outputs):
            step = call.step
            error, value = check_call(checker, step, call.code, call.stdout.read_bytes(), output)
            tally.record(f"pass {p}: {step.kind} {step.item}", error)
            peak_kb = max(peak_kb, call.max_rss_kb)
            if step.kind in TIMED_KINDS:
                solve_ms.append(call.seconds * 1e3)
                scaled["solve"].append(call.seconds * 1e3 * factor)
                objective_sum += value if error is None else 0
                reference_sum += checker.bound(step.item)
            elif step.kind == "verify":
                verify_ms.append(call.seconds * 1e3)
                scaled["verify"].append(call.seconds * 1e3 * factor)
        if p == 0:
            step, raw = _self_check_step(plan, refs, outputs)
            error = self_check(checker, step, raw) if step else "self-check: no exact packing with an edge"
            if error:
                problems.append(error)
        if p + 1 >= min_passes and perf_counter() - started > MAX_TIMED_FACTOR * args.seconds:
            break
    setup_times, setup_calibrations = setup
    setup_s = statistics.median(setup_times)
    values = _timings(
        scaled["walls"], scaled["solve"], scaled["verify"], setup_s * speed_factor(setup_calibrations)
    )
    values.update({
        "peak_rss_mb": peak_kb / 1024,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "objective_ratio": objective_sum / reference_sum if reference_sum else 0.0,
    })
    tail_pct = percentile_tail(solve_ms)[1]
    samples = {
        "wall_s": f"median of {len(walls)} passes (sum of the pass's calls), speed-scaled",
        "solve_ms.p50": f"median of {len(solve_ms)} solve/oracle calls, speed-scaled",
        "solve_ms.tail": f"p{tail_pct:.1f} of {len(solve_ms)} solve/oracle calls, 10 beyond it, speed-scaled",
        "verify_ms.p50": f"median of {len(verify_ms)} verify calls, speed-scaled",
        "peak_rss_mb": f"max over {tally.attempted} CLI children",
        "setup_s": f"median of {len(setup_times)} set-ups, speed-scaled",
        "success_rate": f"{tally.attempted - tally.failed} of {tally.attempted} calls passed",
        "objective_ratio": f"{objective_sum} / {reference_sum} over {len(solve_ms)} solve/oracle calls",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    per_item: dict[str, list[float]] = {}
    for step, ms in zip(itertools.cycle([s for s in plan.steps if s.kind in TIMED_KINDS]), solve_ms):
        per_item.setdefault(step.item, []).append(ms)
    extra = {
        "fail_rate": f"{tally.failed / tally.attempted:.6f} ({tally.failed} failed of {tally.attempted} attempted)",
        "passes": f"{len(walls)} of {passes} planned",
        "pass_walls_s": [round(w, 3) for w in walls],
        "speed_factors": [round(f, 3) for f in [speed_factor(setup_calibrations)] + factors],
        "unscaled": {name: round(v, 4) for name, v in _timings(walls, solve_ms, verify_ms, setup_s).items()},
        "solve_ms.p50 per input": {item: round(statistics.median(v), 1) for item, v in per_item.items()},
    }
    return tally, problems, metrics, samples, extra


# -- traced run (trace 1) --------------------------------------------------------


def traced_run(args, plan, refs, env: dict, workdir: Path, setup: tuple[list[float], list[float]]):
    from checks import Checker
    from tracing import SPANS, Tracer, installed, replay_pass

    checker = Checker(plan, refs)
    gadgets = {name: checker.gadget(name) for name, item in plan.items.items() if item.cnf is not None}
    tally = Tally()
    tracer = Tracer()
    passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload] / 2))
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    occurrences = 0
    calibrations: list[float] = []

    def check(p: int, mode: str, results) -> int:
        total = 0
        for step, code, stdout in results:
            output = _read(step.output)
            error, value = check_call(checker, step, code, stdout.encode(), output)
            tally.record(f"{mode} pass {p}: {step.kind} {step.item}", error)
            total += value
        return total

    for p in range(passes):
        calibrations += [calibration_s() for _ in range(5)]
        for traced in (p % 2 == 1, p % 2 == 0):  # alternate which replay goes first
            if traced:
                with installed(tracer):
                    wall, results = replay_pass(plan, env, gadgets, tracer)
                traced_walls.append(wall)
                occurrences = check(p, "traced", results)
            else:
                wall, results = replay_pass(plan, env, gadgets, None)
                plain_walls.append(wall)
                check(p, "plain", results)

    calibrations += [calibration_s() for _ in range(5)]
    factor = speed_factor(calibrations)
    seconds, calls, top = tracer.self_times()
    other = sum(traced_walls) - top
    problems = []
    covered = sum(seconds.values()) + other
    if abs(covered - sum(traced_walls)) > 1e-6 * sum(traced_walls):
        problems.append(f"self times plus other sum to {covered} s, traced wall is {sum(traced_walls)} s")
    with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")

    ms = 1e3 * factor / passes  # seconds summed over the run -> speed-scaled ms per pass
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.ms"] = {"value": seconds[name] * ms, "unit": "ms"}
        metrics[f"{name}.calls"] = {"value": calls[name] // passes, "unit": "count"}
    metrics["work.nk"] = {"value": plan.work_nk(), "unit": "count"}
    metrics["work.occurrences"] = {"value": occurrences, "unit": "count"}
    metrics["trace.wall.ms"] = {"value": sum(traced_walls) * ms, "unit": "ms"}
    metrics["trace.other.ms"] = {"value": other * ms, "unit": "ms"}
    metrics["trace.overhead.ms"] = {"value": (sum(traced_walls) - sum(plain_walls)) * ms, "unit": "ms"}
    samples = {name: f"per pass, mean of {passes} traced passes, speed-scaled" for name in metrics}
    samples["trace.overhead.ms"] = f"traced minus plain wall, mean of {passes} passes each, speed-scaled"
    for name in ("work.nk", "work.occurrences") + tuple(f"{span}.calls" for span in SPANS):
        samples[name] = "per pass, exact count"
    extra = {
        "passes": passes,
        "spans": len(tracer.spans),
        "speed_factor": round(factor, 3),
        "setup_s": statistics.median(setup[0]),
    }
    return tally, problems, metrics, samples, extra


# -- main ----------------------------------------------------------------------


def _declared_metrics(section: str) -> list[str] | None:
    """Metric names BENCHMARK.json lists in a section, when the file is there."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return [m["name"] for m in json.load(fh)[section]]
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "treepack" / "cli.py").is_file():
        print(f"error: no treepack sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import reference

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env()
    started = perf_counter()
    # One CPU for the harness and, by inheritance, every CLI child, so the
    # calibration measures the CPU the calls run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    plan, setup_times, setup_calibrations = setup(args.workload, args.seed, workdir, env)
    refs_start = perf_counter()
    refs = {name: reference(item) for name, item in plan.items.items()}
    refs_s = perf_counter() - refs_start
    run = traced_run if args.trace else timed_run
    tally, problems, metrics, samples, extra = run(args, plan, refs, env, workdir, (setup_times, setup_calibrations))
    extra["references_s"] = round(refs_s, 3)
    extra["run_s"] = round(perf_counter() - started, 3)

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None and declared != list(metrics):
        problems.append(f"metrics {list(metrics)} differ from BENCHMARK.json {declared}")
    correct = tally.failed == 0 and not problems
    env_info = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_info,
        "workload_record": WORKLOADS[args.workload],
        "excluded": EXCLUDED,
        "inputs_sha256": plan.digests(),
        "work_nk": plan.work_nk(),
        "metrics": metrics,
        "samples": samples,
        "extra": extra,
        "correct": correct,
        "attempted": tally.attempted,
        "failures": tally.failures[:50],
        "problems": problems,
    }
    with open(workdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(workdir / "inputs", ignore_errors=True)
    shutil.rmtree(workdir / "outputs", ignore_errors=True)

    print(f"# treepack benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"# inputs: {len(plan.items)} files, work.nk={plan.work_nk()}, "
          f"sha256 of all = {hashlib.sha256(json.dumps(plan.digests()).encode()).hexdigest()[:16]}")
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:40s} {metric['value']:14.4f} {metric['unit']:6s} {samples[name]}")
    for key, value in extra.items():
        print(f"{args.workload:12s} {key:40s} {value}")
    for line in tally.failures[:20] + problems:
        print(f"FAIL {line}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
