#!/usr/bin/env python3
"""Benchmark of the ``ponedge`` CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout; it imports ``ponedge`` from ``src/`` and
builds nothing. The kernel backend is whatever ``auto`` resolves to, with
``PONEDGE_BACKEND`` unset; its name is printed.

Workloads (a closed loop: each invocation starts when the previous ends):

* ``grid-sweep``: ``ponedge compare --all`` over the default grid (4
  scenarios x 2 topologies x 5 CPUs, one seed, 600 simulated s, 2 jobs).
  The headline user path; dominated by the kernel event loop, record
  building and tasks.csv writing, with arrivals reused in-process.
* ``trace-cells``: single-cell ``ponedge run --trace`` invocations, each a
  fresh interpreter, on the two contention-heavy reference cells
  (smart-building and aigc, baseline topology) over three seeds. Pays
  import, uncached arrivals, trace formatting and hashing every time.

With ``--trace 0`` the workload is repeated, each time in a fresh out-dir,
while another repetition fits in ``--seconds``, and the end-to-end metrics
are printed:
``setup_s`` (median over fresh interpreters importing ``ponedge.cli`` and
resolving the backend), ``wall_s`` (median over repetitions), ``run_s_p50``
(median wall per CLI invocation, taken per kind of invocation and averaged
over the kinds, since trace-cells mixes two cells of different cost),
``peak_rss_mb`` (largest resident set of any process in the first
repetition, read with ``wait4``) and ``disk_mb`` (bytes under the
out-dir, trace files included).

With ``--trace 1`` the invocations run serially (``--jobs 1``) and
in-process in a child interpreter, alternately plain and with every module
boundary wrapped (see ``tracer.py``), for ``--seconds``. Each per-module
metric is the median over the traced runs; ``trace.overhead_pct`` compares
the median traced and plain walls.

Every invocation's outputs are checked (``checks.py``); an invocation that
exits non-zero or a cell that fails a check counts as a failed operation.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in turn and ends with one combined object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

JOBS = 2  # processes loaded at once: a two-CPU host, fixed so runs compare across hosts
SETUP_RUNS = 9
TIME_LIMIT_S = 170.0  # a run must end within 180 s
MAX_PROBLEMS_SHOWN = 20
TRACE_CELLS = (("smart-building", 440_000), ("aigc", 700_000))
WORKLOADS = ("grid-sweep", "trace-cells")
# Six-digit cell seeds, so that file sizes do not depend on how many digits a seed has.
SEED_RANGE = range(100_000, 1_000_000)

SETUP_CODE = ("import ponedge.cli, ponedge; "
              "print(ponedge.__file__); print(ponedge.resolve_backend())")


@dataclass
class Plan:
    """One repetition of a workload: CLI invocations and the outputs expected."""

    invocations: list[list[str]]  # "{out}" and "{jobs}" are filled in per run
    kinds: list[str]  # per invocation: which cell or command it runs
    cells: list[tuple[str, str, float, int]]  # scenario, topology, mips, seed
    duration_s: float
    traces: list[str] = field(default_factory=list)  # under "{out}"
    comparison: bool = False

    def argv(self, out_dir: str, jobs: int) -> list[list[str]]:
        return [[arg.replace("{out}", out_dir).replace("{jobs}", str(jobs)) for arg in inv]
                for inv in self.invocations]


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "grid-sweep":
        cell_seed = rng.choice(SEED_RANGE)
        return Plan(
            invocations=[["compare", "--all", "--seeds", str(cell_seed), "--duration", "600",
                          "--jobs", "{jobs}", "--out-dir", "{out}"]],
            kinds=["compare"],
            cells=[(name, topology, mips, cell_seed) for name, grid in checks.CPU_GRID.items()
                   for topology in checks.TOPOLOGIES for mips in grid],
            duration_s=600.0, comparison=True)
    if workload == "trace-cells":
        plan = Plan(invocations=[], kinds=[], cells=[], duration_s=600.0)
        for cell_seed in rng.sample(SEED_RANGE, 3):
            for name, mips in TRACE_CELLS:
                trace = f"{{out}}/trace-{name}-{cell_seed}.tsv"
                plan.invocations.append([
                    "run", "--scenario", name, "--topology", "baseline", "--cpu-mips",
                    str(mips), "--seed", str(cell_seed), "--duration", "600",
                    "--trace", trace, "--out-dir", "{out}"])
                plan.kinds.append(f"run {name}")
                plan.cells.append((name, "baseline", mips, cell_seed))
                plan.traces.append(trace)
        return plan
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PONEDGE_BACKEND", None)
    env.pop("PONEDGE_SEED", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class ChildResult:
    wall_s: float
    rss_mb: float
    code: int


def run_child(args: list[str], log_path: str, deadline: float) -> ChildResult:
    """Run one interpreter to completion; wall time and peak RSS via wait4."""
    with open(log_path, "ab") as log:
        timer = None
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        try:
            timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group,
                                    (proc.pid,))
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child's group, reap it, re-raise
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            if timer is not None:
                timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; it covers the child's reaped descendants too.
    return ChildResult(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode)


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def check_outputs(plan: Plan, out_dir: str, codes: list[int], outcome: Outcome,
                  recompute: bool = True) -> dict:
    """Check one repetition's files; returns its cells and input sizes."""
    for argv, code in zip(plan.argv(out_dir, JOBS), codes):
        outcome.add([] if code == 0 else [f"exit {code}: ponedge {' '.join(argv)}"])
    cells = [checks.cell_dir(out_dir, *cell) for cell in plan.cells]
    tasks = 0
    for path, (_, _, _, seed) in zip(cells, plan.cells):
        problems = checks.check_cell(path, plan.duration_s, seed, recompute)
        outcome.add(problems)
        if not problems:
            tasks += int(checks.read_summary(os.path.join(path, "summary.csv"))["tasks_generated"])
    events = 0
    for trace in plan.traces:
        problems, lines = checks.check_trace(trace.replace("{out}", out_dir))
        outcome.add(problems)
        events += lines
    info = {"cells": cells, "tasks": tasks, "events": events if plan.traces else None,
            "accuracy": []}
    if plan.comparison:
        try:
            rows = checks.read_comparison(out_dir)
            row_problems = [checks.check_comparison_row(row) for row in rows]
            info["accuracy"] = checks.accuracy_lines(rows)
        except (OSError, KeyError, ValueError) as exc:
            outcome.add([f"comparison.csv unreadable: {exc!r}"])
        else:
            for problems in row_problems:
                outcome.add(problems)
    return info


def measure_setup(log_path: str, deadline: float) -> tuple[list[float], str]:
    """Fresh interpreters importing ponedge.cli and resolving the backend."""
    times = []
    for i in range(SETUP_RUNS + 1):  # the first one warms the file cache
        result = run_child(["-c", SETUP_CODE], log_path, deadline)
        if result.code != 0:
            raise RuntimeError(f"cannot import ponedge from {SRC} (see {log_path})")
        if i:
            times.append(result.wall_s)
    with open(log_path) as fh:
        module_file, backend = fh.read().split("\n")[-3:-1]
    if not os.path.abspath(module_file).startswith(SRC + os.sep):
        raise RuntimeError(f"imported ponedge from {module_file}, not from {SRC}")
    return times, backend


@dataclass
class Rep:
    """One repetition of a workload, measured with tracing off."""

    wall_s: float
    peak_rss_mb: float
    disk_mb: float


def run_timed(workload: str, seed: int, seconds: float, work: str,
              deadline: float) -> tuple[Outcome, dict]:
    plan = make_plan(workload, seed)
    log = os.path.join(work, "children.log")
    setup_times, backend = measure_setup(os.path.join(work, "setup.log"), deadline)
    print(f"workload {workload}, seed {seed}: backend {backend}")
    outcome = Outcome()
    reps: list[Rep] = []
    invocation_walls = defaultdict(list)  # kind -> walls
    digests = Counter()  # of summary.csv files: the results
    file_digests = Counter()  # of summary.csv and tasks.csv files
    window_start = time.monotonic()
    cycle = 0.0  # time the last repetition took, checks included
    # Start a repetition only if it should end within the window.
    while not reps or time.monotonic() - window_start + cycle <= seconds:
        if reps and time.monotonic() + 2 * cycle > deadline:
            print(f"stopping early to stay within {TIME_LIMIT_S:.0f} s")
            break
        cycle_start = time.monotonic()
        out_dir = os.path.join(work, f"rep{len(reps)}")
        results = [run_child(["-m", "ponedge.cli", *argv], log, deadline)
                   for argv in plan.argv(out_dir, JOBS)]
        for kind, result in zip(plan.kinds, results):
            invocation_walls[kind].append(result.wall_s)
        failed_before = outcome.failed
        # tasks.csv is recomputed on the first repetition only; the others must
        # be byte-identical to it, which file_digests checks.
        info = check_outputs(plan, out_dir, [r.code for r in results], outcome,
                             recompute=not reps)
        reps.append(Rep(wall_s=sum(r.wall_s for r in results),
                        peak_rss_mb=max(r.rss_mb for r in results),
                        disk_mb=checks.tree_bytes(out_dir) / 1e6))
        if outcome.failed == failed_before:
            digests[checks.results_digest(out_dir, info["cells"])] += 1
            file_digests[checks.results_digest(out_dir, info["cells"],
                                               ("summary.csv", "tasks.csv"))] += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        cycle = time.monotonic() - cycle_start
    events = "n/a" if info["events"] is None else info["events"]
    print(f"input size per repetition: {len(info['cells'])} cells, {info['tasks']} tasks, "
          f"{events} trace events; {len(reps)} repetitions")
    for line in info["accuracy"]:
        print(line)
    for digest, count in sorted(digests.items()):
        print(f"results digest {digest} ({count} of {len(reps)} repetitions)")
    if len(file_digests) > 1:
        outcome.problems.append("output files differ between repetitions of one run")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "run_s_p50": (statistics.mean(statistics.median(walls)
                                      for walls in invocation_walls.values()), "s"),
        # A child's ru_maxrss starts from this process's own high-water mark
        # (Linux carries it over at exec), which the output checks raise; so
        # only the first repetition, started before any check, is clean.
        "peak_rss_mb": (reps[0].peak_rss_mb, "MB"),
        "disk_mb": (statistics.median(r.disk_mb for r in reps), "MB"),
    }
    print(f"samples: setup_s {len(setup_times)}, wall_s {len(reps)}")
    for kind, walls in invocation_walls.items():
        print(f"  {kind}: median {statistics.median(walls):.4f} s over {len(walls)} invocations")
    return outcome, metrics


@dataclass
class SpanTotals:
    total: dict  # span name -> seconds, children included
    own: dict  # span name -> seconds, children excluded
    calls: Counter
    counts: dict  # "<span name>.<count>" -> summed value


def span_totals(spans: list[list]) -> SpanTotals:
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = SpanTotals(defaultdict(float), defaultdict(float), Counter(), defaultdict(int))
    for i, (name, start, end, _, span_counts) in enumerate(spans):
        # Calls are serial, so a span's children never overlap: their summed
        # durations are the part of the span they cover.
        totals.total[name] += end - start
        totals.own[name] += end - start - child_time[i]
        totals.calls[name] += 1
        for key, value in (span_counts or {}).items():
            totals.counts[f"{name}.{key}"] += value
    return totals


def layer_metrics(spans: SpanTotals, traced: dict) -> dict:
    """Per-module counts and times from the traced run's spans."""
    total, own, calls, counts = spans.total, spans.own, spans.calls, spans.counts
    kernel_s = total["kernel.run"]
    metrics = {
        "kernel.run.calls": (calls["kernel.run"], "count"),
        "kernel.run.self_ms": (own["kernel.run"] * 1e3, "ms"),
        "kernel.events": (counts["kernel.run.events"], "count"),
        "kernel.events_per_s": (counts["kernel.run.events"] / kernel_s if kernel_s else 0.0,
                                "1/s"),
        "kernel.tasks": (counts["kernel.run.tasks"], "count"),
    }
    replay = {"python": 0.0, **traced["replay_ms"]}
    for backend, ms in replay.items():
        metrics[f"kernel.run.{backend}.ms"] = (ms, "ms")
    for name in ("simulation.build_kernel_inputs", "simulation.run_simulation",
                 "config.topology_preset", "sweep.run_cell", "cli.main"):
        metrics[f"{name}.self_ms"] = (own[name] * 1e3, "ms")
    for name in ("simulation._build_records", "simulation._trace_lines",
                 "simulation.node_utilization", "simulation.assert_run_invariants",
                 "network.route_between", "workload.generate_arrivals", "engine.hash_trace",
                 "metrics.write_tasks_csv", "metrics.write_summary_csv", "metrics.summarize",
                 "metrics.aggregate", "sweep.write_aggregate", "sweep.write_comparison"):
        metrics[f"{name}.ms"] = (total[name] * 1e3, "ms")
    for name in ("network.route_between", "config.topology_preset",
                 "workload.generate_arrivals", "metrics.read_summary_csv", "sweep.run_cell"):
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["engine.hash_trace.lines"] = (counts["engine.hash_trace.lines"], "count")
    metrics["metrics.write_tasks_csv.bytes"] = (counts["metrics.write_tasks_csv.bytes"], "bytes")
    simulations = calls["simulation.run_simulation"]
    cells = calls["sweep.run_cell"]
    metrics["workload.arrival_reuse_ratio"] = (
        1.0 - calls["workload.generate_arrivals"] / simulations if simulations else 0.0, "1")
    metrics["sweep.cache_hit_ratio"] = (1.0 - simulations / cells if cells else 0.0, "1")
    return metrics


def run_traced(workload: str, seed: int, seconds: float, work: str,
               deadline: float) -> tuple[Outcome, dict]:
    plan = make_plan(workload, seed)
    log = os.path.join(work, "children.log")
    outcome = Outcome()
    walls = {False: [], True: []}  # traced? -> wall of each in-process run
    traced = []

    def in_process(trace: bool) -> dict | None:
        run_id = len(walls[False]) + len(walls[True])
        out_dir = os.path.join(work, f"run{run_id}")
        plan_path = os.path.join(work, f"plan{run_id}.json")
        result_path = os.path.join(work, f"result{run_id}.json")
        with open(plan_path, "w") as fh:
            json.dump({"invocations": plan.argv(out_dir, 1), "trace": trace}, fh)
        child = run_child([TRACER, plan_path, result_path], log, deadline)
        if child.code != 0:
            outcome.add([f"in-process run exited {child.code} (see {log})"])
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        check_outputs(plan, out_dir, result["codes"], outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
        walls[trace].append(sum(result["walls"]))
        return result

    # Plain and traced runs alternate, ending on a plain one, so that drift in
    # machine speed affects both sides of trace.overhead_pct alike. Another
    # pair starts only if it should end within the window.
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        if in_process(False) is None or (result := in_process(True)) is None:
            return outcome, {}
        traced.append(result)
        pair = time.monotonic() - pair_start
        if time.monotonic() - start + pair > seconds or time.monotonic() + 2 * pair > deadline:
            break
    if in_process(False) is None:
        return outcome, {}
    print(f"workload {workload}, seed {seed}: backend {traced[0]['backend']}, serial, "
          f"in-process; medians over {len(traced)} traced runs")
    for target in traced[0]["absent"]:
        print(f"absent span: {target} does not exist; its metrics read 0")
    spans = span_totals(traced[0]["spans"])
    print("largest self times (first traced run):")
    for name, own in sorted(spans.own.items(), key=lambda item: -item[1])[:6]:
        print(f"  {name:<36} {own * 1e3:10.1f} ms over {spans.calls[name]} calls")
    per_run = [layer_metrics(span_totals(result["spans"]), result) for result in traced]
    metrics = {name: (statistics.median(run[name][0] for run in per_run), unit)
               for name, (_, unit) in per_run[0].items()}
    plain = statistics.median(walls[False])
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(walls[True]) - plain) / plain,
                                     "%")
    return outcome, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, dict]:
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if trace:
            outcome, metrics = run_traced(workload, seed, seconds, work, deadline)
        else:
            outcome, metrics = run_timed(workload, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it
    for name, (value, unit) in metrics.items():
        text = f"{value:d}" if isinstance(value, int) else f"{value:.4f}"
        print(f"{workload:<12} {name:<40} {text:>16} {unit}")
    print(f"{workload:<12} {'fail_ratio':<40} {outcome.failed:>7} / {outcome.attempted}")
    for problem in outcome.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED: {problem}")
    if len(outcome.problems) > MAX_PROBLEMS_SHOWN:
        print(f"FAILED: ... and {len(outcome.problems) - MAX_PROBLEMS_SHOWN} more")
    return outcome, metrics


def result_line(outcome: Outcome, metrics: dict) -> str:
    return json.dumps({
        "correct": not outcome.problems and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "ponedge", "cli.py")):
        print(f"no ponedge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    total = Outcome()
    combined = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        outcome, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            print(result_line(outcome, metrics))
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.problems += outcome.problems
        combined.update({f"{workload}.{k}" if args.workload == "all" else k: v
                         for k, v in metrics.items()})
    print(result_line(total, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
