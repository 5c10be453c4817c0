"""In-process serial run of a workload's CLI invocations, optionally traced.

Run as a child interpreter:

    python3 perfbench/tracer.py PLAN.json RESULT.json

PLAN.json holds {"invocations": [[argv...], ...], "trace": true|false}. Each
invocation is passed to ``ponedge.cli.main`` in this one process. With
tracing on, module-level callables are wrapped at the name their caller
looks up, so every call records a span (name, start, end, parent and a few
counts). Spans stay in memory and are written to RESULT.json at the end.

A target that no longer exists is reported as absent instead of failing the
run, so the benchmark keeps working when a later change removes a function.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _kernel_counts(args, kwargs, result):
    return {"events": result.processed_events, "tasks": len(args[0].arrival_time)}


def _hash_counts(args, kwargs, result):
    return {"lines": len(args[0])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute the caller looks up, span name, counts taken from the call)
TARGETS = (
    ("ponedge.cli", "main", "cli.main", None),
    ("ponedge.cli", "run_cell", "sweep.run_cell", None),
    ("ponedge.cli", "sweep_scenario", "sweep.sweep_scenario", None),
    ("ponedge.cli", "compare_scenario", "sweep.compare_scenario", None),
    ("ponedge.cli", "write_comparison", "sweep.write_comparison", None),
    ("ponedge.sweep", "sweep_scenario", "sweep.sweep_scenario", None),
    ("ponedge.sweep", "run_cells", "sweep.run_cells", None),
    ("ponedge.sweep", "run_cell", "sweep.run_cell", None),
    ("ponedge.sweep", "write_aggregate", "sweep.write_aggregate", None),
    ("ponedge.sweep", "run_simulation", "simulation.run_simulation", None),
    ("ponedge.sweep", "write_tasks_csv", "metrics.write_tasks_csv", _file_bytes),
    ("ponedge.sweep", "write_summary_csv", "metrics.write_summary_csv", None),
    ("ponedge.sweep", "read_summary_csv", "metrics.read_summary_csv", None),
    ("ponedge.sweep", "aggregate", "metrics.aggregate", None),
    ("ponedge.simulation", "topology_preset", "config.topology_preset", None),
    ("ponedge.simulation", "build_kernel_inputs", "simulation.build_kernel_inputs", None),
    ("ponedge.simulation", "route_between", "network.route_between", None),
    ("ponedge.simulation", "generate_arrivals", "workload.generate_arrivals", None),
    ("ponedge._kernel", "run", "kernel.run", _kernel_counts),
    ("ponedge.simulation", "_build_records", "simulation._build_records", None),
    ("ponedge.simulation", "summarize", "metrics.summarize", None),
    ("ponedge.simulation", "node_utilization", "simulation.node_utilization", None),
    ("ponedge.simulation", "assert_run_invariants", "simulation.assert_run_invariants", None),
    ("ponedge.simulation", "_trace_lines", "simulation._trace_lines", None),
    ("ponedge.simulation", "hash_trace", "engine.hash_trace", _hash_counts),
)

# Kernel inputs kept for timing _kernel.run on every available backend.
REPLAY_CALLS = 2


class Recorder:
    """Spans as [name, start, end, parent index, counts]; one thread only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.kernel_calls: list[tuple] = []

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                try:
                    span[4] = counts(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    span[4] = None  # the callable changed shape; keep the timing
            if name == "kernel.run" and len(self.kernel_calls) < REPLAY_CALLS:
                self.kernel_calls.append(args[:2])
            return result
        return wrapper

    def install(self) -> tuple[list[str], dict]:
        """Wrap every target that exists; return (absent targets, originals)."""
        absent = []
        originals = {}
        for module_name, attr, name, counts in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(f"{module_name}.{attr}")
                continue
            originals[(module_name, attr)] = fn
            setattr(module, attr, self.wrap(name, fn, counts))
        return absent, originals


def replay_kernel(recorder: Recorder, original_run) -> dict[str, float]:
    """Milliseconds to re-run the kept kernel inputs on each available backend."""
    from ponedge._kernel import available_backends

    timings = {}
    for backend in available_backends():
        start = time.perf_counter()
        for inputs, node_specs in recorder.kernel_calls:
            original_run(inputs, node_specs, backend=backend)
        timings[backend] = (time.perf_counter() - start) * 1e3
    return timings


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    import ponedge.cli

    recorder = Recorder()
    absent, originals = recorder.install() if plan["trace"] else ([], {})
    walls = []
    codes = []
    for argv in plan["invocations"]:
        start = time.perf_counter()
        codes.append(ponedge.cli.main(argv))
        walls.append(time.perf_counter() - start)
    replay = {}
    if ("ponedge._kernel", "run") in originals and recorder.kernel_calls:
        replay = replay_kernel(recorder, originals[("ponedge._kernel", "run")])
    from ponedge import resolve_backend

    with open(result_path, "w") as fh:
        json.dump({"walls": walls, "codes": codes, "spans": recorder.spans,
                   "absent": absent, "replay_ms": replay,
                   "backend": resolve_backend()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
