#!/usr/bin/env python3
"""Benchmark the kernel backends on one representative cell per scenario.

Each run is timed with trace collection off, so the backend columns measure
simulation work. Writing the trace file (into memory), which a `--trace` run
adds on top, is timed in its own column. When the compiled kernel is built,
both backends are timed, the speedup is reported, and the two traces are checked
to be bit-identical; otherwise only the pure-Python backend is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import time

from ponedge._kernel import available_backends
from ponedge.simulation import RunParams, run_simulation, write_trace
from ponedge.workload import scenario_preset

CASES = [
    ("smart-city", "genio", 43_000.0),
    ("e-health", "baseline", 220_000.0),
    ("smart-building", "baseline", 440_000.0),
    ("aigc", "baseline", 700_000.0),
]


def time_run(params: RunParams, backend: str, repeats: int) -> tuple[float, int]:
    """Best wall time of an untraced run, and its processed event count."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        start = time.perf_counter()
        events = run_simulation(params, backend=backend).processed_events
        best = min(best, time.perf_counter() - start)
    return best, events


def time_trace(params: RunParams, backend: str, repeats: int) -> tuple[float, str]:
    """Best wall time to write one run's trace file, and the file's SHA-256."""
    result = run_simulation(params, backend=backend, collect_trace=True)
    best = float("inf")
    for _ in range(repeats):
        sink = io.BytesIO()
        start = time.perf_counter()
        write_trace(sink, result.topology, result.outputs.trace)
        best = min(best, time.perf_counter() - start)
    return best, hashlib.sha256(sink.getvalue()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=600.0,
                        help="simulated seconds per cell (default 600)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per cell, best time wins (default 3)")
    args = parser.parse_args()

    backends = available_backends()
    print(f"backends available: {', '.join(backends)}")
    compiled = "c" in backends
    if not compiled:
        print("compiled kernel not built; timing the pure-Python backend only")

    header = (f"{'scenario':<15} {'topology':<9} {'mips':>9} {'events':>8} "
              f"{'python':>16} {'trace':>11}")
    if compiled:
        header += f" {'c':>16} {'speedup':>8}  identical"
    print(header)
    print("-" * len(header))
    for scenario, topology, mips in CASES:
        params = RunParams(scenario=scenario_preset(scenario), topology=topology,
                           cpu_mips=mips, seed=1, duration_s=args.duration)
        py_time, events = time_run(params, "python", args.repeats)
        trace_time, py_hash = time_trace(params, "python", args.repeats)
        py_rate = f"{py_time:.3f}s {events / py_time / 1e3:.0f}k/s"
        line = (f"{scenario:<15} {topology:<9} {mips:>9.0f} {events:>8} "
                f"{py_rate:>16} {f'{trace_time:.3f}s':>11}")
        if compiled:
            c_time, _ = time_run(params, "c", args.repeats)
            _, c_hash = time_trace(params, "c", 1)
            c_rate = f"{c_time:.3f}s {events / c_time / 1e3:.0f}k/s"
            line += f" {c_rate:>16} {py_time / c_time:>7.1f}x  {py_hash == c_hash}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
