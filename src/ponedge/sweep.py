"""Batch harness: parameter-sweep cells, cached results layout, comparisons.

Results land in out_dir/<scenario>/<topology>/<cpu-mips>/<seed>/ with
summary.csv and a resolved config.json per cell; a single-cell run also
writes the per-task tasks.csv. Sweep aggregates per scenario, compare reads
(or produces) both topologies and emits the comparison tables. Cell
directories are staged under a temporary name and renamed only when
complete, so an interrupted invocation never leaves a partial result that a
later one would trust.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import shutil

from ._kernel import library, resolve_backend
from .config import TOPOLOGY_PRESETS, ExperimentSpec, cpu_grid, mips_text
from .metrics import (RunSummary, aggregate, format_number, read_summary_csv,
                      write_summary_csv, write_tasks_csv)
from .network import ConfigurationError, Record, fields
from .simulation import RunParams, run_simulation


class ComparisonRow(Record):
    scenario: str
    cpu: str
    mips: float
    genio_mean_latency_s: float
    baseline_mean_latency_s: float
    reduction_pct: float
    genio_tsr_pct: float
    baseline_tsr_pct: float


COMPARISON_COLUMNS = list(fields(ComparisonRow))
PLOT_COLUMNS = ["scenario", "cpu", "mips", "topology", "tsr_pct", "mean_latency_s",
                "deadline_s"]
# The revision of the simulation model. Every change that alters results
# bumps it, so a cell published by an earlier model is recomputed.
MODEL_REVISION = 1


def cell_directory(out_dir: str, params: RunParams) -> str:
    return os.path.join(out_dir, params.scenario.name, params.topology,
                        mips_text(params.cpu_mips), str(params.seed))


def _field_values(record) -> dict:
    """A record's fields by name; config.json serializes nested records with it."""
    return {name: getattr(record, name) for name in fields(record)}


def resolved_config(params: RunParams) -> str:
    """config.json's text: everything the cell's outcome depends on, defaults
    and model included."""
    return json.dumps(_field_values(params) | {"model_revision": MODEL_REVISION}, indent=2,
                      sort_keys=True, default=_field_values)


def _published_summary(directory: str, config_text: str,
                       tasks_csv: bool) -> RunSummary | None:
    """The summary of a published cell whose config.json is config_text and
    which holds tasks.csv if tasks_csv is set and whose files read back, else None."""
    if tasks_csv and not os.path.isfile(os.path.join(directory, "tasks.csv")):
        return None
    try:
        with open(os.path.join(directory, "config.json")) as fh:
            if fh.read() != config_text:
                return None
        return read_summary_csv(os.path.join(directory, "summary.csv"))
    except (OSError, ValueError, LookupError, TypeError, csv.Error):
        return None


@contextlib.contextmanager
def _replacing(path: str):
    """A staging path beside `path` to write its new content to: renamed onto
    `path` when the block completes, removed when it fails."""
    staging = f"{path}.tmp-{os.getpid()}"
    try:
        yield staging
        os.replace(staging, path)
    finally:
        if os.path.exists(staging):
            os.remove(staging)


def run_cell(params: RunParams, out_dir: str, trace_path: str | None = None, *,
             tasks_csv: bool) -> RunSummary:
    """Run one cell, publish its files atomically, and return its summary as published.

    The cell gets summary.csv and config.json, plus the per-task tasks.csv
    when tasks_csv is set. A published cell is reused only when its
    config.json matches this cell's resolved config and, if tasks_csv is set,
    it holds tasks.csv; otherwise it is recomputed and replaced. With
    trace_path the cell is always recomputed, and the write_trace of the
    library that ran it streams its event trace into a staging file, renamed
    onto trace_path when complete.
    """
    final_dir = cell_directory(out_dir, params)
    config_text = resolved_config(params)
    if trace_path is None:
        cached = _published_summary(final_dir, config_text, tasks_csv)
        if cached is not None:
            return cached
    result = run_simulation(params, collect_trace=trace_path is not None)
    staging = final_dir + f".tmp-{os.getpid()}"
    try:
        os.makedirs(staging, exist_ok=True)
        if tasks_csv:
            write_tasks_csv(os.path.join(staging, "tasks.csv"), result.inputs.arrival_time,
                            result.outputs, result.node_ids,
                            deadline_s=params.scenario.deadline_s,
                            scenario=params.scenario.name, topology=params.topology,
                            cpu=params.cpu, seed=params.seed,
                            backend=result.backend)
        write_summary_csv(os.path.join(staging, "summary.csv"), result.summary)
        # what a later invocation reusing this cell reads, so that aggregates
        # are computed from the same numbers whether the cell is fresh or not
        summary = read_summary_csv(os.path.join(staging, "summary.csv"))
        with open(os.path.join(staging, "config.json"), "w") as fh:
            fh.write(config_text)
        if os.path.isdir(final_dir):
            shutil.rmtree(final_dir)  # a partial cell from an interrupt, or a stale one
        os.makedirs(os.path.dirname(final_dir), exist_ok=True)
        os.rename(staging, final_dir)
    finally:
        if os.path.isdir(staging):
            shutil.rmtree(staging)
    if trace_path is not None:
        with _replacing(trace_path) as staging, open(staging, "wb") as fh:
            library(result.backend).write_trace(fh, result.outputs.trace, result.node_ids)
    return summary


def _run_cell_job(params: RunParams, out_dir: str) -> RunSummary:
    # sweep cells publish summaries only; `ponedge run` gives a cell's tasks
    return run_cell(params, out_dir, tasks_csv=False)


def run_cells(cells: list[RunParams], out_dir: str, jobs: int) -> list[RunSummary]:
    """Run independent cells, optionally in parallel; order follows `cells`.

    Up to `jobs` workers (the CPU count if 0 or less) take one cell at a
    time, in the order given: threads of this process on the C kernel, whose
    calls release the GIL, and worker processes on the pure-Python kernel. No
    two cells may share a directory, so no two workers publish the same one.
    On a failure, the failure of the lowest-indexed cell is raised, as a
    serial run would raise it.
    """
    if len({cell_directory(out_dir, params) for params in cells}) < len(cells):
        raise ConfigurationError("two cells would publish one directory")
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(cells))
    job = functools.partial(_run_cell_job, out_dir=out_dir)
    if jobs <= 1:
        return [job(params) for params in cells]
    if resolve_backend() == "c":
        return _run_on_threads(job, cells, jobs)
    import multiprocessing  # only a pool needs it; keeps `import ponedge.cli` light

    with multiprocessing.Pool(jobs, initializer=_quiet_worker) as pool:
        # imap hands results back in order, so its first error is the
        # lowest-indexed cell's
        return list(pool.imap(job, cells, chunksize=1))


def _run_on_threads(job, cells: list[RunParams], jobs: int) -> list[RunSummary]:
    """The summaries `job` returns for `cells`, run on `jobs` threads. After a
    failure or an interrupt, each thread finishes the cell it holds and takes
    no more."""
    import threading  # only threads need it; keeps `import ponedge.cli` light

    summaries: list = [None] * len(cells)
    failures: dict[int, BaseException] = {}
    order = iter(range(len(cells)))
    lock = threading.Lock()
    stop = threading.Event()

    def work(done) -> None:
        try:
            while not stop.is_set():
                with lock:
                    index = next(order, None)
                if index is None:
                    return
                try:
                    summaries[index] = job(cells[index])
                except BaseException as exc:
                    failures[index] = exc
                    stop.set()
        finally:
            done.set()

    # Waited on through events, not Thread.join: on Python 3.11, a join that
    # an interrupt breaks can mark its thread stopped while it still runs.
    finished = []
    try:
        for _ in range(jobs):
            done = threading.Event()
            threading.Thread(target=work, args=(done,)).start()
            finished.append(done)
        for done in finished:
            done.wait()
    finally:  # on an interrupt too, so that no cell is left half published
        stop.set()
        for done in finished:
            done.wait()
    if failures:
        raise failures[min(failures)]
    return summaries


def _quiet_worker() -> None:
    """Pool worker setup: SIGINT is left to the parent, which then ends the
    pool with SIGTERM. That unwinds the worker's cell, which removes its
    staging directory, and the worker exits without a word."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _exit_worker)


def _exit_worker(signum, frame) -> None:
    raise SystemExit(128 + signum)


def build_cells(spec: ExperimentSpec, scenario: str) -> list[RunParams]:
    """One scenario's cells: both topology presets x its CPUs x its seeds."""
    scenario_spec = spec.scenario_spec(scenario)
    if spec.cpus is None and scenario_spec in spec.custom_scenarios:
        raise ConfigurationError(f"custom scenario {scenario!r} has no CPU grid, so the "
                                 f"document must list cpus")
    grid = spec.cpus if spec.cpus is not None else cpu_grid(scenario)
    return [
        RunParams(scenario_spec, topology, mips, seed, cpu=label, duration_s=spec.duration_s,
                  strategy=spec.strategy, arrivals=spec.arrivals, calibration=spec.calibration)
        for topology in TOPOLOGY_PRESETS
        for label, mips in grid
        for seed in spec.seeds
    ]


def _write_csv_atomic(path: str, header: list[str], rows: list[list]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with _replacing(path) as staging, open(staging, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_aggregate(out_dir: str, scenario_name: str,
                    summaries: list[RunSummary]) -> str:
    rows = aggregate(summaries)
    header = list(rows[0].keys())
    path = os.path.join(out_dir, scenario_name, "aggregate.csv")
    _write_csv_atomic(path, header, [
        [format_number(value) for value in row.values()] for row in rows
    ])
    return path


def sweep_scenarios(spec: ExperimentSpec, *, out_dir: str,
                    jobs: int) -> list[list[RunSummary]]:
    """Each of the experiment's scenarios' cells, plus its aggregate.

    Every cell is built, and so checked, before any runs. The cells of every
    scenario go through one run_cells call, so one set of workers serves the
    whole experiment; the aggregates are written after.
    """
    grids = [build_cells(spec, scenario) for scenario in spec.scenarios]
    summaries = run_cells([cell for cells in grids for cell in cells], out_dir, jobs)
    per_scenario = []
    for scenario, cells in zip(spec.scenarios, grids):
        mine, summaries = summaries[:len(cells)], summaries[len(cells):]
        write_aggregate(out_dir, scenario, mine)
        per_scenario.append(mine)
    return per_scenario


class ScenarioComparison(Record):
    scenario: str
    rows: tuple[ComparisonRow, ...]
    average_reduction_pct: float
    seeds: tuple[int, ...]


def compare_scenarios(spec: ExperimentSpec, *, out_dir: str,
                      jobs: int) -> list[ScenarioComparison]:
    """Per-CPU latency/TSR comparison on seed-averaged cells, both topologies.

    Missing cells are computed on demand (sweep results are reused through
    the on-disk cache), all scenarios' cells in one sweep_scenarios call.
    """
    per_scenario = sweep_scenarios(spec, out_dir=out_dir, jobs=jobs)
    return [_comparison(scenario, summaries)
            for scenario, summaries in zip(spec.scenarios, per_scenario)]


def _comparison(scenario: str, summaries: list[RunSummary]) -> ScenarioComparison:
    by_cell = aggregate(summaries)
    cells = {(row["topology"], row["mips"]): row for row in by_cell}
    mips_grid = sorted({row["mips"] for row in by_cell})
    rows = []
    for mips in mips_grid:
        genio = cells[("genio", mips)]
        baseline = cells[("baseline", mips)]
        reduction = 100.0 * (
            genio["mean_latency_s_mean"] - baseline["mean_latency_s_mean"]
        ) / baseline["mean_latency_s_mean"]
        rows.append(ComparisonRow(
            scenario=scenario,
            cpu=genio["cpu"],
            mips=mips,
            genio_mean_latency_s=genio["mean_latency_s_mean"],
            baseline_mean_latency_s=baseline["mean_latency_s_mean"],
            reduction_pct=reduction,
            genio_tsr_pct=genio["tsr_pct_mean"],
            baseline_tsr_pct=baseline["tsr_pct_mean"],
        ))
    average = sum(r.reduction_pct for r in rows) / len(rows)
    seeds = tuple(sorted({s.seed for s in summaries}))
    return ScenarioComparison(scenario, tuple(rows), average, seeds)


def write_comparison(out_dir: str, comparisons: list[ScenarioComparison],
                     deadlines: dict[str, float]) -> tuple[str, str]:
    comparison_rows = []
    plot_rows = []
    for comp in comparisons:
        for row in comp.rows:
            comparison_rows.append([format_number(getattr(row, name))
                                    for name in COMPARISON_COLUMNS])
            for topology, tsr, latency in (
                ("genio", row.genio_tsr_pct, row.genio_mean_latency_s),
                ("baseline", row.baseline_tsr_pct, row.baseline_mean_latency_s),
            ):
                plot_rows.append([
                    row.scenario, row.cpu, format_number(row.mips), topology,
                    format_number(tsr), format_number(latency),
                    format_number(deadlines[row.scenario]),
                ])
    comparison_path = os.path.join(out_dir, "comparison.csv")
    plot_path = os.path.join(out_dir, "plot_data.csv")
    _write_csv_atomic(comparison_path, COMPARISON_COLUMNS, comparison_rows)
    _write_csv_atomic(plot_path, PLOT_COLUMNS, plot_rows)
    return comparison_path, plot_path
