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

import csv
import json
import os
import shutil
from dataclasses import asdict, dataclass, fields

from .config import Calibration, DEFAULT_CALIBRATION, cpu_grid
from .metrics import (RunSummary, aggregate, format_number, read_summary_csv,
                      write_summary_csv, write_tasks_csv)
from .simulation import RunParams, run_simulation, write_trace
from .workload import ScenarioSpec

COMPARISON_COLUMNS = [
    "scenario", "cpu", "mips", "genio_mean_latency_s", "baseline_mean_latency_s",
    "reduction_pct", "genio_tsr_pct", "baseline_tsr_pct",
]
PLOT_COLUMNS = ["scenario", "cpu", "mips", "topology", "tsr_pct", "mean_latency_s",
                "deadline_s"]
# The revision of the simulation model. Every change that alters results
# bumps it, so a cell published by an earlier model is recomputed.
MODEL_REVISION = 1


@dataclass(frozen=True)
class CellSpec:
    """One (scenario, topology, cpu, seed) simulation cell."""

    scenario: ScenarioSpec
    topology: str
    cpu: str
    cpu_mips: float
    seed: int
    duration_s: float
    strategy: str
    arrivals: str
    calibration: Calibration
    out_dir: str

    def directory(self) -> str:
        return os.path.join(self.out_dir, self.scenario.name, self.topology,
                            f"{self.cpu_mips:g}", str(self.seed))

    def run_params(self) -> RunParams:
        return RunParams(
            scenario=self.scenario,
            topology=self.topology,
            cpu_mips=self.cpu_mips,
            cpu=self.cpu,
            seed=self.seed,
            duration_s=self.duration_s,
            strategy=self.strategy,
            arrivals=self.arrivals,
            calibration=self.calibration,
        )


def resolved_config(cell: CellSpec) -> dict:
    """Everything the cell's outcome depends on, defaults and model included."""
    return {
        "model_revision": MODEL_REVISION,
        "scenario": asdict(cell.scenario),
        "topology": cell.topology,
        "cpu": cell.cpu,
        "cpu_mips": cell.cpu_mips,
        "seed": cell.seed,
        "duration_s": cell.duration_s,
        "strategy": cell.strategy,
        "arrivals": cell.arrivals,
        "calibration": {f.name: getattr(cell.calibration, f.name) for f in fields(Calibration)},
    }


def _published_summary(directory: str, config_text: str,
                       tasks_csv: bool) -> RunSummary | None:
    """The summary of a published cell whose config.json is config_text and
    which holds tasks.csv if tasks_csv is set, else None."""
    if tasks_csv and not os.path.isfile(os.path.join(directory, "tasks.csv")):
        return None
    try:
        with open(os.path.join(directory, "config.json")) as fh:
            if fh.read() != config_text:
                return None
        return read_summary_csv(os.path.join(directory, "summary.csv"))[0]
    except FileNotFoundError:
        return None


def run_cell(cell: CellSpec, backend: str | None = "auto",
             trace_path: str | None = None, *, tasks_csv: bool) -> RunSummary:
    """Run one cell, publish its files atomically, and return its summary as published.

    The cell gets summary.csv and config.json, plus the per-task tasks.csv
    when tasks_csv is set. A published cell is reused only when its
    config.json matches this cell's resolved config and, if tasks_csv is set,
    it holds tasks.csv; otherwise it is recomputed and replaced. With
    trace_path the cell is always recomputed, and its event trace is
    streamed into a staging file renamed onto trace_path when complete.
    """
    final_dir = cell.directory()
    config_text = json.dumps(resolved_config(cell), indent=2, sort_keys=True)
    if trace_path is None:
        cached = _published_summary(final_dir, config_text, tasks_csv)
        if cached is not None:
            return cached
    result = run_simulation(cell.run_params(), backend=backend,
                            collect_trace=trace_path is not None)
    staging = final_dir + f".tmp-{os.getpid()}"
    os.makedirs(staging, exist_ok=True)
    try:
        if tasks_csv:
            write_tasks_csv(os.path.join(staging, "tasks.csv"), result.inputs.arrival_time,
                            result.outputs, [node.id for node in result.topology.nodes],
                            deadline_s=cell.scenario.deadline_s, scenario=cell.scenario.name,
                            topology=cell.topology, cpu=cell.cpu, seed=cell.seed)
        write_summary_csv(os.path.join(staging, "summary.csv"), [result.summary])
        # what a later invocation reusing this cell reads, so that aggregates
        # are computed from the same numbers whether the cell is fresh or not
        (summary,) = read_summary_csv(os.path.join(staging, "summary.csv"))
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
        staged_trace = trace_path + f".tmp-{os.getpid()}"
        try:
            with open(staged_trace, "wb") as fh:
                write_trace(fh, result.topology, result.outputs.trace)
            os.replace(staged_trace, trace_path)
        finally:
            if os.path.exists(staged_trace):
                os.remove(staged_trace)
    return summary


def _run_cell_job(cell: CellSpec) -> RunSummary:
    # sweep cells publish summaries only; `ponedge run` gives a cell's tasks
    return run_cell(cell, tasks_csv=False)


def run_cells(cells: list[CellSpec], jobs: int = 0) -> list[RunSummary]:
    """Run independent cells, optionally in parallel; order follows `cells`.

    Workers take one cell at a time, in the order given. A cell listed twice
    runs once, so two workers never publish the same directory.
    """
    unique = list(dict.fromkeys(cells))
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(unique) <= 1:
        summaries = [_run_cell_job(cell) for cell in unique]
    else:
        import multiprocessing  # only a pool needs it; keeps `import ponedge.cli` light

        with multiprocessing.Pool(min(jobs, len(unique))) as pool:
            summaries = pool.map(_run_cell_job, unique, chunksize=1)
    by_cell = dict(zip(unique, summaries))
    return [by_cell[cell] for cell in cells]


def build_cells(scenario: ScenarioSpec, *, out_dir: str,
                topologies: tuple[str, ...] = ("genio", "baseline"),
                cpus: tuple[tuple[str, float], ...] | None = None,
                seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
                duration_s: float = 600.0, strategy: str = "trade-off",
                arrivals: str = "poisson",
                calibration: Calibration = DEFAULT_CALIBRATION) -> list[CellSpec]:
    grid = list(cpus) if cpus is not None else cpu_grid(scenario.name)
    return [
        CellSpec(scenario, topology, label, mips, seed, duration_s, strategy,
                 arrivals, calibration, out_dir)
        for topology in topologies
        for label, mips in grid
        for seed in seeds
    ]


def _write_csv_atomic(path: str, header: list[str], rows: list[list]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def write_aggregate(out_dir: str, scenario_name: str,
                    summaries: list[RunSummary]) -> str:
    rows = aggregate(summaries, ("scenario", "topology", "cpu", "mips"))
    header = list(rows[0].keys())
    path = os.path.join(out_dir, scenario_name, "aggregate.csv")
    _write_csv_atomic(path, header, [
        [format_number(value) for value in row.values()] for row in rows
    ])
    return path


def sweep_scenarios(scenarios: list[ScenarioSpec], *, out_dir: str, jobs: int = 0,
                    **kwargs) -> list[list[RunSummary]]:
    """Each scenario's topologies x CPU grid x seeds, plus its aggregate.

    The cells of every scenario go through one run_cells call, so one worker
    pool serves the whole experiment; the aggregates are written after.
    """
    grids = [build_cells(scenario, out_dir=out_dir, **kwargs) for scenario in scenarios]
    summaries = run_cells([cell for cells in grids for cell in cells], jobs=jobs)
    per_scenario = []
    for scenario, cells in zip(scenarios, grids):
        mine, summaries = summaries[:len(cells)], summaries[len(cells):]
        write_aggregate(out_dir, scenario.name, mine)
        per_scenario.append(mine)
    return per_scenario


def sweep_scenario(scenario: ScenarioSpec, *, out_dir: str, jobs: int = 0,
                   **kwargs) -> list[RunSummary]:
    """Both topologies x the scenario's CPU grid x seeds, plus the aggregate."""
    return sweep_scenarios([scenario], out_dir=out_dir, jobs=jobs, **kwargs)[0]


@dataclass(frozen=True)
class ComparisonRow:
    scenario: str
    cpu: str
    mips: float
    genio_mean_latency_s: float
    baseline_mean_latency_s: float
    reduction_pct: float
    genio_tsr_pct: float
    baseline_tsr_pct: float


@dataclass(frozen=True)
class ScenarioComparison:
    scenario: str
    rows: tuple[ComparisonRow, ...]
    average_reduction_pct: float
    seeds: tuple[int, ...]


def compare_scenarios(scenarios: list[ScenarioSpec], *, out_dir: str, jobs: int = 0,
                      **kwargs) -> list[ScenarioComparison]:
    """Per-CPU latency/TSR comparison on seed-averaged cells, both topologies.

    Missing cells are computed on demand (sweep results are reused through
    the on-disk cache), all scenarios' cells in one sweep_scenarios call.
    """
    per_scenario = sweep_scenarios(scenarios, out_dir=out_dir, jobs=jobs, **kwargs)
    return [_comparison(scenario, summaries)
            for scenario, summaries in zip(scenarios, per_scenario)]


def compare_scenario(scenario: ScenarioSpec, *, out_dir: str, jobs: int = 0,
                     **kwargs) -> ScenarioComparison:
    """compare_scenarios for one scenario."""
    return compare_scenarios([scenario], out_dir=out_dir, jobs=jobs, **kwargs)[0]


def _comparison(scenario: ScenarioSpec, summaries: list[RunSummary]) -> ScenarioComparison:
    by_cell = aggregate(summaries, ("scenario", "topology", "cpu", "mips"))
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
            scenario=scenario.name,
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
    return ScenarioComparison(scenario.name, tuple(rows), average, seeds)


def write_comparison(out_dir: str, comparisons: list[ScenarioComparison],
                     deadlines: dict[str, float]) -> tuple[str, str]:
    comparison_rows = []
    plot_rows = []
    for comp in comparisons:
        for row in comp.rows:
            comparison_rows.append([
                row.scenario, row.cpu, format_number(row.mips),
                format_number(row.genio_mean_latency_s),
                format_number(row.baseline_mean_latency_s),
                format_number(row.reduction_pct),
                format_number(row.genio_tsr_pct),
                format_number(row.baseline_tsr_pct),
            ])
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
