"""Run summaries and their aggregation, and the tasks.csv and summary.csv files."""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from collections.abc import Sequence

from ._kernel import KernelOutputs, library
from .network import Record, fields

TASKS_CSV_COLUMNS = [
    "task_id", "scenario", "topology", "cpu", "seed", "node_id", "generated_at",
    "uplink_done", "exec_start", "exec_end", "delivered_at", "status",
    "latency_s", "deadline_met",
]

# aggregate.csv's columns: this key, the run count, each metric's mean and std
AGGREGATE_KEY = ("scenario", "topology", "cpu", "mips")
AGGREGATE_METRICS = ("tsr_pct", "mean_latency_s", "p95_latency_s", "deadline_hit_pct")


class EmptyRunError(Exception):
    """A run produced no tasks; there is nothing to summarize."""


class RunSummary(Record):
    scenario: str
    topology: str
    cpu: str
    mips: float
    seed: int
    tasks_generated: int
    tasks_delivered: int
    tasks_unfinished: int
    tsr_pct: float
    mean_latency_s: float
    p95_latency_s: float
    deadline_hit_pct: float


# summary.csv's columns: RunSummary's fields but the derived tasks_unfinished
SUMMARY_CSV_COLUMNS = [name for name in fields(RunSummary) if name != "tasks_unfinished"]


def percentile_95(sorted_values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile over an ascending, non-empty list."""
    rank = math.ceil(0.95 * len(sorted_values))
    return sorted_values[rank - 1]


def summarize(generated: int, latencies: Sequence[float], *,
              deadline_s: float, scenario: str, topology: str, cpu: str, mips: float,
              seed: int, strict_deadline: bool = False) -> RunSummary:
    """Aggregate one completed run of `generated` tasks.

    latencies holds the latency of each delivered task, ascending, as the
    kernel's post-run pass returns them; statistics cover Delivered tasks only
    (unfinished tasks have no latency). By default success means delivered
    within the simulation time; strict_deadline additionally requires the
    deadline to be met.
    """
    if not generated:
        raise EmptyRunError(f"zero tasks generated ({scenario}, {topology}, {cpu}, seed {seed})")
    delivered = len(latencies)
    hit = bisect_right(latencies, deadline_s)  # latencies <= deadline_s
    succeeded = hit if strict_deadline else delivered
    if delivered:
        mean_latency = math.fsum(latencies) / delivered
        p95 = percentile_95(latencies)
        deadline_hit_pct = 100.0 * hit / delivered
    else:
        mean_latency = math.nan
        p95 = math.nan
        deadline_hit_pct = math.nan
    return RunSummary(
        scenario=scenario,
        topology=topology,
        cpu=cpu,
        mips=mips,
        seed=seed,
        tasks_generated=generated,
        tasks_delivered=delivered,
        tasks_unfinished=generated - delivered,
        tsr_pct=100.0 * succeeded / generated,
        mean_latency_s=mean_latency,
        p95_latency_s=p95,
        deadline_hit_pct=deadline_hit_pct,
    )


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n  # population std: one seed -> 0
    return mean, math.sqrt(var)


def aggregate(summaries: list[RunSummary]) -> list[dict]:
    """One row per distinct AGGREGATE_KEY, metrics as mean and std.

    Rows come back sorted by the key so repeated aggregations are byte-stable.
    """
    if not summaries:
        raise EmptyRunError("no summaries to aggregate")
    groups: dict[tuple, list[RunSummary]] = {}
    for summary in summaries:
        groups.setdefault(tuple(getattr(summary, k) for k in AGGREGATE_KEY), []).append(summary)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        row: dict = dict(zip(AGGREGATE_KEY, key))
        row["runs"] = len(members)
        for metric in AGGREGATE_METRICS:
            mean, std = _mean_std([getattr(m, metric) for m in members])
            row[f"{metric}_mean"] = mean
            row[f"{metric}_std"] = std
        rows.append(row)
    return rows


def format_number(value) -> str:
    """CSV cell text of a str, int or float; floats keep >= 9 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.12g}"


def _csv_line(fields: list) -> str:
    """fields quoted as csv.writer quotes them, without the line terminator."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(fields)
    return buffer.getvalue()[:-2]


def write_tasks_csv(path, generated_at: Sequence[float], out: KernelOutputs,
                    node_ids: Sequence[str], *, deadline_s: float, scenario: str,
                    topology: str, cpu: str, seed: int, backend: str = "python") -> None:
    """One lifecycle row per task, UTF-8 encoded: what csv.writer writes for the
    kernel's columns, streamed by `backend`'s write_tasks. node_ids maps a node
    index in out.node_of to its id; ids and labels, the only fields that can
    need quoting, are quoted once here."""
    with open(path, "wb") as fh:
        fh.write(f"{_csv_line(TASKS_CSV_COLUMNS)}\r\n".encode())
        library(backend).write_tasks(fh, generated_at, out,
                                     [_csv_line([node_id]) for node_id in node_ids],
                                     deadline_s, _csv_line([scenario, topology, cpu, seed]))


def write_summary_csv(path, summary: RunSummary) -> None:
    """A cell's summary.csv: the header and the summary's one row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_COLUMNS)
        writer.writerow([format_number(getattr(summary, name)) for name in SUMMARY_CSV_COLUMNS])


def read_summary_csv(path) -> RunSummary:
    """The summary a summary.csv holds; ValueError unless it holds exactly one row."""
    # each column parsed as its RunSummary field's annotated type
    kinds = {"str": str, "int": int, "float": float}
    parsers = {name: kinds[RunSummary.__annotations__[name]] for name in SUMMARY_CSV_COLUMNS}
    with open(path, newline="") as fh:
        (text,) = csv.DictReader(fh)  # ValueError on no row or a second one
    row = {name: parse(text[name]) for name, parse in parsers.items()}
    return RunSummary(**row, tasks_unfinished=row["tasks_generated"] - row["tasks_delivered"])
