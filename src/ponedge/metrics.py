"""Run summaries and their aggregation, and the tasks.csv and summary.csv files."""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from collections.abc import Sequence

from ._kernel import KernelOutputs, c_library
from .network import Record

TASKS_CSV_COLUMNS = [
    "task_id", "scenario", "topology", "cpu", "seed", "node_id", "generated_at",
    "uplink_done", "exec_start", "exec_end", "delivered_at", "status",
    "latency_s", "deadline_met",
]
SUMMARY_CSV_COLUMNS = [
    "scenario", "topology", "cpu", "mips", "seed", "tasks_generated",
    "tasks_delivered", "tsr_pct", "mean_latency_s", "p95_latency_s",
    "deadline_hit_pct",
]

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


def percentile_95(sorted_values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile over an ascending list."""
    if not sorted_values:
        return math.nan
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


def aggregate(summaries: list[RunSummary], keys: tuple[str, ...]) -> list[dict]:
    """One row per distinct key combination, metrics as mean and std.

    Rows come back sorted by the key tuple so repeated aggregations are
    byte-stable.
    """
    if not summaries:
        raise EmptyRunError("no summaries to aggregate")
    groups: dict[tuple, list[RunSummary]] = {}
    for summary in summaries:
        groups.setdefault(tuple(getattr(summary, k) for k in keys), []).append(summary)
    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(v) if isinstance(v, str) else v for v in k)):
        members = groups[key]
        row: dict = dict(zip(keys, key))
        row["runs"] = len(members)
        for metric in AGGREGATE_METRICS:
            mean, std = _mean_std([getattr(m, metric) for m in members])
            row[f"{metric}_mean"] = mean
            row[f"{metric}_std"] = std
        rows.append(row)
    return rows


def format_number(value) -> str:
    """CSV cell text; floats keep >= 9 significant digits, blank for missing."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.12g}"


def _timestamp(value: float) -> str:
    """format_number for a timestamp column, where NaN means never reached."""
    return "" if math.isnan(value) else f"{value:.12g}"


def _csv_line(fields: list) -> str:
    """fields quoted as csv.writer quotes them, without the line terminator."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(fields)
    return buffer.getvalue()[:-2]


def _task_lines(generated_at: Sequence[float], out: KernelOutputs, node_ids: Sequence[str],
                deadline_s: float, cell: str):
    # Each line is what csv.writer writes for the row. Only the cell labels and
    # node ids can need quoting, so they are quoted once here; the trailing ""
    # is the node_id of a task never placed (node -1).
    nodes = [_csv_line([node_id]) for node_id in node_ids] + [""]
    for task, (created, node, uplink, start, end, delivered) in enumerate(zip(
            generated_at, out.node_of, out.uplink_done, out.exec_start, out.exec_end,
            out.delivered_at)):
        if math.isnan(delivered):
            yield (f"t{task},{cell},{nodes[node]},{created:.12g},{_timestamp(uplink)},"
                   f"{_timestamp(start)},{_timestamp(end)},,Unfinished,,false\r\n")
        else:  # a delivered task reached every phase (the kernels' post-run pass checks it)
            latency = delivered - created
            yield (f"t{task},{cell},{nodes[node]},{created:.12g},{uplink:.12g},{start:.12g},"
                   f"{end:.12g},{delivered:.12g},Delivered,{latency:.12g},"
                   f"{'true' if latency <= deadline_s else 'false'}\r\n")


def write_tasks_csv(path, generated_at: Sequence[float], out: KernelOutputs,
                    node_ids: Sequence[str], *, deadline_s: float, scenario: str,
                    topology: str, cpu: str, seed: int, backend: str = "python") -> None:
    """One lifecycle row per task, streamed from the kernel's columns.

    node_ids maps a node index in out.node_of to its id. The bytes are those
    csv.writer produces for rows of format_number cells. For a run the C
    kernel made (`backend` "c"), the C library formats the rows into one
    reused buffer and writes it a buffer at a time; otherwise _task_lines, the
    reference formatter, yields them line by line. The quoted cell and node id
    fields are encoded as the text file encodes them, so the bytes are the same.
    """
    cell = _csv_line([scenario, topology, cpu, seed])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(TASKS_CSV_COLUMNS)
        if backend == "c":
            fh.flush()  # the header, before the rows go to the binary buffer
            c_library().write_tasks(
                fh.buffer, generated_at, out,
                [_csv_line([node_id]).encode(fh.encoding) for node_id in node_ids],
                deadline_s, cell.encode(fh.encoding))
        else:
            fh.writelines(_task_lines(generated_at, out, node_ids, deadline_s, cell))


def write_summary_csv(path, summaries: list[RunSummary]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_COLUMNS)
        for s in summaries:
            writer.writerow([
                s.scenario, s.topology, s.cpu,
                format_number(s.mips), s.seed, s.tasks_generated, s.tasks_delivered,
                format_number(s.tsr_pct),
                format_number(s.mean_latency_s),
                format_number(s.p95_latency_s),
                format_number(s.deadline_hit_pct),
            ])


def read_summary_csv(path) -> list[RunSummary]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(RunSummary(
                scenario=row["scenario"],
                topology=row["topology"],
                cpu=row["cpu"],
                mips=float(row["mips"]),
                seed=int(row["seed"]),
                tasks_generated=int(row["tasks_generated"]),
                tasks_delivered=int(row["tasks_delivered"]),
                tasks_unfinished=int(row["tasks_generated"]) - int(row["tasks_delivered"]),
                tsr_pct=float(row["tsr_pct"]),
                mean_latency_s=float(row["mean_latency_s"]),
                p95_latency_s=float(row["p95_latency_s"]),
                deadline_hit_pct=float(row["deadline_hit_pct"]),
            ))
    return out
