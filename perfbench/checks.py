"""Output checks, results digest and the informational accuracy table.

Every check reads only the files the ``ponedge`` CLI wrote, so it holds for
any implementation behind the CLI. A check returns a list of problems; an
empty list means the cell (or file) passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# Per-scenario five-CPU grids, ascending MIPS: the cells `compare --all` and
# `sweep` are expected to produce when no CPU is given.
CPU_GRID = {
    "smart-city": (43_000, 80_000, 123_000, 220_000, 300_000),
    "e-health": (220_000, 300_000, 440_000, 500_000, 620_000),
    "smart-building": (440_000, 500_000, 620_000, 700_000, 800_000),
    "aigc": (700_000, 800_000, 1_000_000, 1_200_000, 2_350_000),
}
TOPOLOGIES = ("genio", "baseline")

# Section V-D average genio-vs-baseline latency reductions, in percent.
REFERENCE_REDUCTIONS = {
    "smart-city": -27.7, "e-health": -35.0, "smart-building": -13.1, "aigc": -7.1,
}

REL_TOL = 1e-9


def cell_dir(out_dir: str, scenario: str, topology: str, mips: float, seed: int) -> str:
    return os.path.join(out_dir, scenario, topology, f"{float(mips):g}", str(seed))


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def read_summary(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one summary row, found {len(rows)}")
    return rows[0]


def check_cell(path: str, duration_s: float, seed: int, recompute: bool = True) -> list[str]:
    """Files present, config matches the request, summary matches tasks.csv.

    With recompute off, tasks.csv is not re-read; the caller then checks it
    by comparing file digests with a repetition that was recomputed.
    """
    summary_path = os.path.join(path, "summary.csv")
    config_path = os.path.join(path, "config.json")
    missing = [p for p in (summary_path, config_path) if not os.path.isfile(p)]
    if missing:
        return [f"missing {p}" for p in missing]
    try:
        with open(config_path) as fh:
            config = json.load(fh)
        summary = read_summary(summary_path)
        generated = int(summary["tasks_generated"])
        delivered = int(summary["tasks_delivered"])
        tsr = float(summary["tsr_pct"])
        mean_latency = float(summary["mean_latency_s"])
        strict = bool(config["calibration"]["strict_deadline_tsr"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable summary.csv or config.json ({exc!r})"]
    problems = []
    if config.get("duration_s") != duration_s:
        problems.append(f"{config_path}: duration_s {config.get('duration_s')!r} "
                        f"!= requested {duration_s!r}")
    if config.get("seed") != seed:
        problems.append(f"{config_path}: seed {config.get('seed')!r} != requested {seed!r}")
    if not 0 <= delivered <= generated:
        problems.append(f"{summary_path}: conservation violated, "
                        f"{delivered} delivered of {generated} generated")
    tasks_path = os.path.join(path, "tasks.csv")
    if recompute and os.path.isfile(tasks_path):
        try:
            problems += _check_against_tasks(tasks_path, generated, delivered, tsr,
                                             mean_latency, strict)
        except (ValueError, KeyError) as exc:
            problems.append(f"{tasks_path}: unreadable ({exc!r})")
    return problems


def _check_against_tasks(tasks_path: str, generated: int, delivered: int, tsr: float,
                         mean_latency: float, strict: bool) -> list[str]:
    rows = n_delivered = n_unfinished = n_succeeded = 0
    latency_sum = 0.0
    with open(tasks_path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            if row["status"] == "Delivered":
                n_delivered += 1
                latency_sum += float(row["latency_s"])
                if not strict or row["deadline_met"] == "true":
                    n_succeeded += 1
            elif row["status"] == "Unfinished":
                n_unfinished += 1
    problems = []
    if rows != n_delivered + n_unfinished:
        problems.append(f"{tasks_path}: {rows - n_delivered - n_unfinished} tasks "
                        f"neither Delivered nor Unfinished")
    if rows != generated:
        problems.append(f"{tasks_path}: {rows} tasks, summary says {generated} generated")
    if n_delivered != delivered:
        problems.append(f"{tasks_path}: {n_delivered} delivered, summary says {delivered}")
    if rows and not _close(100.0 * n_succeeded / rows, tsr):
        problems.append(f"{tasks_path}: TSR {100.0 * n_succeeded / rows!r} "
                        f"!= summary {tsr!r}")
    recomputed = latency_sum / n_delivered if n_delivered else math.nan
    if not _close(recomputed, mean_latency):
        problems.append(f"{tasks_path}: mean latency {recomputed!r} "
                        f"!= summary {mean_latency!r}")
    return problems


def check_trace(path: str) -> tuple[list[str], int]:
    """The trace ends with SimulationEnd; returns (problems, event lines)."""
    if not os.path.isfile(path):
        return [f"missing trace {path}"], 0
    lines = 0
    last = ""
    with open(path) as fh:
        for line in fh:
            lines += 1
            last = line
    fields = last.rstrip("\n").split("\t")
    if len(fields) < 3 or fields[2] != "SimulationEnd":
        return [f"{path}: last line is not SimulationEnd: {last.strip()!r}"], lines
    return [], lines


def read_comparison(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "comparison.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def check_comparison_row(row: dict) -> list[str]:
    """genio's mean latency is below baseline's on this scenario/CPU row."""
    if float(row["genio_mean_latency_s"]) < float(row["baseline_mean_latency_s"]):
        return []
    return [f"comparison.csv {row['scenario']}/{row['cpu']}: genio "
            f"{row['genio_mean_latency_s']} s not below baseline "
            f"{row['baseline_mean_latency_s']} s"]


def results_digest(out_dir: str, cells: list[str], names=("summary.csv",)) -> str:
    """SHA-256 over the named files of every cell, keyed by path in the out-dir."""
    digest = hashlib.sha256()
    for path in sorted(cells):
        for name in names:
            file_path = os.path.join(path, name)
            if not os.path.isfile(file_path):
                continue
            digest.update(os.path.relpath(file_path, out_dir).encode())
            digest.update(b"\0")
            with open(file_path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def accuracy_lines(rows: list[dict]) -> list[str]:
    """Average reduction per scenario beside the section V-D reference."""
    by_scenario: dict[str, list[float]] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], []).append(float(row["reduction_pct"]))
    lines = ["accuracy (informational, not gated; the model is unvalidated beyond "
             "these four averages):"]
    for name, reference in REFERENCE_REDUCTIONS.items():
        values = by_scenario.get(name)
        if not values:
            lines.append(f"  {name:<15} absent from comparison.csv")
            continue
        average = sum(values) / len(values)
        lines.append(f"  {name:<15} average reduction {average:7.1f}%  reference "
                     f"{reference:6.1f}%  error {average - reference:+6.1f} pp")
    return lines


def tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
