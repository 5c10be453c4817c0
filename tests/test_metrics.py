"""Summaries, the comparison's reduction, aggregation, and the CSV surfaces."""

import csv
from array import array

import pytest

from ponedge._kernel import PH_DELIVERED, PH_NO_PLACEMENT, KernelOutputs
from ponedge._kernel.pykernel import post_run
from ponedge.metrics import (AGGREGATE_METRICS, EmptyRunError, RunSummary,
                             SUMMARY_CSV_COLUMNS, TASKS_CSV_COLUMNS, aggregate,
                             format_number, percentile_95, read_summary_csv, summarize,
                             write_summary_csv, write_tasks_csv)
from ponedge.network import fields
from ponedge.sweep import ComparisonRow, ScenarioComparison, _comparison, write_comparison

NAN = float("nan")


def run_columns(latencies, generated=1.0):
    """(generated_at, kernel outputs) for tasks placed on node 0 and delivered
    after the given latencies; None marks a task that was never placed."""
    def column(value):
        return array("d", [NAN if lat is None else value(lat) for lat in latencies])

    generated_at = array("d", [generated] * len(latencies))
    tasks = dict(
        node_of=array("i", [-1 if lat is None else 0 for lat in latencies]),
        uplink_done=column(lambda lat: generated + 1e-5),
        exec_start=column(lambda lat: generated + 1e-5),
        exec_end=column(lambda lat: generated + lat - 1e-5),
        delivered_at=column(lambda lat: generated + lat),
        final_phase=array("i", [PH_NO_PLACEMENT if lat is None else PH_DELIVERED
                                for lat in latencies]),
    )
    busy, delivered = post_run(generated_at, *tasks.values(), 1e3, 1)
    out = KernelOutputs(**tasks, busy=array("d", busy), latencies=array("d", delivered),
                        processed_events=0, trace=None)
    return generated_at, out


def make_summary(**kw):
    base = dict(scenario="e-health", topology="genio", cpu="Intel Core i7-3930K",
                mips=220_000.0, seed=1, tasks_generated=10, tasks_delivered=10,
                tasks_unfinished=0, tsr_pct=100.0, mean_latency_s=0.5,
                p95_latency_s=0.6, deadline_hit_pct=100.0)
    base.update(kw)
    return RunSummary(**base)


def _summarize(latencies, **kw):
    generated_at, out = run_columns(latencies)
    args = dict(deadline_s=0.5, scenario="e-health", topology="genio", cpu="x",
                mips=220_000.0, seed=1)
    args.update(kw)
    return summarize(len(generated_at), out.latencies, **args)


def test_all_delivered_within_deadline():
    s = _summarize([0.01] * 10)
    assert s.tsr_pct == 100.0
    assert s.deadline_hit_pct == 100.0
    assert s.tasks_generated == s.tasks_delivered == 10


def test_tsr_ratio_eight_of_ten():
    s = _summarize([0.01] * 8 + [None, None])
    assert s.tsr_pct == 80.0
    assert s.tasks_unfinished == 2
    assert s.tasks_generated == s.tasks_delivered + s.tasks_unfinished


def test_mean_latency_is_component_sum_for_single_task():
    # uplink + wait(0) + exec + downlink for the entry smart-city setup
    latency = 8.5e-6 + 500.0 / 43_000.0 + 8.05e-5
    s = _summarize([latency])
    assert s.mean_latency_s == pytest.approx(latency, abs=1e-12)
    assert s.mean_latency_s == pytest.approx(0.0117169, abs=5e-8)


def test_mean_latency_over_delivered_only():
    s = _summarize([0.2, None])
    assert s.mean_latency_s == pytest.approx(0.2)
    assert s.tsr_pct == 50.0


def test_zero_generated_tasks_is_an_error():
    with pytest.raises(EmptyRunError):
        _summarize([])


def test_strict_deadline_mode_counts_misses_as_failures():
    lenient = _summarize([0.01, 0.9], deadline_s=0.5)
    strict = _summarize([0.01, 0.9], deadline_s=0.5, strict_deadline=True)
    assert lenient.tsr_pct == 100.0
    assert strict.tsr_pct == 50.0
    assert strict.deadline_hit_pct == 50.0


def test_percentile_95_nearest_rank():
    values = sorted(float(v) for v in range(1, 101))
    assert percentile_95(values) == 95.0
    assert percentile_95([3.0]) == 3.0


def reduction_pct(genio_latency, baseline_latency):
    """The comparison's reduction for one CPU of one seed."""
    summaries = [make_summary(mean_latency_s=genio_latency),
                 make_summary(topology="baseline", mean_latency_s=baseline_latency)]
    (row,) = _comparison("e-health", summaries).rows
    return row.reduction_pct


def test_compare_reduction_example():
    assert reduction_pct(0.65, 1.0) == pytest.approx(-35.0)


def test_compare_equal_means_zero():
    assert reduction_pct(0.4, 0.4) == 0.0


def test_compare_sign_flips_when_swapped():
    assert reduction_pct(0.65, 1.0) < 0 < reduction_pct(1.0, 0.65)


def test_aggregate_one_row_per_config_mean_over_seeds():
    summaries = [make_summary(seed=s, mean_latency_s=0.1 * s) for s in range(1, 6)]
    rows = aggregate(summaries)
    assert len(rows) == 1
    assert rows[0]["runs"] == 5
    assert rows[0]["mean_latency_s_mean"] == pytest.approx(0.3)


def test_aggregate_identical_summaries_have_zero_std():
    rows = aggregate([make_summary(), make_summary()])
    for metric in AGGREGATE_METRICS:
        assert rows[0][f"{metric}_std"] == 0.0


def test_aggregate_single_run_zero_std():
    rows = aggregate([make_summary()])
    assert rows[0]["tsr_pct_std"] == 0.0


def test_aggregate_rows_sorted_by_keys():
    summaries = [
        make_summary(cpu="b", mips=300_000.0),
        make_summary(cpu="a", mips=220_000.0),
    ]
    rows = aggregate(summaries)
    assert [row["mips"] for row in rows] == [220_000.0, 300_000.0]


def test_format_number_preserves_nine_significant_digits():
    assert format_number(0.011716906976744186) == "0.0117169069767"
    assert format_number(12) == "12"
    assert format_number(float("nan")) == "nan"


def test_tasks_csv_column_order(tmp_path):
    path = tmp_path / "tasks.csv"
    generated_at, out = run_columns([0.01, None])
    write_tasks_csv(path, generated_at, out, ["n0257-edge"], deadline_s=0.5,
                    scenario="e-health", topology="genio", cpu="Intel Core i7-3930K", seed=3)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TASKS_CSV_COLUMNS
    assert rows[1][0] == "t0" and rows[1][11] == "Delivered"
    assert rows[2][11] == "Unfinished" and rows[2][12] == ""  # no latency


def test_summary_csv_round_trip(tmp_path):
    path = tmp_path / "summary.csv"
    original = make_summary()
    write_summary_csv(path, original)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == SUMMARY_CSV_COLUMNS
    loaded = read_summary_csv(path)
    assert loaded.mean_latency_s == original.mean_latency_s
    assert loaded.tasks_generated == original.tasks_generated
    assert loaded.cpu == original.cpu


def _distinct_values(record_class):
    """A value of its annotated type for each field, no two alike: the field's
    name for a str, its index plus 1 for an int, and the index plus a half for
    a float."""
    kinds = {"str": lambda i, name: name, "int": lambda i, name: i + 1,
             "float": lambda i, name: i + 1.5}
    return {name: kinds[record_class.__annotations__[name]](i, name)
            for i, name in enumerate(fields(record_class))}


def test_summary_csv_puts_every_field_under_its_own_column(tmp_path):
    values = _distinct_values(RunSummary)
    values["tasks_unfinished"] = values["tasks_generated"] - values["tasks_delivered"]
    summary = RunSummary(**values)
    path = tmp_path / "summary.csv"
    write_summary_csv(path, summary)
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {name: format_number(values[name]) for name in SUMMARY_CSV_COLUMNS}
    assert read_summary_csv(path) == summary


def test_comparison_csv_puts_every_field_under_its_own_column(tmp_path):
    values = _distinct_values(ComparisonRow)
    comparison = ScenarioComparison(values["scenario"], (ComparisonRow(**values),), 0.0, (1,))
    comparison_path, _ = write_comparison(str(tmp_path), [comparison],
                                          {values["scenario"]: 0.5})
    with open(comparison_path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {name: format_number(value) for name, value in values.items()}
