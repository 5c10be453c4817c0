"""End-to-end single runs: analytic oracle, determinism, flags, invariants."""

import io
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ponedge._kernel.pykernel import PH_DOWN, TR_SIMULATION_END, TR_TASK_ARRIVAL, Trace
from ponedge.config import DEFAULT_CALIBRATION, topology_preset
from ponedge.engine import SimulationError
from ponedge.simulation import (TRACE_CHUNK, RunParams, _trace_lines, assert_run_invariants,
                                build_kernel_inputs, run_simulation, write_trace)
from ponedge.workload import ScenarioSpec, scenario_preset

from trace_files import trace_digest

SINGLE_DEVICE_SMART_CITY = ScenarioSpec(
    "smart-city-1dev", users=1, rate_per_min=2, deadline_s=0.5,
    length_mi=500, request_kb=1, result_kb=10,
)


def single_task_params(**kw):
    args = dict(
        scenario=SINGLE_DEVICE_SMART_CITY, topology="genio", cpu_mips=43_000.0,
        seed=1, duration_s=30.0, strategy="round-robin", arrivals="fixed",
    )
    args.update(kw)
    return RunParams(**args)


def test_single_task_runs_on_edge_with_analytic_latency():
    result = run_simulation(single_task_params())
    (rec,) = result.records
    assert rec.status == "Delivered"
    assert rec.node_id.endswith("-edge")
    uplink = rec.uplink_done - rec.generated_at
    execution = rec.exec_end - rec.exec_start
    downlink = rec.delivered_at - rec.exec_end
    assert uplink == pytest.approx(8.5e-6, rel=1e-9)
    assert execution == pytest.approx(500.0 / 43_000.0, rel=1e-9)
    assert downlink == pytest.approx(8.05e-5, rel=1e-9)
    assert rec.exec_start == rec.uplink_done  # idle node: no queue wait
    assert rec.latency_s == pytest.approx(8.5e-6 + 500.0 / 43_000.0 + 8.05e-5, rel=1e-9)
    assert float(f"{rec.latency_s:.9g}") == 0.011716907  # 9-significant-digit view


def test_trace_replay_hash_stable():
    hashes = {trace_digest(run_simulation(single_task_params(), collect_trace=True))
              for _ in range(3)}
    assert len(hashes) == 1


def test_write_trace_streams_chunks():
    topo = run_simulation(single_task_params()).topology
    rows = [(0.5 * i, i + 1, TR_TASK_ARRIVAL, i, 0) for i in range(2 * TRACE_CHUNK + 5)]
    rows.append((1e4, 0, TR_SIMULATION_END, -1, -1))
    pieces = []
    write_trace(SimpleNamespace(write=pieces.append), topo, Trace(*zip(*rows)))
    assert len(pieces) == 3
    assert b"".join(pieces) == "".join(
        line + "\n" for line in _trace_lines(topo, rows)).encode("ascii")
    assert all(piece.endswith(b"\n") for piece in pieces)


def test_write_trace_holds_one_chunk_of_text():
    params = RunParams(scenario=scenario_preset("smart-building"), topology="baseline",
                       cpu_mips=440_000.0, seed=5, duration_s=600.0)
    result = run_simulation(params, collect_trace=True)
    assert len(result.outputs.trace.time) == 72_951
    sizes = []  # of each write; the bytes themselves are discarded
    sink = SimpleNamespace(write=lambda data: sizes.append(len(data)))
    tracemalloc.start()
    try:
        write_trace(sink, result.topology, result.outputs.trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole text, held at once, would be more than twice the bytes written
    assert peak < sum(sizes) / 2


def test_records_identical_across_repeats():
    params = RunParams(scenario=scenario_preset("e-health"), topology="baseline",
                       cpu_mips=300_000.0, seed=2, duration_s=60.0)
    a = run_simulation(params)
    b = run_simulation(params)
    assert a.records == b.records
    assert a.summary == b.summary


def test_trace_lines_shape():
    result = run_simulation(single_task_params(), collect_trace=True)
    sink = io.BytesIO()
    write_trace(sink, result.topology, result.outputs.trace)
    text = sink.getvalue().decode("ascii")
    assert text.endswith("\n")
    lines = text.splitlines()
    kinds = [line.split("\t")[2] for line in lines]
    assert kinds[0] == "TaskArrival"
    assert kinds[-1] == "SimulationEnd"
    assert set(kinds) <= {
        "TaskArrival", "TransferComplete", "ExecutionStart",
        "ExecutionComplete", "ResultDelivered", "SimulationEnd",
    }
    times = [float(line.split("\t")[0]) for line in lines]
    assert times == sorted(times)
    # one line per domain event for a delivered task: arrival, two transfer
    # legs, exec start/complete, delivery, then the end marker
    assert len(lines) == 7


def test_conservation_and_decomposition_hold():
    params = RunParams(scenario=scenario_preset("smart-building"), topology="baseline",
                       cpu_mips=620_000.0, seed=4, duration_s=45.0)
    result = run_simulation(params)
    s = result.summary
    assert s.tasks_generated == s.tasks_delivered + s.tasks_unfinished
    for rec in result.records:
        if rec.status != "Delivered":
            continue
        parts = ((rec.uplink_done - rec.generated_at)
                 + (rec.exec_start - rec.uplink_done)
                 + (rec.exec_end - rec.exec_start)
                 + (rec.delivered_at - rec.exec_end))
        assert abs(parts - rec.latency_s) <= 1e-12


def test_run_invariants_reject_broken_columns():
    result = run_simulation(single_task_params())
    out = result.outputs

    def check(columns):
        return assert_run_invariants(result.inputs.arrival_time, columns, 30.0,
                                     len(result.topology.nodes))

    assert check(out)[out.node_of[0]] == out.exec_end[0] - out.exec_start[0]
    for column in ("uplink_done", "exec_start", "exec_end"):  # a stage lost on delivery
        with pytest.raises(SimulationError, match="out of order"):
            check(replace(out, **{column: [math.nan]}))
    with pytest.raises(SimulationError, match="conservation"):  # delivered, phase says not
        check(replace(out, final_phase=[PH_DOWN]))


def test_control_plane_delay_shifts_latency():
    base = run_simulation(single_task_params())
    delayed = run_simulation(single_task_params(
        calibration=replace(DEFAULT_CALIBRATION, control_plane_delay_s=0.004)))
    (b,) = base.records
    (d,) = delayed.records
    assert d.latency_s == pytest.approx(b.latency_s + 0.004, rel=1e-9)


def test_no_placement_when_footprint_exceeds_every_node():
    params = single_task_params(
        calibration=replace(DEFAULT_CALIBRATION, task_ram_mb=1e9))
    result = run_simulation(params)
    (rec,) = result.records
    assert rec.status == "Unfinished"
    assert rec.node_id is None
    assert result.summary.tsr_pct == 0.0
    assert math.isnan(result.summary.mean_latency_s)


def test_strict_deadline_flag_gates_tsr():
    strict = replace(DEFAULT_CALIBRATION, strict_deadline_tsr=True)
    scenario = replace(SINGLE_DEVICE_SMART_CITY, deadline_s=1e-6)
    result = run_simulation(single_task_params(scenario=scenario, calibration=strict))
    assert result.summary.tasks_delivered == 1
    assert result.summary.tsr_pct == 0.0
    assert result.summary.deadline_hit_pct == 0.0


def test_far_edge_execution_adds_onu_candidates():
    params = single_task_params(
        calibration=replace(DEFAULT_CALIBRATION, far_edge_execution=True))
    topo = topology_preset("genio", params.scenario, params.cpu_mips, params.calibration)
    inputs = build_kernel_inputs(params, topo, collect_trace=False)
    layers = [topo.nodes[i].layer.value for i in inputs.candidate_nodes]
    assert "onu" in layers and "edge-server" in layers and "cloud" in layers


def test_trade_off_default_sends_single_smart_city_task_to_edge():
    # edge-dominant default calibration: the 43k edge undercuts the weighted cloud
    result = run_simulation(single_task_params(strategy="trade-off"))
    (rec,) = result.records
    assert rec.node_id.endswith("-edge")


def test_node_utilization_bounded():
    params = RunParams(scenario=scenario_preset("aigc"), topology="genio",
                       cpu_mips=700_000.0, seed=1, duration_s=90.0)
    result = run_simulation(params)
    utilization = dict(result.summary.node_utilization)
    edge = [v for k, v in utilization.items() if k.endswith("-edge")]
    assert edge and 0.0 < edge[0] <= 1.0
    assert all(0.0 <= v <= 1.0 for v in utilization.values())


def test_processed_event_count_positive_and_stable():
    a = run_simulation(single_task_params())
    b = run_simulation(single_task_params())
    assert a.processed_events == b.processed_events > 0
