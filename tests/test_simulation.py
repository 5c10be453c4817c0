"""End-to-end single runs: analytic oracle, determinism, flags, invariants."""

import io
import math
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from ponedge._kernel import (OUTPUT_TYPECODES, PH_DOWN, PH_NO_PLACEMENT, TR_SIMULATION_END,
                             TR_TASK_ARRIVAL, TRACE_TYPECODES, SimulationError, Trace,
                             available_backends, library, pykernel)
from ponedge.config import DEFAULT_CALIBRATION
from ponedge.metrics import write_tasks_csv
from ponedge.network import ConfigurationError, replace
from ponedge.simulation import RunParams, run_simulation
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


@pytest.mark.parametrize("field,value,message", [
    ("strategy", "tradeoff", "unknown strategy 'tradeoff'"),
    ("seed", True, "seed must be an integer, not True"),
    ("seed", 1.0, "seed must be an integer, not 1.0"),
    ("duration_s", True, "duration must be a number, not True"),
    ("arrivals", "bursty", "unknown arrival mode 'bursty'"),
    ("topology", "mesh", "unknown topology preset 'mesh'"),
], ids=["strategy-typo", "seed-bool", "seed-float", "duration-bool", "arrivals-typo",
        "topology-typo"])
def test_run_params_refuse_what_no_cell_can_be(field, value, message):
    # a strategy typo used to run round-robin, and a bool seed to run seed 1;
    # a topology typo used to fail only when its cell ran, on a worker thread
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        single_task_params(**{field: value})


def test_run_params_name_the_cpu_and_hold_floats():
    params = single_task_params(cpu_mips=700_000, duration_s=30)
    assert (params.cpu, params.cpu_mips, params.duration_s) == ("Intel i9-13900", 700_000.0, 30.0)
    assert type(params.cpu_mips) is type(params.duration_s) is float
    assert single_task_params(cpu="lab rig").cpu == "lab rig"
    assert single_task_params(cpu_mips=43_001.5).cpu == "custom-43001.5"


def test_single_task_runs_on_edge_with_analytic_latency():
    result = run_simulation(single_task_params())
    out = result.outputs
    assert len(result.inputs.arrival_time) == 1
    assert result.node_ids[out.node_of[0]].endswith("-edge")
    uplink = out.uplink_done[0] - result.inputs.arrival_time[0]
    execution = out.exec_end[0] - out.exec_start[0]
    downlink = out.delivered_at[0] - out.exec_end[0]
    assert uplink == pytest.approx(8.5e-6, rel=1e-9)
    assert execution == pytest.approx(500.0 / 43_000.0, rel=1e-9)
    assert downlink == pytest.approx(8.05e-5, rel=1e-9)
    assert out.exec_start[0] == out.uplink_done[0]  # idle node: no queue wait
    (latency,) = out.latencies
    assert latency == out.delivered_at[0] - result.inputs.arrival_time[0]
    assert latency == pytest.approx(8.5e-6 + 500.0 / 43_000.0 + 8.05e-5, rel=1e-9)
    assert float(f"{latency:.9g}") == 0.011716907  # 9-significant-digit view


def test_trace_replay_hash_stable():
    hashes = {trace_digest(run_simulation(single_task_params(), collect_trace=True))
              for _ in range(3)}
    assert len(hashes) == 1


def _pieces(backend: str, write: str, *args) -> list[bytes]:
    """What the `write` writer of `backend`'s library writes, one piece a write."""
    pieces = []  # copies: the C writers reuse one buffer
    sink = SimpleNamespace(write=lambda data: pieces.append(bytes(data)))
    getattr(library(backend), write)(sink, *args)
    return pieces


def test_write_trace_streams_chunks():
    node_ids = run_simulation(single_task_params()).node_ids
    chunk = pykernel.TEXT_CHUNK
    rows = [(0.5 * i, i + 1, TR_TASK_ARRIVAL, i, 0) for i in range(2 * chunk + 5)]
    rows.append((1e4, 0, TR_SIMULATION_END, -1, -1))
    trace = Trace(*(array(code, column) for code, column in zip(TRACE_TYPECODES, zip(*rows))))
    pieces = _pieces("python", "write_trace", trace, node_ids)
    assert [piece.count(b"\n") for piece in pieces] == [chunk, chunk, 6]
    assert all(piece.endswith(b"\n") for piece in pieces)
    text = b"".join(pieces)
    assert text.splitlines()[1] == b"0.5\t2\tTaskArrival\ttask=t1 src=n0000-dev"
    for backend in available_backends():  # every kernel writes these bytes
        assert b"".join(_pieces(backend, "write_trace", trace, node_ids)) == text


def test_write_tasks_streams_chunks():
    result = run_simulation(single_task_params(duration_s=3000.0))
    generated_at, out = result.inputs.arrival_time, result.outputs
    assert len(generated_at) == 100
    chunk = pykernel.TEXT_CHUNK
    repeat = (2 * chunk + 5) // 100 + 1
    generated_at = generated_at * repeat
    out = SimpleNamespace(**{name: getattr(out, name) * repeat for name in
                             ("node_of", "uplink_done", "exec_start", "exec_end",
                              "delivered_at")})
    args = (generated_at, out, ['"n1, odd"'] * len(result.node_ids), 0.5, "a,b,c,1")
    pieces = _pieces("python", "write_tasks", *args)
    assert [piece.count(b"\r\n") for piece in pieces] == [chunk, chunk, 100 * repeat - 2 * chunk]
    assert all(piece.endswith(b"\r\n") for piece in pieces)
    text = b"".join(pieces)
    assert text.startswith(b't0,a,b,c,1,"n1, odd",')
    for backend in available_backends():  # every kernel writes these bytes
        assert b"".join(_pieces(backend, "write_tasks", *args)) == text


def test_write_trace_holds_one_chunk_of_text():
    params = RunParams(scenario=scenario_preset("smart-building"), topology="baseline",
                       cpu_mips=440_000.0, seed=5, duration_s=600.0)
    result = run_simulation(params, collect_trace=True)
    assert len(result.outputs.trace.time) == 72_951
    sizes = []  # of each write; the bytes themselves are discarded
    sink = SimpleNamespace(write=lambda data: sizes.append(len(data)))
    tracemalloc.start()
    try:
        library("python").write_trace(sink, result.outputs.trace, result.node_ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole text, held at once, would be more than twice the bytes written
    assert peak < sum(sizes) / 2


def test_records_identical_across_repeats(tmp_path):
    params = RunParams(scenario=scenario_preset("e-health"), topology="baseline",
                       cpu_mips=300_000.0, seed=2, duration_s=60.0)
    a = run_simulation(params)
    b = run_simulation(params)
    for name in OUTPUT_TYPECODES:  # every output column
        assert getattr(a.outputs, name).tobytes() == getattr(b.outputs, name).tobytes(), name
    assert a.summary == b.summary
    tasks = []
    for label, result in (("a", a), ("b", b)):
        path = tmp_path / f"{label}.csv"
        write_tasks_csv(path, result.inputs.arrival_time, result.outputs,
                        result.node_ids,
                        deadline_s=params.scenario.deadline_s, scenario="e-health",
                        topology="baseline", cpu=params.cpu, seed=2)
        tasks.append(path.read_bytes())
    assert tasks[0] == tasks[1]
    assert tasks[0].count(b"\r\n") == len(a.inputs.arrival_time) + 1


def test_trace_lines_shape():
    result = run_simulation(single_task_params(), collect_trace=True)
    sink = io.BytesIO()
    library().write_trace(sink, result.outputs.trace, result.node_ids)
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
    out = result.outputs
    delivered = 0
    for i, generated_at in enumerate(result.inputs.arrival_time):
        if math.isnan(out.delivered_at[i]):
            continue
        delivered += 1
        parts = ((out.uplink_done[i] - generated_at)
                 + (out.exec_start[i] - out.uplink_done[i])
                 + (out.exec_end[i] - out.exec_start[i])
                 + (out.delivered_at[i] - out.exec_end[i]))
        assert abs(parts - (out.delivered_at[i] - generated_at)) <= 1e-12
    assert delivered == s.tasks_delivered


def test_run_invariants_reject_broken_columns(monkeypatch):
    # the post-run pass of the reference kernel, on the task columns of a
    # one-task run with one identity broken at a time
    monkeypatch.setenv("PONEDGE_BACKEND", "python")
    result = run_simulation(single_task_params())
    out = result.outputs
    names = ("node_of", "uplink_done", "exec_start", "exec_end", "delivered_at", "final_phase")

    def check(**broken):
        return pykernel.post_run(result.inputs.arrival_time,
                                 *(broken.get(name, getattr(out, name)) for name in names),
                                 30.0, len(result.node_ids))

    busy, latencies = check()
    assert (busy, latencies) == (out.busy.tolist(), out.latencies.tolist())
    assert busy[out.node_of[0]] == out.exec_end[0] - out.exec_start[0]
    assert latencies == [out.delivered_at[0] - result.inputs.arrival_time[0]]
    for column in ("uplink_done", "exec_start", "exec_end"):  # a stage lost on delivery
        with pytest.raises(SimulationError, match="out of order for task 0"):
            check(**{column: [math.nan]})
    with pytest.raises(SimulationError, match="decomposition violated for task 0"):
        check(exec_end=[out.exec_end[0] + 1e300])  # the stages no longer sum to the latency
    with pytest.raises(SimulationError, match="conservation"):  # delivered, phase says not
        check(final_phase=[PH_DOWN])


def test_control_plane_delay_shifts_latency():
    base = run_simulation(single_task_params())
    delayed = run_simulation(single_task_params(
        calibration=replace(DEFAULT_CALIBRATION, control_plane_delay_s=0.004)))
    (b,) = base.outputs.latencies
    (d,) = delayed.outputs.latencies
    assert d == pytest.approx(b + 0.004, rel=1e-9)


def test_no_placement_when_footprint_exceeds_every_node():
    params = single_task_params(
        calibration=replace(DEFAULT_CALIBRATION, task_ram_mb=1e9))
    result = run_simulation(params)
    out = result.outputs
    assert len(result.inputs.arrival_time) == 1
    assert out.node_of[0] == -1
    assert math.isnan(out.delivered_at[0])
    assert out.final_phase[0] == PH_NO_PLACEMENT
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
    result = run_simulation(params)
    kinds = [result.node_ids[i].split("-")[1] for i in result.inputs.candidate_nodes]
    assert kinds == ["onu", "olt", "edge", "cloud"]


def test_trade_off_default_sends_single_smart_city_task_to_edge():
    # edge-dominant default calibration: the 43k edge undercuts the weighted cloud
    result = run_simulation(single_task_params(strategy="trade-off"))
    (node,) = result.outputs.node_of
    assert result.node_ids[node].endswith("-edge")


def test_node_utilization_bounded():
    # busy core-time per node within its core-time over the horizon
    params = RunParams(scenario=scenario_preset("aigc"), topology="genio",
                       cpu_mips=700_000.0, seed=1, duration_s=90.0,
                       calibration=replace(DEFAULT_CALIBRATION, edge_cores=2))
    result = run_simulation(params)
    busy, cores = result.outputs.busy, result.inputs.cores
    edge = result.node_ids.index("n0101-edge")
    assert 0.0 < busy[edge] <= cores[edge] * params.duration_s
    assert cores[edge] == 2 and busy[edge] > params.duration_s  # both cores worked
    assert all(0.0 <= b <= n * params.duration_s for b, n in zip(busy, cores))


def test_processed_event_count_positive_and_stable():
    a = run_simulation(single_task_params())
    b = run_simulation(single_task_params())
    assert a.outputs.processed_events == b.outputs.processed_events > 0
