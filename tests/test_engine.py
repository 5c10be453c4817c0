"""Kernel event ordering and clock discipline, trace kinds and file bytes, seeded streams."""

import io
import random
from array import array

import pytest

from ponedge import _kernel
from ponedge._kernel import (PH_DELIVERED, PH_PENDING, PH_RUNNING, STRATEGY_ROUND_ROBIN,
                             TR_EXECUTION_COMPLETE, TR_EXECUTION_START, TR_RESULT_DELIVERED,
                             TR_SIMULATION_END, TR_TASK_ARRIVAL, TR_TRANSFER_COMPLETE,
                             TRACE_KINDS, TRACE_TYPECODES, Trace, pykernel)
from ponedge.config import DEFAULT_CALIBRATION, preset_shape
from ponedge.engine import SimulationError, Stream
from ponedge.workload import scenario_preset

from fresh_process import needs_compiler
from kernel_inputs import candidate_inputs, kernel_inputs


def test_schedule_future_accepted():
    out = pykernel.run(kernel_inputs(arrival_time=[0.0, 3.0, 3.0, 5.0]))
    assert out.final_phase.tolist() == [PH_DELIVERED] * 4


# an arrival is the one event whose time the loops check against the clock:
# check_inputs makes every other one the clock plus a term that is >= 0
@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_compiler)])
def test_schedule_past_is_fatal(backend):
    for times, message in (([3.0, 2.0], "t=2.0 in the past (clock=3.0)"),  # unsorted
                           ([-1.0], "t=-1.0 in the past (clock=0.0)")):
        with pytest.raises(SimulationError) as refused:
            _kernel.run(kernel_inputs(arrival_time=times), backend=backend)
        assert str(refused.value) == f"scheduled event at {message}"


def test_same_time_fifo_tie_break():
    # two arrivals at t=7 on one 1 s core: the one listed first is served first
    out = pykernel.run(kernel_inputs(arrival_time=[7.0, 7.0], length_mi=1e9,
                                     collect_trace=True))
    assert [task for _, _, kind, task, _ in zip(*out.trace) if kind == TR_TASK_ARRIVAL] == [0, 1]
    assert out.exec_start.tolist() == [7.0, 8.0]


def test_run_until_empty_queue():
    out = pykernel.run(kernel_inputs(collect_trace=True))
    assert out.processed_events == 1
    assert list(zip(*out.trace)) == [(1e3, 0, TR_SIMULATION_END, -1, -1)]


def test_run_until_stops_at_horizon():
    out = pykernel.run(kernel_inputs(arrival_time=[1.0, 2.0, 3.0], duration_s=2.0,
                                     collect_trace=True))
    # task 1 starts at the horizon and ends after it; task 2 never arrives
    assert out.final_phase.tolist() == [PH_DELIVERED, PH_RUNNING, PH_PENDING]
    assert max(out.trace.time) == 2.0


def test_handler_scheduling_at_current_time_runs_before_clock_advances():
    # with no link and no control delay, the uplink ends and execution starts at
    # the arrival time itself, before the clock reaches the next arrival
    out = pykernel.run(kernel_inputs(arrival_time=[7.0, 8.0], collect_trace=True))
    assert [(time, kind, task) for time, _, kind, task, _ in list(zip(*out.trace))[:4]] == [
        (7.0, TR_TASK_ARRIVAL, 0), (7.0, TR_TRANSFER_COMPLETE, 0),
        (7.0, TR_EXECUTION_START, 0), (7.0 + 1e-9, TR_EXECUTION_COMPLETE, 0),
    ]


def test_dequeue_order_is_lexicographic_over_random_interleavings():
    # arrivals on a coarse time grid tie often; round-robin hands them out in
    # the order they are taken, so node_of shows that order
    rng = random.Random(1234)
    for _ in range(300):
        times = sorted(rng.choice([0.0, 1.0, 1.5, 2.0, rng.random() * 3])
                       for _ in range(rng.randint(1, 40)))
        out = pykernel.run(candidate_inputs([1e9] * 3, arrival_time=times,
                                            strategy=STRATEGY_ROUND_ROBIN, collect_trace=True))
        assert out.node_of.tolist() == [task % 3 for task in range(len(times))]
        keys = list(zip(out.trace.time, out.trace.seq))
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_clock_monotonic_over_processing():
    # 200 tasks sharing one link in each direction: every task's lifecycle
    # timestamps come out in order
    rng = random.Random(99)
    times = sorted(rng.random() * 5 for _ in range(200))
    out = pykernel.run(kernel_inputs(
        link_bandwidth=[1e6], link_hop_delay=[1e-3], routes=[[[0]]], arrival_time=times,
        request_bits=1e4, result_bits=1e4, length_mi=1e7, duration_s=10.0))
    delivered = [task for task, phase in enumerate(out.final_phase) if phase == PH_DELIVERED]
    assert len(delivered) == 200
    for task in delivered:
        assert (times[task] <= out.uplink_done[task] <= out.exec_start[task]
                <= out.exec_end[task] <= out.delivered_at[task])


def test_stream_replay_is_identical():
    a = Stream(42, "arrivals")
    b = Stream(42, "arrivals")
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_stream_labels_are_independent():
    a = Stream(42, "arrivals")
    b = Stream(42, "sizes")
    assert [a.uniform() for _ in range(20)] != [b.uniform() for _ in range(20)]


def test_stream_seeds_differ():
    a = Stream(42, "arrivals")
    b = Stream(43, "arrivals")
    assert [a.uniform() for _ in range(20)] != [b.uniform() for _ in range(20)]


def test_uniform_range_and_exponential_positive():
    s = Stream(7, "check")
    for _ in range(2000):
        u = s.uniform()
        assert 0.0 <= u < 1.0
    assert all(s.exponential(2.0) > 0.0 for _ in range(2000))


def test_event_payload_kinds_are_closed():
    codes = (TR_TASK_ARRIVAL, TR_TRANSFER_COMPLETE, TR_EXECUTION_START,
             TR_EXECUTION_COMPLETE, TR_RESULT_DELIVERED, TR_SIMULATION_END)
    assert [TRACE_KINDS[code] for code in codes] == [
        "TaskArrival", "TransferComplete", "ExecutionStart",
        "ExecutionComplete", "ResultDelivered", "SimulationEnd",
    ]
    assert len(TRACE_KINDS) == len(codes)


def test_trace_line_format_and_file_bytes():
    # one kernel trace entry of each kind: (time, seq, kind, task, extra)
    node_ids = preset_shape("genio", scenario_preset("smart-city").users,
                            DEFAULT_CALIBRATION).node_ids
    edge = node_ids.index("n0257-edge")
    rows = [
        (1.5, 3, TR_TASK_ARRIVAL, 0, 7),
        (0.1 + 0.2, 4, TR_TRANSFER_COMPLETE, 0, 0),
        (2.0, 5, TR_EXECUTION_START, 0, edge),
        (1e-7, 6, TR_EXECUTION_COMPLETE, 12, edge),
        (3.25, 7, TR_TRANSFER_COMPLETE, 12, 1),
        (3.25, 8, TR_RESULT_DELIVERED, 12, edge),
        (600.0, 0, TR_SIMULATION_END, -1, -1),
    ]
    sink = io.BytesIO()
    columns = zip(TRACE_TYPECODES, zip(*rows))
    pykernel.write_trace(sink, Trace(*(array(code, column) for code, column in columns)), node_ids)
    assert sink.getvalue() == (
        b"1.5\t3\tTaskArrival\ttask=t0 src=n0007-dev\n"
        b"0.30000000000000004\t4\tTransferComplete\ttask=t0 leg=up\n"
        b"2\t5\tExecutionStart\ttask=t0 node=n0257-edge\n"
        b"9.9999999999999995e-08\t6\tExecutionComplete\ttask=t12 node=n0257-edge\n"
        b"3.25\t7\tTransferComplete\ttask=t12 leg=down\n"
        b"3.25\t8\tResultDelivered\ttask=t12 node=n0257-edge\n"
        b"600\t0\tSimulationEnd\t-\n"
    )
