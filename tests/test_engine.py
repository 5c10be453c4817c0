"""Event queue ordering, clock discipline, and seeded stream behavior."""

import io
import random

import pytest

from ponedge._kernel.pykernel import (TR_EXECUTION_COMPLETE, TR_EXECUTION_START,
                                      TR_RESULT_DELIVERED, TR_SIMULATION_END,
                                      TR_TASK_ARRIVAL, TR_TRANSFER_COMPLETE)
from ponedge.config import topology_preset
from ponedge.engine import Event, EventKind, EventQueue, SimulationError, Stream, random_stream
from ponedge.simulation import write_trace
from ponedge.workload import scenario_preset


def drain(queue, t_end):
    seen = []
    queue.run_until(t_end, lambda time, seq, payload: seen.append((time, seq, payload)))
    return seen


def test_schedule_future_accepted():
    q = EventQueue()
    q.run_until(3.0, lambda *a: None)
    q.schedule(5.0, "ok")
    assert len(q) == 1


def test_schedule_past_is_fatal():
    q = EventQueue()
    q.run_until(3.0, lambda *a: None)
    with pytest.raises(SimulationError):
        q.schedule(2.0, "late")


def test_same_time_fifo_tie_break():
    q = EventQueue()
    q.schedule(7.0, "A")
    q.schedule(7.0, "B")
    assert [p for _, _, p in drain(q, 10.0)] == ["A", "B"]


def test_run_until_empty_queue():
    q = EventQueue()
    assert q.run_until(10.0, lambda *a: None) == 0
    assert q.now == 10.0


def test_run_until_stops_at_horizon():
    q = EventQueue()
    for t in (1.0, 2.0, 3.0):
        q.schedule(t, t)
    assert q.run_until(2.0, lambda *a: None) == 2
    assert q.now == 2.0
    assert q.run_until(3.0, lambda *a: None) == 1


def test_run_until_behind_clock_is_fatal():
    q = EventQueue()
    q.run_until(5.0, lambda *a: None)
    with pytest.raises(SimulationError):
        q.run_until(4.0, lambda *a: None)


def test_handler_scheduling_at_current_time_runs_before_clock_advances():
    q = EventQueue()
    order = []

    def handler(time, seq, payload):
        order.append(payload)
        if payload == "first":
            q.schedule(time, "chained")

    q.schedule(7.0, "first")
    q.schedule(8.0, "later")
    q.run_until(10.0, handler)
    assert order == ["first", "chained", "later"]


def test_dequeue_order_is_lexicographic_over_random_interleavings():
    rng = random.Random(1234)
    for _ in range(300):
        q = EventQueue()
        expected = []
        for _ in range(rng.randint(1, 40)):
            t = rng.choice([0.0, 1.0, 1.5, 2.0, rng.random() * 3])
            seq = q.schedule(t, None)
            expected.append((t, seq))
        got = [(t, s) for t, s, _ in drain(q, 10.0)]
        assert got == sorted(expected)


def test_clock_monotonic_over_processing():
    rng = random.Random(99)
    q = EventQueue()
    for _ in range(200):
        q.schedule(rng.random() * 5, None)
    times = [t for t, _, _ in drain(q, 10.0)]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_stream_replay_is_identical():
    a = random_stream(42, "arrivals")
    b = random_stream(42, "arrivals")
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_stream_labels_are_independent():
    a = random_stream(42, "arrivals")
    b = random_stream(42, "sizes")
    assert [a.uniform() for _ in range(20)] != [b.uniform() for _ in range(20)]


def test_stream_seeds_differ():
    a = random_stream(42, "arrivals")
    b = random_stream(43, "arrivals")
    assert [a.uniform() for _ in range(20)] != [b.uniform() for _ in range(20)]


def test_uniform_range_and_exponential_positive():
    s = Stream(7, "check")
    for _ in range(2000):
        u = s.uniform()
        assert 0.0 <= u < 1.0
    assert all(s.exponential(2.0) > 0.0 for _ in range(2000))


def test_event_payload_kinds_are_closed():
    assert [k.value for k in EventKind] == [
        "TaskArrival", "TransferComplete", "ExecutionStart",
        "ExecutionComplete", "ResultDelivered", "SimulationEnd",
    ]


def test_trace_line_format_and_file_bytes():
    ev = Event(1.5, 3, EventKind.TASK_ARRIVAL, ("task=t0", "src=n0000-dev"))
    assert ev.trace_line() == "1.5\t3\tTaskArrival\ttask=t0 src=n0000-dev"
    # one kernel trace entry of each kind: (time, seq, kind, task, extra)
    topo = topology_preset("genio", scenario_preset("smart-city"), 43_000.0)
    edge = [node.id for node in topo.nodes].index("n0257-edge")
    trace = [
        (1.5, 3, TR_TASK_ARRIVAL, 0, 7),
        (0.1 + 0.2, 4, TR_TRANSFER_COMPLETE, 0, 0),
        (2.0, 5, TR_EXECUTION_START, 0, edge),
        (1e-7, 6, TR_EXECUTION_COMPLETE, 12, edge),
        (3.25, 7, TR_TRANSFER_COMPLETE, 12, 1),
        (3.25, 8, TR_RESULT_DELIVERED, 12, edge),
        (600.0, 0, TR_SIMULATION_END, -1, -1),
    ]
    sink = io.BytesIO()
    write_trace(sink, topo, trace)
    assert sink.getvalue() == (
        b"1.5\t3\tTaskArrival\ttask=t0 src=n0007-dev\n"
        b"0.30000000000000004\t4\tTransferComplete\ttask=t0 leg=up\n"
        b"2\t5\tExecutionStart\ttask=t0 node=n0257-edge\n"
        b"9.9999999999999995e-08\t6\tExecutionComplete\ttask=t12 node=n0257-edge\n"
        b"3.25\t7\tTransferComplete\ttask=t12 leg=down\n"
        b"3.25\t8\tResultDelivered\ttask=t12 node=n0257-edge\n"
        b"600\t0\tSimulationEnd\t-\n"
    )
