"""MIPS execution math, per-core FIFO, admission, and queue accounting."""

import random

import pytest

from ponedge.compute import (DEFAULT_TASK_RAM_MB, DEFAULT_TASK_STORAGE_MB,
                             NodeLayer, NodeSpec, NodeState)
from ponedge.network import ConfigurationError


def edge(mips, cores=1, **kw):
    return NodeState(NodeSpec("n0001-edge", NodeLayer.EDGE_SERVER, mips, cores, **kw))


def test_execution_duration_smart_city_entry_cpu():
    node = edge(43_000)
    start, end = node.submit(500.0, now=0.0)
    assert start == 0.0
    assert end == pytest.approx(500.0 / 43_000.0, rel=1e-12)  # ~0.011628 s


def test_execution_duration_heavy_task_high_end_cpu():
    node = edge(2_350_000)
    start, end = node.submit(48_000.0, now=1.0)
    assert end - start == pytest.approx(48_000.0 / 2_350_000.0, rel=1e-12)  # ~0.020426 s


def test_fifo_on_single_core():
    node = edge(43_000)
    _, first_end = node.submit(500.0, now=0.0)
    second_start, second_end = node.submit(500.0, now=0.0)
    assert second_start == first_end
    assert second_end > first_end


def test_least_available_core_with_tie_to_lowest_index():
    node = edge(100_000, cores=2)
    s0, _ = node.submit(1000.0, now=0.0)  # both cores free: core 0
    s1, _ = node.submit(1000.0, now=0.0)  # core 1 now earliest
    assert s0 == 0.0 and s1 == 0.0
    assert node.core_free_at[0] == node.core_free_at[1]
    # mips split across cores: per-core rate is half the chip
    assert node.core_free_at[0] == pytest.approx(1000.0 / 50_000.0, rel=1e-12)


def test_mips_per_core():
    spec = NodeSpec("x", NodeLayer.EDGE_SERVER, 300_000, cores=4)
    assert spec.mips_per_core == 75_000
    with pytest.raises(ConfigurationError):
        NodeSpec("x", NodeLayer.EDGE_SERVER, 300_000, cores=0)
    with pytest.raises(ConfigurationError):
        NodeSpec("x", NodeLayer.EDGE_SERVER, 0.0)


def test_admission_default_footprint_always_fits_edge_sizing():
    node = edge(43_000, ram_mb=32_768.0, storage_mb=1_048_576.0)
    assert node.admit(DEFAULT_TASK_RAM_MB, DEFAULT_TASK_STORAGE_MB) is None
    assert node.admit(0.0, 0.0) is None


def test_admission_rejects_oversized_footprints():
    node = edge(43_000, ram_mb=1024.0, storage_mb=16_384.0)
    assert node.admit(2048.0, 0.0) == "ram"
    assert node.admit(1.0, 1e9) == "storage"


def test_admission_tracks_reservations():
    node = edge(43_000, ram_mb=10.0, storage_mb=1000.0)
    assert node.admit(6.0, 100.0) is None
    node.reserve(6.0, 100.0)
    assert node.admit(6.0, 100.0) == "ram"
    node.release(6.0, 100.0)
    assert node.admit(6.0, 100.0) is None


def test_utilization_bounded_and_work_conserving():
    rng = random.Random(5)
    node = edge(50_000, cores=2)
    now = 0.0
    busy_committed = 0.0
    for _ in range(100):
        now += rng.random() * 0.01
        start, end = node.submit(rng.random() * 500 + 1, now)
        assert now <= start < end
        busy_committed += end - start
    assert node.queued_and_running == 100
    # two cores never commit more busy time than they have until the last frees
    assert busy_committed <= 2 * max(node.core_free_at)
    for _ in range(100):
        node.complete()
    assert node.queued_and_running == 0
