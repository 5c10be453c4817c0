"""MIPS execution math, per-core FIFO, and admission, through kernel runs."""

import random

import pytest

from ponedge._kernel import PH_DELIVERED, PH_NO_PLACEMENT, pykernel
from ponedge.config import DEFAULT_CALIBRATION, Calibration
from ponedge.network import ConfigurationError, replace
from ponedge.simulation import RunParams, build_kernel_inputs
from ponedge.workload import scenario_preset

from kernel_inputs import kernel_inputs


def edge_run(mips, arrivals, length_mi, cores=1, **fields):
    """One node reached without a link, each arrival a task of `length_mi`."""
    return pykernel.run(kernel_inputs(mips_per_core=[mips / cores], cores=[cores],
                                      arrival_time=arrivals, length_mi=length_mi,
                                      **fields))


def test_execution_duration_smart_city_entry_cpu():
    out = edge_run(43_000, [0.0], 500.0)
    assert out.exec_start.tolist() == [0.0]
    assert out.exec_end[0] == pytest.approx(500.0 / 43_000.0, rel=1e-12)  # ~0.011628 s


def test_execution_duration_heavy_task_high_end_cpu():
    out = edge_run(2_350_000, [1.0], 48_000.0)
    assert out.exec_start.tolist() == [1.0]
    assert out.exec_end[0] - 1.0 == pytest.approx(48_000.0 / 2_350_000.0, rel=1e-12)


def test_fifo_on_single_core():
    out = edge_run(43_000, [0.0, 0.0], 500.0)
    assert out.exec_start[1] == out.exec_end[0]
    assert out.exec_end[1] > out.exec_end[0]


def test_least_available_core_with_tie_to_lowest_index():
    # both cores free: the first two tasks start at once, each at half the
    # chip's MIPS; the third waits for the core that frees up first. The
    # cores of a node are identical, so which of two tied cores is taken
    # (the lowest index) does not show in the outputs.
    out = edge_run(100_000, [0.0, 0.0, 0.001], 1000.0, cores=2)
    assert out.exec_start[:2].tolist() == [0.0, 0.0]
    assert out.exec_end[0] == out.exec_end[1] == pytest.approx(1000.0 / 50_000.0, rel=1e-12)
    assert out.exec_start[2] == out.exec_end[0]


def test_mips_per_core():
    # a chip's MIPS is shared evenly by its cores; e-health's edge server and
    # cloud are nodes 21 and 22
    params = RunParams(scenario=scenario_preset("e-health"), topology="genio",
                       cpu_mips=300_000.0, seed=1, duration_s=1.0,
                       calibration=Calibration(edge_cores=4, cloud_cores=2))
    inputs = build_kernel_inputs(params, collect_trace=False)
    assert inputs.mips_per_core[21:].tolist() == [75_000.0, 500_000.0]
    assert inputs.cores[21:].tolist() == [4, 2]
    with pytest.raises(ConfigurationError, match="edge_cores must be > 0"):
        Calibration(edge_cores=0)
    with pytest.raises(ConfigurationError, match="cloud_mips must be > 0"):
        Calibration(cloud_mips=0.0)
    with pytest.raises(ConfigurationError, match="cpu_mips must be > 0"):
        replace(params, cpu_mips=0.0)


def test_admission_default_footprint_always_fits_edge_sizing():
    for footprint in ((DEFAULT_CALIBRATION.task_ram_mb, DEFAULT_CALIBRATION.task_storage_mb),
                      (0.0, 0.0)):
        out = edge_run(43_000, [0.0] * 50, 500.0, ram_capacity=[32_768.0],
                       storage_capacity=[1_048_576.0], task_ram_mb=footprint[0],
                       task_storage_mb=footprint[1])
        assert out.node_of.tolist() == [0] * 50
        assert out.final_phase.tolist() == [PH_DELIVERED] * 50


def test_admission_rejects_oversized_footprints():
    for footprint in ((2048.0, 0.0), (1.0, 1e9)):
        out = edge_run(43_000, [0.0], 500.0, ram_capacity=[1024.0],
                       storage_capacity=[16_384.0], task_ram_mb=footprint[0],
                       task_storage_mb=footprint[1])
        assert out.node_of.tolist() == [-1]
        assert out.final_phase.tolist() == [PH_NO_PLACEMENT]


def test_admission_tracks_reservations():
    # room for one 6 MB task: the second is refused while the first holds
    # its reservation, the third is placed after the first has released it
    out = edge_run(1_000, [0.0, 0.5, 2.0], 1_000.0, ram_capacity=[10.0],
                   storage_capacity=[1000.0], task_ram_mb=6.0, task_storage_mb=100.0)
    assert out.exec_end[0] == 1.0
    assert out.final_phase.tolist() == [PH_DELIVERED, PH_NO_PLACEMENT, PH_DELIVERED]


def test_utilization_bounded_and_work_conserving():
    rng = random.Random(5)
    arrivals = []
    now = 0.0
    for _ in range(100):
        now += rng.random() * 0.01
        arrivals.append(now)
    out = edge_run(50_000, arrivals, 200.0, cores=2, duration_s=10.0)
    for arrival, start, end in zip(arrivals, out.exec_start, out.exec_end):
        assert arrival <= start < end
        assert end - start == pytest.approx(200.0 / 25_000.0, rel=1e-12)
    # never more than two tasks execute at once
    edges = sorted([(start, 1) for start in out.exec_start]
                   + [(end, -1) for end in out.exec_end], key=lambda e: (e[0], e[1]))
    running = 0
    for _, step in edges:
        running += step
        assert running <= 2
    # two cores never commit more busy time than they have until the last frees
    (busy,) = out.busy
    assert busy == pytest.approx(sum(e - s for s, e in zip(out.exec_start, out.exec_end)))
    assert busy <= 2 * max(out.exec_end)
