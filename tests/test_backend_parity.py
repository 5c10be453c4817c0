"""The C kernel must be bit-identical to the pure-Python reference."""

import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from ponedge import _kernel
from ponedge._kernel import available_backends, pykernel
from ponedge._kernel.pykernel import (PH_DELIVERED, PH_DOWN, PH_NO_PLACEMENT, PH_QUEUED,
                                      PH_RUNNING, PH_UP)
from ponedge.config import DEFAULT_CALIBRATION, cpu_grid, topology_preset
from ponedge.network import ConfigurationError
from ponedge.simulation import RunParams, build_kernel_inputs, run_simulation
from ponedge.workload import scenario_preset

from kernel_inputs import kernel_inputs
from trace_files import trace_digest

needs_c = pytest.mark.skipif(
    "c" not in available_backends(),
    reason="C kernel not built in this environment",
)

CASES = [
    ("smart-city", "genio", 43_000.0),
    ("smart-city", "baseline", 300_000.0),
    ("e-health", "genio", 620_000.0),
    ("smart-building", "baseline", 440_000.0),
    ("aigc", "baseline", 700_000.0),  # heavy fair-share contention on the WAN
]


# Pinned results of the pure-Python kernel, equal on the C kernel: trace
# hash, processed events, tasks generated and delivered, mean and p95 latency,
# and how many tasks end the run in each phase. The aigc case ends with tasks
# still queued behind the horizon, whose execution start is never processed.
GOLDEN = {
    CASES[0]: ("0b84a32da3d19c45db3272fd93231427616016f75257b29b083cdc4daf16a488",
               3905, 481, 481, 0.01199225271961618, 0.011716906976744212,
               {PH_DELIVERED: 481}),
    CASES[1]: ("d0a06e810051d38c30ded2a99dece5161dedb432d0f46a1c8375a56a426e0710",
               5769, 481, 480, 0.021844890087815528, 0.02184466666666829,
               {PH_DOWN: 1, PH_DELIVERED: 480}),
    CASES[2]: ("c12dc9fae11a5cd3b586ba5e3123059dbf0faef3a73517526675bfc33a6b57d1",
               9217, 1152, 1152, 0.00179083521937469, 0.0017739032258088372,
               {PH_DELIVERED: 1152}),
    CASES[3]: ("c89cabd5652209ff0864d2408e3acac6ee3d3cf9ed90fc4b9774760c4a1a1c26",
               28083, 2341, 2339, 0.05374156719585584, 0.0652664803322125,
               {PH_RUNNING: 1, PH_DOWN: 1, PH_DELIVERED: 2339}),
    CASES[4]: ("b00d50767b1ae5492b378f0ab4d1959ea3fa399718647dae413b7a8627d397b0",
               25214, 2023, 2006, 1.0300526330181692, 1.4886102252801336,
               {PH_UP: 6, PH_QUEUED: 9, PH_RUNNING: 1, PH_DOWN: 1, PH_DELIVERED: 2006}),
}
# Variants of the cases above, each pinned the same way: round-robin
# placement, fixed arrivals and a control-plane delay on the WAN case; two
# edge cores with room for two tasks, so tasks queue per core and some are
# refused everywhere (27 end unplaced); round-robin over far-edge ONUs, whose
# Local-only routes need no transfer, skipping refused edge servers; and three
# edge cores under WAN contention, where a join processed at the same float
# time as a member's serialization end drains that member a rounding error
# below zero bits, which the kernels clamp at zero. All are equal on both
# kernels.
VARIANTS = {
    "aigc-baseline-700000-variant": (
        CASES[4],
        dict(strategy="round-robin", arrivals="fixed",
             calibration=replace(DEFAULT_CALIBRATION, control_plane_delay_s=0.002)),
        ("6dcae3ad1d18ad1ecbba9461d60684d514ec5245aabe9f45eaec65da58fbeaba",
         29944, 2000, 1995, 0.3262741266745424, 0.4564965839815418,
         {PH_UP: 5, PH_DELIVERED: 1995})),
    "smart-building-baseline-440000-two-cores-small-ram": (
        CASES[3],
        dict(calibration=replace(DEFAULT_CALIBRATION, edge_cores=2, edge_ram_mb=2.0)),
        ("24e1302cee5458dfc6455436916f2173732bc37624778dff30046645867c3c03",
         29346, 2341, 2311, 0.06589177509805753, 0.07850507118045869,
         {PH_RUNNING: 1, PH_DOWN: 2, PH_DELIVERED: 2311, PH_NO_PLACEMENT: 27})),
    "aigc-genio-700000-round-robin-far-edge-small-ram": (
        ("aigc", "genio", 700_000.0),
        dict(strategy="round-robin",
             calibration=replace(DEFAULT_CALIBRATION, far_edge_execution=True,
                                 edge_ram_mb=2.0)),
        ("ccd45265a73c6d4f52711e3426e6c86d4d2947ca7c47d519fb408bfabc11e327",
         14567, 2023, 688, 41.33525956493809, 82.90581605991389,
         {PH_UP: 2, PH_QUEUED: 1282, PH_RUNNING: 51, PH_DELIVERED: 688})),
    # fractional footprints: room for five 0.1 MB tasks on the edge server,
    # whose free capacity is decremented on each placement
    "aigc-baseline-700000-fractional-footprint": (
        CASES[4],
        dict(calibration=replace(DEFAULT_CALIBRATION, task_ram_mb=0.1, edge_ram_mb=0.5)),
        ("37b5955142fb1d58d75f4fac97fe9e35991120d6621ca343c2e1c181a043a482",
         25500, 2023, 1970, 0.3398144330931947, 0.4883358072374193,
         {PH_UP: 6, PH_RUNNING: 1, PH_DELIVERED: 1970, PH_NO_PLACEMENT: 46})),
    "aigc-baseline-800000-three-cores-clamp": (
        ("aigc", "baseline", 800_000.0),
        dict(seed=1, calibration=replace(DEFAULT_CALIBRATION, edge_cores=3)),
        ("916da158586003e14b3251f94e4d40dbd7ec882f1aa2eb2c9442cf67a664ea35",
         26233, 2075, 2069, 0.49372328054576875, 0.8836749898537768,
         {PH_UP: 3, PH_RUNNING: 2, PH_DOWN: 1, PH_DELIVERED: 2069})),
}
RUNS = [(case, {}, GOLDEN[case]) for case in CASES] + list(VARIANTS.values())
RUN_IDS = [f"{s}-{t}-{m:g}" for s, t, m in CASES] + list(VARIANTS)


def _params(case, extra):
    scenario, topology, mips = case
    return RunParams(scenario=scenario_preset(scenario), topology=topology,
                     cpu_mips=mips, **(dict(seed=5, duration_s=120.0) | extra))


def _golden_view(result):
    s = result.summary
    return (trace_digest(result), result.processed_events, s.tasks_generated,
            s.tasks_delivered, s.mean_latency_s, s.p95_latency_s,
            dict(Counter(result.outputs.final_phase)))


@pytest.mark.parametrize("case,extra,expected", RUNS, ids=RUN_IDS)
def test_python_kernel_matches_golden(case, extra, expected):
    result = run_simulation(_params(case, extra), backend="python", collect_trace=True)
    assert _golden_view(result) == expected


@needs_c
@pytest.mark.parametrize("case,extra,expected", RUNS, ids=RUN_IDS)
def test_backends_bit_identical(case, extra, expected):
    params = _params(case, extra)
    py = run_simulation(params, backend="python", collect_trace=True)
    cy = run_simulation(params, backend="c", collect_trace=True)
    assert trace_digest(py) == trace_digest(cy)
    assert py.records == cy.records
    assert py.processed_events == cy.processed_events
    assert py.outputs.final_phase == cy.outputs.final_phase
    assert py.outputs.trace == cy.outputs.trace
    assert py.summary == cy.summary


def _random_params(rng: random.Random) -> RunParams:
    """A short run on a random calibration: 1-4 cores, fractional footprints
    that make nodes refuse tasks, with or without a control-plane delay and
    far-edge execution, under either strategy and arrival mode."""
    scenario = rng.choice(["smart-city", "e-health", "smart-building", "aigc"])
    task_ram_mb = rng.choice([0.1, 0.25, 0.3, 0.7])
    calibration = replace(
        DEFAULT_CALIBRATION,
        edge_cores=rng.randint(1, 4),
        cloud_cores=rng.randint(1, 4),
        task_ram_mb=task_ram_mb,
        edge_ram_mb=task_ram_mb * rng.uniform(0.5, 8.0),
        small_node_ram_mb=task_ram_mb * rng.uniform(0.5, 3.0),
        control_plane_delay_s=rng.choice([0.0, rng.uniform(1e-4, 5e-3)]),
        # far-edge candidates would give smart-city's 128 devices a route to
        # every ONU, more route building than the run itself, so it runs
        # without them
        far_edge_execution=scenario != "smart-city" and rng.random() < 0.5,
    )
    return RunParams(
        scenario=scenario_preset(scenario), topology=rng.choice(["genio", "baseline"]),
        cpu_mips=rng.choice(cpu_grid(scenario))[1], seed=rng.randrange(1, 1_000_000),
        duration_s=rng.uniform(2.0, 20.0), strategy=rng.choice(["trade-off", "round-robin"]),
        arrivals=rng.choice(["poisson", "fixed"]), calibration=calibration,
    )


def _random_inputs(rng: random.Random):
    """(params, traced kernel inputs) of a random calibration, on the 0.25 s
    time grid half of the time."""
    params = _random_params(rng)
    topo = topology_preset(params.topology, params.scenario, params.cpu_mips,
                           params.calibration)
    inputs = build_kernel_inputs(params, topo, collect_trace=True)
    if rng.random() < 0.5:
        # random phases almost never make two float times equal; on a
        # 0.25 s grid, tasks arrive together, join links at the same
        # instant, tie on etas and start exactly at the horizon
        inputs = replace(inputs, arrival_time=[round(t * 4) / 4 for t in inputs.arrival_time],
                         duration_s=round(inputs.duration_s * 4) / 4)
    return params, inputs


def test_trace_merge_keeps_time_seq_order_on_random_calibrations():
    # execution starts and deliveries are recorded ahead of their (time, seq)
    # and merged into the processed entries; on coinciding times the merge
    # must still give strictly increasing (time, seq), as one sort would
    rng = random.Random(20260418)
    for _ in range(200):
        params, inputs = _random_inputs(rng)
        rows = list(zip(*pykernel.run(inputs).trace))
        assert all(a[:2] < b[:2] for a, b in zip(rows, rows[1:])), params
        assert rows == sorted(rows), params


@needs_c
def test_backends_bit_identical_on_random_calibrations():
    rng = random.Random(20260418)
    phases = Counter()
    for _ in range(200):
        params, inputs = _random_inputs(rng)
        py = _kernel.run(inputs, backend="python")
        c = _kernel.run(inputs, backend="c")
        # repr round-trips every float exactly, NaN included
        assert repr(c) == repr(py), params
        phases.update(set(py.final_phase))
    # the draws reach refusals, queues behind the horizon and deliveries
    assert phases[PH_NO_PLACEMENT] and phases[PH_QUEUED] and phases[PH_DELIVERED]


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
def test_trace_costs_at_most_40_bytes_per_entry(backend):
    # the largest trace among the contention-heavy cells: five columns cost
    # about 28 bytes an entry, a list of one tuple per entry about 126
    params = _params(("smart-building", "baseline", 440_000.0), dict(duration_s=600.0))
    topo = topology_preset(params.topology, params.scenario, params.cpu_mips,
                           params.calibration)
    peaks = {}
    for collect_trace in (False, True):
        inputs = build_kernel_inputs(params, topo, collect_trace)
        tracemalloc.start()
        try:
            out = _kernel.run(inputs, backend=backend)
            _, peaks[collect_trace] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    entries = len(out.trace.time)
    assert entries == 72_951
    assert peaks[True] - peaks[False] <= 40 * entries, (peaks[True] - peaks[False]) / entries


@needs_c
@pytest.mark.parametrize("fields", [
    dict(arrival_time=[0.0], arrival_device=[1]),  # no such device
    dict(candidate_nodes=[1]),  # no such node
    dict(cores=[0]),
    dict(up_route=[[1]]),  # no such route
    dict(route_hops=[[0]]),  # no such link
    dict(weight=[]),
])
def test_c_kernel_rejects_inputs_out_of_bounds(fields):
    with pytest.raises(ValueError):
        _kernel.run(kernel_inputs(**fields), backend="c")


@needs_c
def test_backend_env_selection(monkeypatch):
    from ponedge._kernel import resolve_backend
    assert resolve_backend("auto") == "c"
    monkeypatch.setenv("PONEDGE_BACKEND", "python")
    assert resolve_backend("auto") == "python"
    for name in ("qpu", "cython"):
        monkeypatch.setenv("PONEDGE_BACKEND", name)
        with pytest.raises(ConfigurationError):
            resolve_backend("auto")
