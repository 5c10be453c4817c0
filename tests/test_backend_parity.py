"""The compiled kernel must be bit-identical to the pure-Python reference."""

from dataclasses import replace

import pytest

from ponedge._kernel import available_backends
from ponedge.config import DEFAULT_CALIBRATION
from ponedge.simulation import RunParams, run_simulation
from ponedge.workload import scenario_preset

needs_cython = pytest.mark.skipif(
    "cython" not in available_backends(),
    reason="compiled kernel not built in this environment",
)

CASES = [
    ("smart-city", "genio", 43_000.0),
    ("smart-city", "baseline", 300_000.0),
    ("e-health", "genio", 620_000.0),
    ("smart-building", "baseline", 440_000.0),
    ("aigc", "baseline", 700_000.0),  # heavy fair-share contention on the WAN
]


# Pinned results of the pure-Python kernel, recorded on the per-member
# rescheduling kernel it replaced and equal to the compiled kernel's: trace
# hash, processed events, tasks generated and delivered, mean and p95 latency.
GOLDEN = {
    CASES[0]: ("0b84a32da3d19c45db3272fd93231427616016f75257b29b083cdc4daf16a488",
               3905, 481, 481, 0.01199225271961618, 0.011716906976744212),
    CASES[1]: ("d0a06e810051d38c30ded2a99dece5161dedb432d0f46a1c8375a56a426e0710",
               5769, 481, 480, 0.021844890087815528, 0.02184466666666829),
    CASES[2]: ("c12dc9fae11a5cd3b586ba5e3123059dbf0faef3a73517526675bfc33a6b57d1",
               9217, 1152, 1152, 0.00179083521937469, 0.0017739032258088372),
    CASES[3]: ("c89cabd5652209ff0864d2408e3acac6ee3d3cf9ed90fc4b9774760c4a1a1c26",
               28083, 2341, 2339, 0.05374156719585584, 0.0652664803322125),
    CASES[4]: ("b00d50767b1ae5492b378f0ab4d1959ea3fa399718647dae413b7a8627d397b0",
               25214, 2023, 2006, 1.0300526330181692, 1.4886102252801336),
}
# round-robin placement, fixed arrivals and a control-plane delay on the WAN case
VARIANT = dict(strategy="round-robin", arrivals="fixed",
               calibration=replace(DEFAULT_CALIBRATION, control_plane_delay_s=0.002))
VARIANT_GOLDEN = ("6dcae3ad1d18ad1ecbba9461d60684d514ec5245aabe9f45eaec65da58fbeaba",
                  29944, 2000, 1995, 0.3262741266745424, 0.4564965839815418)


def _golden_view(result):
    s = result.summary
    return (result.trace_hash, result.processed_events, s.tasks_generated,
            s.tasks_delivered, s.mean_latency_s, s.p95_latency_s)


@pytest.mark.parametrize(
    "case,extra,expected",
    [(case, {}, GOLDEN[case]) for case in CASES] + [(CASES[4], VARIANT, VARIANT_GOLDEN)],
    ids=[f"{s}-{t}-{m:g}" for s, t, m in CASES] + ["aigc-baseline-700000-variant"])
def test_python_kernel_matches_golden(case, extra, expected):
    scenario, topology, mips = case
    params = RunParams(scenario=scenario_preset(scenario), topology=topology,
                       cpu_mips=mips, seed=5, duration_s=120.0, **extra)
    result = run_simulation(params, backend="python", collect_trace=True)
    assert _golden_view(result) == expected


@needs_cython
@pytest.mark.parametrize("scenario,topology,mips", CASES)
def test_backends_bit_identical(scenario, topology, mips):
    params = RunParams(scenario=scenario_preset(scenario), topology=topology,
                       cpu_mips=mips, seed=5, duration_s=120.0)
    py = run_simulation(params, backend="python", collect_trace=True)
    cy = run_simulation(params, backend="cython", collect_trace=True)
    assert py.trace_hash == cy.trace_hash
    assert py.records == cy.records
    assert py.processed_events == cy.processed_events
    assert py.summary == cy.summary


@needs_cython
def test_backend_env_selection(monkeypatch):
    from ponedge._kernel import resolve_backend
    assert resolve_backend("auto") == "cython"
    monkeypatch.setenv("PONEDGE_BACKEND", "python")
    assert resolve_backend("auto") == "python"
    monkeypatch.setenv("PONEDGE_BACKEND", "qpu")
    with pytest.raises(ValueError):
        resolve_backend("auto")
