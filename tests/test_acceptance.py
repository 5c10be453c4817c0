"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines as they are produced. The full default sweep (4 scenarios x
2 topologies x 5 CPUs x 5 seeds at 600 simulated seconds = 200 runs) backs
the comparative criteria and is executed once per session.
"""

import math
import os
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ponedge._kernel import pykernel
from ponedge.cli import main
from ponedge.config import cpu_grid
from ponedge.engine import Stream
from ponedge.network import BITS_PER_KB
from ponedge.simulation import RunParams, run_simulation
from ponedge.sweep import compare_scenario, sweep_scenario
from ponedge.workload import SCENARIOS, ScenarioSpec, scenario_preset

from kernel_inputs import candidate_inputs
from test_network import drive_pool
from trace_files import trace_digest

SCENARIO_ORDER = ("smart-city", "e-health", "smart-building", "aigc")

# §V-D-shaped reference reductions per scenario; a soft target (recorded,
# not gating) while the ordering itself is the gate.
REFERENCE_REDUCTIONS = {
    "smart-city": -27.7, "e-health": -35.0, "smart-building": -13.1, "aigc": -7.1,
}

SWEEP_BUDGET_S = 60.0
PER_SEED_TSR_NOISE_PP = 0.05  # boundary tasks at the horizon, see ledger


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance-sweep"))
    jobs = os.cpu_count() or 1
    t0 = time.perf_counter()
    summaries = {}
    for name in SCENARIO_ORDER:
        summaries[name] = sweep_scenario(scenario_preset(name), out_dir=out, jobs=jobs)
    wall = time.perf_counter() - t0
    comparisons = {
        name: compare_scenario(scenario_preset(name), out_dir=out, jobs=1)
        for name in SCENARIO_ORDER
    }
    return SimpleNamespace(out=out, wall=wall, summaries=summaries,
                           comparisons=comparisons)


def test_c1_single_task_analytic_oracle():
    scenario = ScenarioSpec("smart-city-1dev", users=1, rate_per_min=2, deadline_s=0.5,
                            length_mi=500, request_kb=1, result_kb=10)
    params = RunParams(scenario=scenario, topology="genio", cpu_mips=43_000.0,
                       seed=1, duration_s=30.0, strategy="round-robin",
                       arrivals="fixed")
    (rec,) = run_simulation(params).records
    expected = 8.5e-6 + 500.0 / 43_000.0 + 8.05e-5  # 0.011716907 to 9 digits
    ok = (rec.status == "Delivered"
          and rec.node_id.endswith("-edge")
          and math.isclose(rec.latency_s, expected, rel_tol=1e-9)
          and float(f"{rec.latency_s:.9g}") == 0.011716907)
    report("C1 single-task-analytic-oracle", ok,
           f"latency {rec.latency_s:.12g} s vs uplink+exec+downlink {expected:.12g} s on {rec.node_id}")


def test_c2_fair_share_oracle():
    bits = 5000.0 * BITS_PER_KB
    propagation = 100.0 / 2.0e8
    done = drive_pool(1e9, [0.0, 0.0], bits, hop_const=propagation)
    expected = 2 * 0.04 + propagation
    ok = all(math.isclose(v, expected, rel_tol=1e-9) for v in done)
    report("C2 fair-share-oracle", ok,
           f"two simultaneous 5000 KB transfers: {done[0]:.9f}/{done[1]:.9f} s vs {expected:.9f} s")


def test_c3_directional_claim_every_cell(grid):
    losing = [
        (name, row.mips)
        for name, comp in grid.comparisons.items()
        for row in comp.rows
        if not row.genio_mean_latency_s < row.baseline_mean_latency_s
    ]
    cells = sum(len(c.rows) for c in grid.comparisons.values())
    ok = not losing and cells == 20 and grid.wall < SWEEP_BUDGET_S
    report("C3 directional-claim", ok,
           f"{cells - len(losing)}/{cells} cells genio < baseline, sweep {grid.wall:.1f} s "
           f"< {SWEEP_BUDGET_S:.0f} s")


def test_c4_reduction_ordering(grid):
    avg = {name: comp.average_reduction_pct for name, comp in grid.comparisons.items()}
    ok = (abs(avg["e-health"]) > abs(avg["smart-city"])
          > abs(avg["smart-building"]) > abs(avg["aigc"]))
    detail = ", ".join(f"{name} {avg[name]:.1f}%" for name in
                       ("e-health", "smart-city", "smart-building", "aigc"))
    report("C4 reduction-ordering", ok, detail)
    # soft target: recorded, not gating
    for name in SCENARIO_ORDER:
        delta = avg[name] - REFERENCE_REDUCTIONS[name]
        flag = "within" if abs(delta) <= 15.0 else "outside"
        print(f"  note: {name} reduction {avg[name]:.1f}% vs reference "
              f"{REFERENCE_REDUCTIONS[name]:.1f}% ({flag} +/-15 pp soft target)")


def test_c5_tsr_monotonicity(grid):
    failures = []
    for name, summaries in grid.summaries.items():
        mips_grid = [m for _, m in cpu_grid(name)]
        cells = {}
        for s in summaries:
            cells.setdefault((s.topology, s.mips), []).append(s.tsr_pct)
            cells.setdefault((s.topology, s.seed, s.mips), None)
        per_seed = {(s.topology, s.seed, s.mips): s.tsr_pct for s in summaries}
        for topology in ("genio", "baseline"):
            means = [sum(cells[(topology, m)]) / len(cells[(topology, m)]) for m in mips_grid]
            if any(b < a for a, b in zip(means, means[1:])):
                failures.append(f"{name}/{topology} mean TSR not monotone: {means}")
            for seed in sorted({s.seed for s in summaries}):
                tsrs = [per_seed[(topology, seed, m)] for m in mips_grid]
                if any(b < a - PER_SEED_TSR_NOISE_PP for a, b in zip(tsrs, tsrs[1:])):
                    failures.append(f"{name}/{topology}/seed{seed}: {tsrs}")
    aigc = grid.summaries["aigc"]
    for topology in ("genio", "baseline"):
        def mean_tsr(mips):
            vals = [s.tsr_pct for s in aigc if s.topology == topology and s.mips == mips]
            return sum(vals) / len(vals)
        low, high = mean_tsr(700_000.0), mean_tsr(2_350_000.0)
        if not low < high:
            failures.append(f"aigc/{topology}: TSR(700k)={low} !< TSR(2.35M)={high}")
    report("C5 tsr-monotonicity", not failures,
           failures[0] if failures else
           "seed-mean TSR non-decreasing in MIPS everywhere; "
           "aigc TSR(700k) < TSR(2.35M) on both topologies")


def test_c6_conservation_and_decomposition(grid):
    # run_simulation asserts both identities on every run (the 200-cell sweep
    # would have aborted otherwise); re-verify one run here from raw records
    params = RunParams(scenario=scenario_preset("smart-building"), topology="baseline",
                       cpu_mips=440_000.0, seed=2, duration_s=600.0)
    result = run_simulation(params)
    summary = result.summary
    conserved = summary.tasks_generated == summary.tasks_delivered + summary.tasks_unfinished
    worst = 0.0
    for rec in result.records:
        if rec.status != "Delivered":
            continue
        parts = ((rec.uplink_done - rec.generated_at)
                 + (rec.exec_start - rec.uplink_done)
                 + (rec.exec_end - rec.exec_start)
                 + (rec.delivered_at - rec.exec_end))
        worst = max(worst, abs(parts - rec.latency_s))
    ok = conserved and worst <= 1e-12
    report("C6 conservation-and-decomposition", ok,
           f"{summary.tasks_generated} = {summary.tasks_delivered} + "
           f"{summary.tasks_unfinished}; worst decomposition residual {worst:.2e} s "
           f"over {summary.tasks_delivered} tasks (also asserted inside all 200 sweep runs)")


def test_c7_determinism(grid, tmp_path):
    flags = ["run", "--scenario", "e-health", "--topology", "genio",
             "--cpu-mips", "220000", "--seed", "1"]
    assert main(flags + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(flags + ["--out-dir", str(tmp_path / "b")]) == 0
    identical = all(
        (tmp_path / "a" / "e-health" / "genio" / "220000" / "1" / name).read_bytes()
        == (tmp_path / "b" / "e-health" / "genio" / "220000" / "1" / name).read_bytes()
        for name in ("tasks.csv", "summary.csv")
    )
    params = RunParams(scenario=scenario_preset("smart-city"), topology="genio",
                       cpu_mips=43_000.0, seed=1)
    hashes = {trace_digest(run_simulation(params, collect_trace=True)) for _ in range(10)}
    ok = identical and len(hashes) == 1
    report("C7 determinism", ok,
           f"byte-identical CSVs: {identical}; {10} trace repeats -> "
           f"{len(hashes)} distinct hash(es)")


SCALE_FACTORS = [2.0 ** e for e in range(-8, 9)] + [3.0, 10.0, 0.7]


def test_c8_scheduler_properties():
    # Random runs of 1-8 candidates through the kernel's trade-off placement.
    # Arrivals come strictly apart over empty routes with no control delay,
    # and no execution ends within the horizon at any scale factor, so every
    # placement is one decision whose queue counts are the earlier
    # placements on each node.
    rng = random.Random(1031)
    decisions = argmin_ok = scale_ok = runs = 0
    while decisions < 10_000:
        n = rng.randint(1, 8)
        weight = [rng.choice([1.0, 1.3, 1.8, 25.0]) for _ in range(n)]
        mips = [rng.uniform(1e3, 3e6) for _ in range(n)]
        length = rng.uniform(1.0, 1e5)
        tasks = rng.randint(1, 40)
        # the shortest execution at the smallest scale factor outlasts the horizon
        spacing = min(SCALE_FACTORS) * length / max(mips) / (2 * tasks)
        inputs = candidate_inputs(mips, weight=weight,
                                  arrival_time=[i * spacing for i in range(tasks)],
                                  length_mi=length, duration_s=(tasks - 1) * spacing)
        base = pykernel.run(inputs)
        k = rng.choice(SCALE_FACTORS)
        scaled = pykernel.run(replace(inputs, length_mi=length * k))
        for out in (base, scaled):
            assert min(out.exec_end) > inputs.duration_s, "an execution ended within the horizon"
        queued = [0] * n
        for node, node_scaled in zip(base.node_of, scaled.node_of):
            oracle = min(((queued[c] + 1) * weight[c] * length / mips[c], c) for c in range(n))[1]
            argmin_ok += node == oracle
            scale_ok += node_scaled == node
            queued[node] += 1
        decisions += tasks
        runs += 1
    ok = argmin_ok == decisions and scale_ok == decisions
    report("C8 scheduler-properties", ok,
           f"kernel placements vs exhaustive oracle {argmin_ok}/{decisions}, "
           f"scale invariance {scale_ok}/{decisions}, over {runs} runs")


def test_c9_poisson_interarrival_means():
    n = 10_000
    failures = []
    details = []
    for name in SCENARIO_ORDER:
        spec = SCENARIOS[name]
        mean_target = 60.0 / spec.rate_per_min
        stream = Stream(2024, f"arrivals/{name}/0")
        sample_mean = sum(stream.exponential(mean_target) for _ in range(n)) / n
        bound = 3 * mean_target / math.sqrt(n)  # exponential: sigma == mean
        details.append(f"{name} |{sample_mean:.4f}-{mean_target:g}|<={bound:.4f}")
        if abs(sample_mean - mean_target) > bound:
            failures.append(name)
    report("C9 poisson-interarrival-mean", not failures, "; ".join(details))
