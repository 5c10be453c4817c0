"""Placement as the kernel runs it: trade-off scoring, round-robin cycling, admission,
and the candidate set."""

from ponedge._kernel import PH_NO_PLACEMENT, STRATEGY_ROUND_ROBIN, STRATEGY_TRADE_OFF, pykernel

from ponedge.config import DEFAULT_CALIBRATION, preset_shape
from ponedge.network import replace
from ponedge.simulation import RunParams, build_kernel_inputs
from ponedge.workload import scenario_preset

from kernel_inputs import candidate_inputs, kernel_inputs

FAR_EDGE = replace(DEFAULT_CALIBRATION, far_edge_execution=True)


def candidate_ids(preset, users, calibration):
    shape = preset_shape(preset, users, calibration)
    return [shape.node_ids[node] for node in shape.columns["candidate_nodes"]]


def place(mips, tasks=1, **fields):
    """Run `tasks` arrivals 1 s apart over candidate_inputs(mips)."""
    return pykernel.run(candidate_inputs(mips, arrival_time=[float(t) for t in range(tasks)],
                                         **fields))


def test_preset_eligible_layers():
    scenario = scenario_preset("smart-city")
    for topology in ("genio", "baseline"):
        params = RunParams(scenario=scenario, topology=topology, cpu_mips=43_000.0, seed=1,
                           duration_s=1.0)
        inputs = build_kernel_inputs(params, collect_trace=False)
        node_ids = preset_shape(topology, scenario.users, DEFAULT_CALIBRATION).node_ids
        assert [node_ids[node] for node in inputs.candidate_nodes] == ["n0257-edge",
                                                                       "n0258-cloud"]


def test_far_edge_flag_adds_onu_layer():
    assert candidate_ids("genio", 2, DEFAULT_CALIBRATION) == ["n0005-edge", "n0006-cloud"]
    # the ONUs and the OLT, which forwards for them
    assert candidate_ids("genio", 2, FAR_EDGE) == ["n0002-onu", "n0003-onu", "n0004-olt",
                                                  "n0005-edge", "n0006-cloud"]


def test_trade_off_prefers_faster_idle_edge():
    assert place([220_000.0, 300_000.0], length_mi=1000.0).node_of.tolist() == [1]


def test_trade_off_compute_vs_proximity_example():
    # with a weight of 1.8 and a 1e6 MIPS cloud, the idle cloud undercuts a
    # 220k edge server on a 500 MI task: 9.0e-4 < 2.27e-3
    out = place([220_000.0, 1_000_000.0], weight=[1.0, 1.8], length_mi=500.0)
    assert out.node_of.tolist() == [1]


def test_trade_off_tie_breaks_to_lowest_id():
    # equal nodes and no task finishing: each arrival goes to the lowest of
    # the least loaded
    assert place([100_000.0] * 3, tasks=3, length_mi=1e9).node_of.tolist() == [0, 1, 2]


def test_trade_off_empty_candidates():
    out = pykernel.run(kernel_inputs(candidate_nodes=[], routes=[[]], arrival_time=[0.0]))
    assert out.final_phase.tolist() == [PH_NO_PLACEMENT]
    assert out.node_of.tolist() == [-1]


def test_single_candidate_is_chosen_by_both_strategies():
    for strategy in (STRATEGY_TRADE_OFF, STRATEGY_ROUND_ROBIN):
        out = place([50_000.0], tasks=12, length_mi=1e12, strategy=strategy)
        assert out.node_of.tolist() == [0] * 12


def test_round_robin_cycles_in_id_order():
    assert place([1e9, 1e9], tasks=4, strategy=STRATEGY_ROUND_ROBIN).node_of.tolist() == [0, 1, 0, 1]


def test_round_robin_skips_unadmitted_and_continues():
    # node 1 has room for one footprint, and no task finishes: after its first
    # task the cycle skips it and goes on
    out = place([1e5] * 3, tasks=7, length_mi=1e12, ram_capacity=[32_768.0, 1.0, 32_768.0],
                strategy=STRATEGY_ROUND_ROBIN)
    assert out.node_of.tolist() == [0, 1, 2, 0, 2, 0, 2]
    full = place([1e5] * 3, tasks=4, length_mi=1e12, ram_capacity=[1.0] * 3,
                 strategy=STRATEGY_ROUND_ROBIN)
    assert full.node_of.tolist() == [0, 1, 2, -1]
    assert full.final_phase[3] == PH_NO_PLACEMENT


def test_candidates_filters_layer_and_admission():
    # an edge server with no room for the 1 MB footprint: round-robin
    # placement in the kernel skips it and cycles over the other candidates
    def placed(calibration):
        params = RunParams(scenario=scenario_preset("e-health"), topology="genio",
                           cpu_mips=220_000.0, seed=1, duration_s=1.0, calibration=calibration)
        inputs = build_kernel_inputs(params, collect_trace=False)
        node_ids = preset_shape("genio", 10, calibration).node_ids
        out = pykernel.run(kernel_inputs(**{
            name: getattr(inputs, name).tolist() for name in (
                "mips_per_core", "cores", "weight", "ram_capacity", "storage_capacity",
                "candidate_nodes")},
            routes=[[()] * len(inputs.candidate_nodes)], arrival_time=[0.0] * 40,
            length_mi=1000.0, strategy=STRATEGY_ROUND_ROBIN))
        return {node_ids[node] for node in out.node_of}

    assert placed(DEFAULT_CALIBRATION) == {"n0021-edge", "n0022-cloud"}
    assert placed(replace(DEFAULT_CALIBRATION, edge_ram_mb=0.5)) == {"n0022-cloud"}
    onus = {f"n{node:04d}-onu" for node in range(10, 20)}
    assert placed(FAR_EDGE) == onus | {"n0020-olt", "n0021-edge", "n0022-cloud"}
    assert placed(replace(FAR_EDGE, small_node_ram_mb=0.5)) == {"n0021-edge", "n0022-cloud"}


def test_eligible_nodes_in_id_order():
    # at 4999 users the cloud, n10000-cloud, sorts before n9999-edge
    assert candidate_ids("genio", 4998, DEFAULT_CALIBRATION) == ["n9997-edge", "n9998-cloud"]
    assert candidate_ids("genio", 4999, DEFAULT_CALIBRATION) == ["n10000-cloud", "n9999-edge"]
