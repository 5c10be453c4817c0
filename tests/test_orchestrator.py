"""Placement as the kernel runs it: trade-off scoring, round-robin cycling, admission,
and the candidate set."""

from ponedge._kernel import pykernel
from ponedge._kernel.pykernel import PH_NO_PLACEMENT, STRATEGY_ROUND_ROBIN, STRATEGY_TRADE_OFF
from ponedge.compute import NodeLayer, NodeSpec
from ponedge.config import eligible_nodes, topology_preset
from ponedge.simulation import RunParams, build_kernel_inputs
from ponedge.workload import scenario_preset

from kernel_inputs import candidate_inputs, kernel_inputs

SPECS = [
    NodeSpec("n1-dev", NodeLayer.FAR_EDGE_DEVICE, 5000.0),
    NodeSpec("n2-onu", NodeLayer.ONU, 5000.0),
    NodeSpec("n3-edge", NodeLayer.EDGE_SERVER, 220_000.0),
    NodeSpec("n4-cloud", NodeLayer.CLOUD, 1_000_000.0),
    NodeSpec("n5-edge", NodeLayer.EDGE_SERVER, 80_000.0, ram_mb=0.5),
]


def place(mips, tasks=1, **fields):
    """Run `tasks` arrivals 1 s apart over candidate_inputs(mips)."""
    return pykernel.run(candidate_inputs(mips, arrival_time=[float(t) for t in range(tasks)],
                                         **fields))


def test_preset_eligible_layers():
    scenario = scenario_preset("smart-city")
    for topology in ("genio", "baseline"):
        topo = topology_preset(topology, scenario, 43_000.0)
        params = RunParams(scenario=scenario, topology=topology, cpu_mips=43_000.0, seed=1,
                           duration_s=1.0)
        inputs = build_kernel_inputs(params, topo, collect_trace=False)
        layers = {topo.nodes[node].layer for node in inputs.candidate_nodes}
        assert layers == {NodeLayer.EDGE_SERVER, NodeLayer.CLOUD}


def test_far_edge_flag_adds_onu_layer():
    assert "n2-onu" not in eligible_nodes(SPECS, far_edge_execution=False)
    assert "n2-onu" in eligible_nodes(SPECS, far_edge_execution=True)


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
    out = pykernel.run(kernel_inputs(candidate_nodes=[], up_route=[[]], arrival_time=[0.0]))
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
    # n5-edge has no room for the 1 MB footprint, so round-robin placement
    # in the kernel skips it and cycles over the other eligible nodes
    index = {spec.id: idx for idx, spec in enumerate(SPECS)}

    def placed(far_edge_execution):
        candidates = [index[node_id] for node_id in eligible_nodes(SPECS, far_edge_execution)]
        out = pykernel.run(kernel_inputs(
            mips_per_core=[spec.mips_per_core for spec in SPECS], cores=[1] * 5,
            weight=[1.0] * 5, ram_capacity=[spec.ram_mb for spec in SPECS],
            storage_capacity=[spec.storage_mb for spec in SPECS],
            candidate_nodes=candidates, up_route=[[0] * len(candidates)],
            arrival_time=[0.0] * 20, length_mi=1000.0, strategy=STRATEGY_ROUND_ROBIN))
        return {SPECS[node].id for node in out.node_of}

    assert eligible_nodes(SPECS, False) == ["n3-edge", "n4-cloud", "n5-edge"]
    assert placed(False) == {"n3-edge", "n4-cloud"}
    assert placed(True) == {"n2-onu", "n3-edge", "n4-cloud"}


def test_eligible_nodes_in_id_order():
    specs = [
        NodeSpec("n9-cloud", NodeLayer.CLOUD, 1e6),
        NodeSpec("n1-edge", NodeLayer.EDGE_SERVER, 1e5),
    ]
    assert eligible_nodes(specs, False) == ["n1-edge", "n9-cloud"]
