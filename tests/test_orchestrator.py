"""Placement scoring, candidate filtering, round-robin cycling, and argmin properties."""

import random

import pytest

from ponedge._kernel import pykernel
from ponedge._kernel.pykernel import STRATEGY_ROUND_ROBIN
from ponedge.compute import NodeLayer, NodeSpec
from ponedge.network import ConfigurationError
from ponedge.orchestrator import (ArchitecturePreset, CandidateView,
                                  NoPlacementError, RoundRobinSelector,
                                  architecture_preset, eligible_nodes, trade_off_select)

from kernel_inputs import kernel_inputs


def view(node_id, weight, mips, queued=0):
    return CandidateView(node_id, weight, mips, queued)


def test_preset_eligible_layers():
    genio = architecture_preset("genio")
    assert genio.eligible_layers == {NodeLayer.EDGE_SERVER, NodeLayer.CLOUD}
    assert architecture_preset("baseline").eligible_layers == genio.eligible_layers


def test_far_edge_flag_adds_onu_layer():
    preset = architecture_preset("genio", far_edge_execution=True)
    assert NodeLayer.ONU in preset.eligible_layers


def test_preset_must_keep_edge_and_cloud_eligible():
    with pytest.raises(ConfigurationError):
        ArchitecturePreset("custom", frozenset({NodeLayer.EDGE_SERVER}))
    with pytest.raises(ConfigurationError):
        architecture_preset("mesh")


def test_trade_off_prefers_faster_idle_edge():
    decision = trade_off_select(0, 1000.0, [
        view("n01-edge", 1.0, 220_000.0),
        view("n02-edge", 1.0, 300_000.0),
    ])
    assert decision.node_id == "n02-edge"
    scores = dict(decision.breakdown)
    assert scores["n01-edge"] == pytest.approx(1000.0 / 220_000.0, rel=1e-12)
    assert scores["n02-edge"] == pytest.approx(1000.0 / 300_000.0, rel=1e-12)


def test_trade_off_compute_vs_proximity_example():
    # with a weight of 1.8 and a 1e6 MIPS cloud, the idle cloud undercuts a
    # 220k edge server on a 500 MI task: 9.0e-4 < 2.27e-3
    decision = trade_off_select(1, 500.0, [
        view("n02-cloud", 1.8, 1_000_000.0),
        view("n01-edge", 1.0, 220_000.0),
    ])
    assert decision.node_id == "n02-cloud"
    scores = dict(decision.breakdown)
    assert scores["n02-cloud"] == pytest.approx(9.0e-4, rel=1e-12)
    assert scores["n01-edge"] == pytest.approx(500.0 / 220_000.0, rel=1e-12)


def test_trade_off_tie_breaks_to_lowest_id():
    decision = trade_off_select(2, 700.0, [
        view("n05-edge", 1.0, 100_000.0),
        view("n03-edge", 1.0, 100_000.0),
        view("n04-edge", 1.0, 100_000.0),
    ])
    assert decision.node_id == "n03-edge"


def test_trade_off_empty_candidates():
    with pytest.raises(NoPlacementError):
        trade_off_select(0, 1.0, [])


def test_single_candidate_is_chosen_by_both_strategies():
    only = view("n09-edge", 1.0, 50_000.0, queued=12)
    assert trade_off_select(0, 10.0, [only]).node_id == "n09-edge"
    rr = RoundRobinSelector(["n09-edge"])
    assert rr.select(0, {"n09-edge"}).node_id == "n09-edge"


def _exhaustive_oracle(length, views):
    ordered = sorted(views, key=lambda v: v.node_id)
    scored = [((v.queued_and_running + 1) * v.layer_weight * length / v.mips_per_core, v.node_id)
              for v in ordered]
    return min(scored)[1]


def _random_views(rng, n):
    ids = rng.sample(range(1000), n)
    return [
        view(f"n{node_id:03d}", rng.choice([1.0, 1.3, 1.8, 25.0]),
             rng.uniform(1e3, 3e6), rng.randint(0, 50))
        for node_id in ids
    ]


def test_argmin_correctness_randomized_10k():
    rng = random.Random(20240817)
    for _ in range(10_000):
        views = sorted(_random_views(rng, rng.randint(1, 8)), key=lambda v: v.node_id)
        length = rng.uniform(1.0, 1e5)
        decision = trade_off_select(0, length, views)
        assert decision.node_id == _exhaustive_oracle(length, views)
        # no candidate in the breakdown beats the chosen score
        assert all(score >= decision.score for _, score in decision.breakdown)


def test_choice_scale_invariance_randomized_10k():
    rng = random.Random(77)
    for _ in range(10_000):
        views = sorted(_random_views(rng, rng.randint(2, 6)), key=lambda v: v.node_id)
        length = rng.uniform(1.0, 1e4)
        k = rng.choice([0.5, 2.0, 4.0, 0.25, 1024.0, 2.0 ** -7])
        base = trade_off_select(0, length, views).node_id
        scaled = trade_off_select(0, length * k, views).node_id
        assert base == scaled


def test_more_queue_never_makes_a_node_newly_chosen():
    rng = random.Random(31)
    for _ in range(2000):
        views = sorted(_random_views(rng, rng.randint(2, 6)), key=lambda v: v.node_id)
        length = rng.uniform(1.0, 1e4)
        before = trade_off_select(0, length, views).node_id
        bumped_idx = rng.randrange(len(views))
        bumped = views[bumped_idx]
        if bumped.node_id == before:
            continue
        views[bumped_idx] = view(bumped.node_id, bumped.layer_weight,
                                 bumped.mips_per_core, bumped.queued_and_running + rng.randint(1, 10))
        assert trade_off_select(0, length, views).node_id != bumped.node_id


def test_round_robin_cycles_in_id_order():
    rr = RoundRobinSelector(["nB", "nA"])
    picks = [rr.select(i, {"nA", "nB"}).node_id for i in range(4)]
    assert picks == ["nA", "nB", "nA", "nB"]


def test_round_robin_skips_unadmitted_and_continues():
    rr = RoundRobinSelector(["nA", "nB", "nC"])
    assert rr.select(0, {"nA", "nB", "nC"}).node_id == "nA"
    assert rr.select(1, {"nA", "nC"}).node_id == "nC"  # nB rejected, cycle goes on
    assert rr.select(2, {"nA", "nB", "nC"}).node_id == "nA"
    with pytest.raises(NoPlacementError):
        rr.select(3, set())


def test_candidates_filters_layer_and_admission():
    # n5-edge has no room for the 1 MB footprint, so round-robin placement
    # in the kernel skips it and cycles over the other eligible nodes
    specs = [
        NodeSpec("n1-dev", NodeLayer.FAR_EDGE_DEVICE, 5000.0),
        NodeSpec("n2-onu", NodeLayer.ONU, 5000.0),
        NodeSpec("n3-edge", NodeLayer.EDGE_SERVER, 220_000.0),
        NodeSpec("n4-cloud", NodeLayer.CLOUD, 1_000_000.0),
        NodeSpec("n5-edge", NodeLayer.EDGE_SERVER, 80_000.0, ram_mb=0.5),
    ]
    index = {spec.id: idx for idx, spec in enumerate(specs)}

    def placed(preset):
        candidates = [index[node_id] for node_id in eligible_nodes(preset, specs)]
        out = pykernel.run(kernel_inputs(
            mips_per_core=[spec.mips_per_core for spec in specs], cores=[1] * 5,
            weight=[1.0] * 5, ram_capacity=[spec.ram_mb for spec in specs],
            storage_capacity=[spec.storage_mb for spec in specs],
            candidate_nodes=candidates, up_route=[[0] * len(candidates)],
            arrival_time=[0.0] * 20, length_mi=1000.0, strategy=STRATEGY_ROUND_ROBIN))
        return {specs[node].id for node in out.node_of}

    assert eligible_nodes(architecture_preset("genio"), specs) == ["n3-edge", "n4-cloud",
                                                                   "n5-edge"]
    assert placed(architecture_preset("genio")) == {"n3-edge", "n4-cloud"}
    with_onu = architecture_preset("genio", far_edge_execution=True)
    assert placed(with_onu) == {"n2-onu", "n3-edge", "n4-cloud"}


def test_eligible_nodes_in_id_order():
    specs = [
        NodeSpec("n9-cloud", NodeLayer.CLOUD, 1e6),
        NodeSpec("n1-edge", NodeLayer.EDGE_SERVER, 1e5),
    ]
    assert eligible_nodes(architecture_preset("genio"), specs) == ["n1-edge", "n9-cloud"]
