"""Link math, the preset routes against a tree walk, and the fair-share transfer
model against a fluid oracle."""

import math
import random
from dataclasses import replace

import pytest

from ponedge._kernel import pykernel
from ponedge._kernel.pykernel import STRATEGY_ROUND_ROBIN
from ponedge.compute import NodeLayer
from ponedge.config import DEFAULT_CALIBRATION, _shape_inputs, preset_shape, topology_preset
from ponedge.network import BITS_PER_KB, ConfigurationError, LinkKind, LinkSpec
from ponedge.workload import scenario_preset

from kernel_inputs import kernel_inputs
from tree_oracles import route_between, transfer_schedule, tree, walked_route_columns

FIBER = LinkSpec(LinkKind.FIBER, 1e9, 100.0, 0.0)
WAN_50KM = LinkSpec(LinkKind.WAN, 1e9, 50_000.0, 10e-3)
LOCAL = LinkSpec(LinkKind.LOCAL, 0.0, 0.0, 0.0)


def test_single_transfer_time_fiber_1kb():
    # 8000 bits / 1 Gbps + 100 m / 2e8 m/s = 8e-6 + 5e-7
    (done,) = drive_pool(FIBER.bandwidth_bps, [0.0], 1.0 * BITS_PER_KB, FIBER.hop_delay_s)
    assert done == pytest.approx(8.5e-6, rel=1e-12)


def test_single_transfer_time_empty_payload_wan():
    # propagation 2.5e-4 plus the 10 ms one-way latency
    (done,) = drive_pool(WAN_50KM.bandwidth_bps, [0.0], 0.0, WAN_50KM.hop_delay_s)
    assert done == pytest.approx(1.025e-2, rel=1e-12)


def test_local_links_cost_nothing():
    # a Local link has no delay, and no route crosses one
    assert LOCAL.hop_delay_s == 0.0
    calibration = replace(DEFAULT_CALIBRATION, far_edge_execution=True)
    for preset in ("genio", "baseline"):
        columns = _shape_inputs(preset, 10, calibration)
        local = {link.id for link in preset_shape(preset, 10, calibration).links
                 if link.spec.kind is LinkKind.LOCAL}
        assert len(local) == 10 + (preset == "genio")
        for link in local:
            assert columns["link_bandwidth"][link] == math.inf
            assert columns["link_hop_delay"][link] == 0.0
        assert not {hop // 2 for hop in columns["route_hops"]} & local


def test_link_invariants():
    with pytest.raises(ConfigurationError):
        LinkSpec(LinkKind.FIBER, 0.0, 100.0, 0.0)
    with pytest.raises(ConfigurationError):
        LinkSpec(LinkKind.WAN, 1e9, -1.0, 0.0)


# Around 2u + 2 = 9999 the node ids grow a digit and their sort order, the
# candidate order, leaves the index order. A far-edge walk visits every ONU
# from every device, so it stops at 128 users.
WALKED_USERS = [(users, False) for users in (1, 2, 3, 10, 20, 50, 128, 4998, 5000, 6000)] + [
    (users, True) for users in (1, 2, 3, 10, 20, 50, 128)]


@pytest.mark.parametrize("preset", ["genio", "baseline"])
def test_closed_form_routes_equal_the_tree_walk(preset):
    for users, far_edge in WALKED_USERS:
        calibration = replace(DEFAULT_CALIBRATION, far_edge_execution=far_edge)
        shape = preset_shape(preset, users, calibration)
        # a connected tree with one cloud, each device attached to its ONU by
        # one Local link
        assert len(shape.links) == len(shape.nodes) - 1
        parents = tree(shape)
        assert [parent for parent, _, _ in parents.values()].count("") == 1
        layers = {node.id: node.layer for node in shape.nodes}
        assert list(layers.values()).count(NodeLayer.CLOUD) == 1
        attached = {node_id: [] for node_id in layers}
        for link in shape.links:
            attached[link.a].append((link.b, link))
            attached[link.b].append((link.a, link))
        assert list(layers.values()).count(NodeLayer.FAR_EDGE_DEVICE) == users
        for node_id, layer in layers.items():
            if layer is NodeLayer.FAR_EDGE_DEVICE:
                ((other, link),) = attached[node_id]
                assert link.spec.kind is LinkKind.LOCAL and layers[other] is NodeLayer.ONU

        columns = _shape_inputs.__wrapped__(preset, users, calibration)
        walked = walked_route_columns(preset, users, calibration)
        for name, column in walked.items():
            assert columns[name] == column, (users, far_edge, name)
        assert len(columns["candidate_nodes"]) == (2 + 1 + users if far_edge else 2)


def _kinds(topo, route):
    links = {link.id: link for link in topo.links}
    return [links[hop.link_id].spec.kind for hop in route]


def test_route_device_to_edge_genio():
    topo = topology_preset("genio", scenario_preset("e-health"), 220_000)
    route = route_between(topo, "n0000-dev", "n0021-edge")
    assert _kinds(topo, route) == [LinkKind.LOCAL, LinkKind.FIBER, LinkKind.LOCAL]


def test_route_device_to_cloud_genio_appends_wan():
    topo = topology_preset("genio", scenario_preset("e-health"), 220_000)
    route = route_between(topo, "n0000-dev", "n0022-cloud")
    assert _kinds(topo, route) == [
        LinkKind.LOCAL, LinkKind.FIBER, LinkKind.LOCAL, LinkKind.WAN,
    ]


def test_route_device_to_edge_baseline_crosses_wan():
    topo = topology_preset("baseline", scenario_preset("e-health"), 220_000)
    route = route_between(topo, "n0000-dev", "n0021-edge")
    kinds = _kinds(topo, route)
    assert kinds == [LinkKind.LOCAL, LinkKind.FIBER, LinkKind.WAN]
    links = {link.id: link for link in topo.links}
    assert links[route[-1].link_id].spec.length_m == 100.0


def test_route_symmetry():
    topo = topology_preset("genio", scenario_preset("e-health"), 220_000)
    fwd = route_between(topo, "n0003-dev", "n0022-cloud")
    rev = route_between(topo, "n0022-cloud", "n0003-dev")
    assert [h.link_id for h in rev] == [h.link_id for h in fwd][::-1]
    assert [h.head for h in rev] == [h.tail for h in fwd][::-1]


def test_route_is_the_tree_path_between_any_two_nodes():
    topo = topology_preset("baseline", scenario_preset("e-health"), 220_000)
    links = {link.id: link for link in topo.links}
    ids = [node.id for node in topo.nodes]
    for src in ids:
        for dst in ids:
            route = route_between(topo, src, dst)
            at = src
            for hop in route:
                link = links[hop.link_id]
                assert hop.head == at and {hop.head, hop.tail} == {link.a, link.b}
                at = hop.tail
            assert at == dst
            assert len({hop.link_id for hop in route}) == len(route)  # no link twice


def drive_pool(bandwidth_bps, starts, size_bits, hop_const=0.0):
    """When each transfer, starting at `starts`, has crossed one shared link.

    Every transfer is a task's uplink over the same link direction in a
    kernel run; the times are the tasks' `uplink_done`.
    """
    order = sorted(range(len(starts)), key=starts.__getitem__)  # arrivals in time order
    inputs = kernel_inputs(link_bandwidth=[bandwidth_bps], link_hop_delay=[hop_const],
                           routes=[[0]], arrival_time=[starts[i] for i in order],
                           request_bits=size_bits)
    uplink_done = pykernel.run(inputs).uplink_done
    done = [0.0] * len(starts)
    for rank, task in enumerate(order):
        done[task] = uplink_done[rank]
    return done


def test_uncontended_transfer_matches_analytic_time():
    size_kb = 321.5
    start = 2.25
    (completed,) = drive_pool(1e9, [start], size_kb * BITS_PER_KB, WAN_50KM.hop_delay_s)
    # serialization, propagation over 50 km, and the fixed latency
    assert abs(completed - (start + size_kb * BITS_PER_KB / 1e9 + 50_000.0 / 2.0e8 + 10e-3)) < 1e-12


def test_two_simultaneous_transfers_double_serialization():
    bits = 5000.0 * BITS_PER_KB  # 0.04 s alone on 1 Gbps
    prop = 100.0 / 2.0e8
    done = drive_pool(1e9, [0.0, 0.0], bits, hop_const=prop)
    for completion in done:
        assert completion == pytest.approx(2 * 0.04 + prop, rel=1e-9)


def test_n_identical_transfers_finish_together():
    bits = 750.0 * BITS_PER_KB
    for n in (2, 3, 7):
        done = drive_pool(1e9, [0.0] * n, bits)
        expected = n * bits / 1e9
        for completion in done:
            assert completion == pytest.approx(expected, rel=1e-9)


def test_staggered_transfers_match_fluid_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        starts = [rng.random() * 0.05 for _ in range(n)]
        bits = (rng.random() * 4000 + 1) * BITS_PER_KB  # one request size per run
        got = drive_pool(1e9, starts, bits)
        want = transfer_schedule(1e9, [(start, bits) for start in starts])
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-6)


def test_pool_accounting_by_hand():
    # 1 KB alone for 1 us (1000 bits drained), then an equal joiner halves the
    # rate; the first leaves after its last 7000 bits at 0.5 Gbps, and the
    # second then holds exactly the 1000 bits left, at the full rate
    first, second = drive_pool(1e9, [0.0, 1e-6], 8000.0)
    assert first == pytest.approx(1e-6 + 7000.0 / 0.5e9, rel=1e-12)
    assert second == pytest.approx(first + 1000.0 / 1e9, rel=1e-9)
    assert drive_pool(1e9, [0.0], 8000.0) == [8e-6]  # an idle link: bits / bandwidth


def test_pool_eta_ties_go_to_the_earliest_joiner():
    # Link 0 runs at 2 bps. Task 0 crosses it to node 1 (slot 0), executes
    # there until exactly t=1.0 and sends its 1e-17-bit result back; task 1
    # arrives at t=1.0, just before that, and sends its 2e-17-bit request the
    # same way to node 0 (slot 1). The sizes are those of the rounding tie
    # found by hand for a 2 bps link: sharing it, both etas round to exactly
    # 1.0 although the earlier joiner has more bits left, so the request must
    # complete first. A minimum over remaining bits would pick the result.
    inputs = kernel_inputs(
        mips_per_core=[1e9, 2.0], cores=[1, 1], weight=[1.0, 1.0],
        ram_capacity=[1e3, 1e3], storage_capacity=[1e3, 1e3], candidate_nodes=[1, 0],
        link_bandwidth=[2.0], link_hop_delay=[0.0], routes=[[0], [1]],
        up_route=[[0, 0], [1, 1]], arrival_time=[0.5, 1.0], arrival_device=[0, 1],
        request_bits=2e-17, result_bits=1e-17, task_ram_mb=0.0, task_storage_mb=0.0,
        strategy=STRATEGY_ROUND_ROBIN, collect_trace=True)
    out = pykernel.run(inputs)
    assert out.exec_end[0] == 1.0 and out.uplink_done[1] == out.delivered_at[0] == 1.0
    transfers = [(task, leg) for time, _, kind, task, leg in zip(*out.trace)
                 if kind == pykernel.TR_TRANSFER_COMPLETE and time == 1.0]
    assert transfers == [(1, 0), (0, 1)]
