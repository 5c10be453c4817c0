"""Link math, the preset shape columns against a tree walk, and the fair-share transfer
model against a fluid oracle."""

import itertools
import math
import random

import pytest

from ponedge._kernel import STRATEGY_ROUND_ROBIN, TR_TRANSFER_COMPLETE, pykernel
from ponedge.config import DEFAULT_CALIBRATION, Calibration, preset_shape
from ponedge.network import BITS_PER_KB, ConfigurationError, replace
from ponedge.workload import scenario_preset

from kernel_inputs import kernel_inputs
from tree_oracles import preset_tree, route_between, transfer_schedule, tree, walked_shape

E_HEALTH_USERS = scenario_preset("e-health").users  # 10: the edge is node 21, the cloud 22


def _link(preset, link):
    """(bandwidth, hop delay) of one link of the default e-health shape."""
    columns = preset_shape(preset, E_HEALTH_USERS, DEFAULT_CALIBRATION).columns
    return columns["link_bandwidth"][link], columns["link_hop_delay"][link]


FIBER = _link("genio", E_HEALTH_USERS)  # link u: ONU 0's fiber
WAN_50KM = _link("genio", 2 * E_HEALTH_USERS + 1)  # link 2u + 1: edge server to cloud


def test_single_transfer_time_fiber_1kb():
    # 8000 bits / 1 Gbps + 100 m / 2e8 m/s = 8e-6 + 5e-7
    (done,) = drive_pool(FIBER[0], [0.0], 1.0 * BITS_PER_KB, FIBER[1])
    assert done == pytest.approx(8.5e-6, rel=1e-12)


def test_single_transfer_time_empty_payload_wan():
    # propagation 2.5e-4 plus the 10 ms one-way latency
    (done,) = drive_pool(WAN_50KM[0], [0.0], 0.0, WAN_50KM[1])
    assert done == pytest.approx(1.025e-2, rel=1e-12)


def test_local_links_cost_nothing():
    # a Local link has no delay, and no route crosses one
    calibration = replace(DEFAULT_CALIBRATION, far_edge_execution=True)
    for preset in ("genio", "baseline"):
        columns = preset_shape(preset, 10, calibration).columns
        local = {link.id for link in preset_tree(preset, 10)[1] if link.kind == "local"}
        assert len(local) == 10 + (preset == "genio")
        for link in local:
            assert columns["link_bandwidth"][link] == math.inf
            assert columns["link_hop_delay"][link] == 0.0
        assert not {hop // 2 for hop in columns["route_hops"]} & local


def test_link_invariants():
    for field in ("fiber_bandwidth_bps", "wan_bandwidth_bps"):
        with pytest.raises(ConfigurationError, match=f"calibration: {field} must be > 0"):
            Calibration(**{field: 0.0})
    for field in ("pon_length_m", "edge_cloud_length_m", "baseline_olt_edge_length_m",
                  "fiber_fixed_latency_s", "wan_fixed_latency_s"):
        with pytest.raises(ConfigurationError, match=f"calibration: {field} must be >= 0"):
            Calibration(**{field: -1.0})
        assert preset_shape("baseline", 2, Calibration(**{field: 0})).columns


# Around 2u + 2 = 9999 the node ids grow a digit and their sort order, the
# candidate order, leaves the index order: at 4999 users the cloud,
# n10000-cloud, sorts before the edge server, n9999-edge. A far-edge walk
# visits every ONU from every device, so it stops at 128 users.
WALKED_USERS = [(users, False) for users in (1, 2, 3, 10, 20, 50, 128, 4998, 4999, 5000, 6000)
                ] + [(users, True) for users in (1, 2, 3, 10, 20, 50, 128)]
# every tunable of the shape its own value, so that a column reading the
# wrong one shows
DISTINCT = Calibration(
    fiber_bandwidth_bps=2.5e9, fiber_fixed_latency_s=1e-5, wan_bandwidth_bps=3e8,
    wan_fixed_latency_s=0.02, pon_length_m=123.0, edge_cloud_length_m=70_000.0,
    baseline_olt_edge_length_m=250.0, cloud_mips=3e6, device_mips=1_500.0, onu_mips=2_500.0,
    edge_cores=3, cloud_cores=4, edge_ram_mb=50_000.0, edge_storage_mb=2e6,
    small_node_ram_mb=512.0, small_node_storage_mb=8_192.0, edge_weight=0.7, cloud_weight=3.0,
    far_edge_weight=2.5)


@pytest.mark.parametrize("preset", ["genio", "baseline"])
def test_closed_form_routes_equal_the_tree_walk(preset):
    # every shape column and node id of the closed form against the oracle's
    for (users, far_edge), base in itertools.product(WALKED_USERS,
                                                     (DEFAULT_CALIBRATION, DISTINCT)):
        calibration = replace(base, far_edge_execution=far_edge)
        # the oracle's tree: connected, with one cloud, each device attached
        # to its ONU by one Local link
        nodes, links = preset_tree(preset, users)
        assert len(links) == len(nodes) - 1
        layers = dict(nodes)
        parents = tree(list(layers), links)
        assert [parent for parent, _, _ in parents.values()].count("") == 1
        assert list(layers.values()).count("cloud") == 1
        attached = {node_id: [] for node_id in layers}
        for link in links:
            attached[link.a].append((link.b, link))
            attached[link.b].append((link.a, link))
        assert list(layers.values()).count("device") == users
        for node_id, layer in layers.items():
            if layer == "device":
                ((other, link),) = attached[node_id]
                assert link.kind == "local" and layers[other] == "onu"

        shape = preset_shape.__wrapped__(preset, users, calibration)
        node_ids, walked = walked_shape(preset, users, calibration)
        assert list(shape.node_ids) == node_ids
        assert shape.columns.keys() == walked.keys()
        for name, column in walked.items():
            assert shape.columns[name] == column, (users, far_edge, name)
        assert len(shape.columns["candidate_nodes"]) == (2 + 1 + users if far_edge else 2)


def _route(preset, device, node_id):
    """The hops of a device's route to a candidate in the default e-health shape."""
    shape = preset_shape(preset, E_HEALTH_USERS, DEFAULT_CALIBRATION)
    columns = shape.columns
    slots = [shape.node_ids[node] for node in columns["candidate_nodes"]]
    route = device * len(slots) + slots.index(node_id)
    return columns["route_hops"][columns["route_start"][route]:
                                 columns["route_start"][route + 1]].tolist()


def test_route_device_to_edge_genio():
    # up ONU 0's fiber (link 10); the OLT reaches the edge server by a Local link
    assert _route("genio", 0, "n0021-edge") == [2 * 10]


def test_route_device_to_cloud_genio_appends_wan():
    assert _route("genio", 0, "n0022-cloud") == [2 * 10, 2 * 21]
    assert WAN_50KM == (1e9, 50_000.0 / 2.0e8 + 10e-3)


def test_route_device_to_edge_baseline_crosses_wan():
    # the fiber, then the 100 m WAN hop of link 20
    assert _route("baseline", 3, "n0021-edge") == [2 * 13, 2 * 20]
    assert _link("baseline", 20) == (1e9, 100.0 / 2.0e8 + DEFAULT_CALIBRATION.wan_fixed_latency_s)


def test_route_symmetry():
    nodes, links = preset_tree("genio", E_HEALTH_USERS)
    parents = tree([node_id for node_id, _ in nodes], links)
    fwd = route_between(parents, "n0003-dev", "n0022-cloud")
    rev = route_between(parents, "n0022-cloud", "n0003-dev")
    assert [h.link_id for h in rev] == [h.link_id for h in fwd][::-1]
    assert [h.head for h in rev] == [h.tail for h in fwd][::-1]


def test_route_is_the_tree_path_between_any_two_nodes():
    nodes, links = preset_tree("baseline", E_HEALTH_USERS)
    ids = [node_id for node_id, _ in nodes]
    parents = tree(ids, links)
    for src in ids:
        for dst in ids:
            route = route_between(parents, src, dst)
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
                           routes=[[[0]]], arrival_time=[starts[i] for i in order],
                           request_bits=size_bits)
    uplink_done = pykernel.run(inputs).uplink_done
    done = [0.0] * len(starts)
    for rank, task in enumerate(order):
        done[task] = uplink_done[rank]
    return done


def test_uncontended_transfer_matches_analytic_time():
    size_kb = 321.5
    start = 2.25
    (completed,) = drive_pool(1e9, [start], size_kb * BITS_PER_KB, WAN_50KM[1])
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
        link_bandwidth=[2.0], link_hop_delay=[0.0],
        routes=[[[0], [0]], [[1], [1]]], arrival_time=[0.5, 1.0], arrival_device=[0, 1],
        request_bits=2e-17, result_bits=1e-17, task_ram_mb=0.0, task_storage_mb=0.0,
        strategy=STRATEGY_ROUND_ROBIN, collect_trace=True)
    out = pykernel.run(inputs)
    assert out.exec_end[0] == 1.0 and out.uplink_done[1] == out.delivered_at[0] == 1.0
    transfers = [(task, leg) for time, _, kind, task, leg in zip(*out.trace)
                 if kind == TR_TRANSFER_COMPLETE and time == 1.0]
    assert transfers == [(1, 0), (0, 1)]
