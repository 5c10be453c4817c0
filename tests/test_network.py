"""Link math, routing, and the fair-share transfer model against a fluid oracle."""

import heapq
import random

import pytest

from ponedge.config import topology_preset
from ponedge.engine import SimulationError
from ponedge.network import (BITS_PER_KB, ConfigurationError, FairSharePool,
                             LinkKind, LinkSpec, route_between, single_transfer_time,
                             transfer_schedule)
from ponedge.workload import scenario_preset

FIBER = LinkSpec(LinkKind.FIBER, 1e9, 100.0, 0.0)
WAN_50KM = LinkSpec(LinkKind.WAN, 1e9, 50_000.0, 10e-3)
LOCAL = LinkSpec(LinkKind.LOCAL, 0.0, 0.0, 0.0)


def test_single_transfer_time_fiber_1kb():
    # 8000 bits / 1 Gbps + 100 m / 2e8 m/s = 8e-6 + 5e-7
    assert single_transfer_time(1.0, FIBER) == pytest.approx(8.5e-6, rel=1e-12)


def test_single_transfer_time_empty_payload_wan():
    # propagation 2.5e-4 plus the 10 ms one-way latency
    assert single_transfer_time(0.0, WAN_50KM) == pytest.approx(1.025e-2, rel=1e-12)


def test_local_links_cost_nothing():
    for size in (0.0, 1.0, 5000.0):
        assert single_transfer_time(size, LOCAL) == 0.0


def test_link_invariants():
    with pytest.raises(ConfigurationError):
        LinkSpec(LinkKind.FIBER, 0.0, 100.0, 0.0)
    with pytest.raises(ConfigurationError):
        LinkSpec(LinkKind.WAN, 1e9, -1.0, 0.0)


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


def test_route_unknown_node():
    topo = topology_preset("genio", scenario_preset("e-health"), 220_000)
    with pytest.raises(ConfigurationError):
        route_between(topo, "n0000-dev", "nowhere")


def test_route_unreachable_node():
    topo = topology_preset("genio", scenario_preset("e-health"), 220_000)
    cut = type(topo)(preset="genio", nodes=topo.nodes, links=topo.links[:-1])
    for src, dst in (("n0000-dev", "n0022-cloud"), ("n0022-cloud", "n0000-dev")):
        with pytest.raises(ConfigurationError, match="no path"):
            route_between(cut, src, dst)


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


def drive_pool(bandwidth_bps, transfers, hop_const=0.0):
    """Tiny event loop around FairSharePool: the kernel's serialization logic.

    Like the kernel, it keeps one pending completion for the link direction,
    numbered as if every member had been given its own event.
    """
    pool = FairSharePool(bandwidth_bps)
    heap = []
    seq = 0
    pending = -1  # seq of the live completion event
    done = {}

    def schedule(completion):
        nonlocal seq, pending
        if completion is None:
            return
        token, eta, rank, count = completion
        pending = seq + rank
        heapq.heappush(heap, (eta, pending, "ser-end", token))
        seq += count

    for idx, (start, _bits) in enumerate(transfers):
        heapq.heappush(heap, (start, seq, "join", idx))
        seq += 1
    while heap:
        time, ev_seq, kind, token = heapq.heappop(heap)
        if kind == "join":
            schedule(pool.join(time, token, transfers[token][1]))
        elif ev_seq == pending:
            schedule(pool.leave(time, token))
            done[token] = time + hop_const
    return [done[i] for i in range(len(transfers))]


def test_uncontended_transfer_matches_analytic_time():
    size_kb = 321.5
    start = 2.25
    hop_const = WAN_50KM.length_m / 2.0e8 + WAN_50KM.fixed_latency_s
    (completed,) = drive_pool(1e9, [(start, size_kb * BITS_PER_KB)], hop_const)
    assert abs(completed - (start + single_transfer_time(size_kb, WAN_50KM))) < 1e-12


def test_two_simultaneous_transfers_double_serialization():
    bits = 5000.0 * BITS_PER_KB  # 0.04 s alone on 1 Gbps
    prop = 100.0 / 2.0e8
    done = drive_pool(1e9, [(0.0, bits), (0.0, bits)], hop_const=prop)
    for completion in done:
        assert completion == pytest.approx(2 * 0.04 + prop, rel=1e-9)


def test_n_identical_transfers_finish_together():
    bits = 750.0 * BITS_PER_KB
    for n in (2, 3, 7):
        done = drive_pool(1e9, [(0.0, bits)] * n)
        expected = n * bits / 1e9
        for completion in done:
            assert completion == pytest.approx(expected, rel=1e-9)


def test_staggered_transfers_match_fluid_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        transfers = [
            (rng.random() * 0.05, (rng.random() * 4000 + 1) * BITS_PER_KB)
            for _ in range(n)
        ]
        got = drive_pool(1e9, transfers)
        want = transfer_schedule(1e9, transfers)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-6)


def test_pool_accounting_by_hand():
    # 1 KB alone for 1 us (1000 bits drained), then an equal joiner halves the
    # rate; when the first leaves, the second must hold exactly the leftovers
    pool = FairSharePool(1e9)
    assert pool.join(0.0, 1, 8000.0) == (1, 8e-6, 0, 1)
    token, eta, rank, count = pool.join(1e-6, 2, 8000.0)
    assert (token, rank, count) == (1, 0, 2)
    assert eta == pytest.approx(1e-6 + 7000.0 / 0.5e9, rel=1e-12)
    assert pool.tokens == [1, 2]
    assert pool.remaining == [pytest.approx(7000.0, rel=1e-9), 8000.0]
    token, eta, rank, count = pool.leave(eta, 1)
    assert (token, rank, count) == (2, 0, 1)
    assert pool.remaining == [pytest.approx(1000.0, rel=1e-9)]
    assert eta == pytest.approx(1.6e-5, rel=1e-9)
    assert pool.leave(eta, 2) is None


def test_pool_eta_ties_go_to_the_earliest_joiner():
    # both etas round to exactly 1.0 although the first joiner has more bits
    # left, so the minimum must be taken over etas, not over remaining bits
    pool = FairSharePool(2.0)
    pool.join(1.0, 7, 2e-17)
    assert pool.join(1.0, 8, 1e-17) == (7, 1.0, 0, 2)


def test_pool_rejects_duplicate_token():
    pool = FairSharePool(1e9)
    pool.join(0.0, 1, 8000.0)
    with pytest.raises(SimulationError):
        pool.join(0.0, 1, 8000.0)
