"""Reference oracles for tests: the general tree walk the preset routes are
checked against, and a fluid model of one fair-share link direction."""

import math
from array import array
from typing import NamedTuple

from ponedge.config import device_node_id, eligible_nodes, preset_shape
from ponedge.network import LinkKind


class Hop(NamedTuple):
    link_id: int
    head: str  # node the message leaves
    tail: str  # node the message reaches


def tree(topology) -> dict[str, tuple[str, int, int]]:
    """Each node's (parent, link to the parent, depth).

    Every connected component is rooted at its first listed node, whose
    parent is "" over link -1 at depth 0.
    """
    adjacency: dict[str, list[tuple[str, int]]] = {node.id: [] for node in topology.nodes}
    for link in topology.links:
        adjacency[link.a].append((link.b, link.id))
        adjacency[link.b].append((link.a, link.id))
    parents: dict[str, tuple[str, int, int]] = {}
    for root in topology.nodes:
        if root.id in parents:
            continue
        parents[root.id] = ("", -1, 0)
        stack = [root.id]
        while stack:
            node = stack.pop()
            depth = parents[node][2] + 1
            for neighbor, link_id in adjacency[node]:
                if neighbor not in parents:
                    parents[neighbor] = (node, link_id, depth)
                    stack.append(neighbor)
    return parents


def route_between(topology, src: str, dst: str, parents=None) -> tuple[Hop, ...]:
    """Unique path between two nodes of a tree: both endpoints climb the
    rooted tree to their common ancestor."""
    parents = tree(topology) if parents is None else parents
    up: list[Hop] = []  # src towards the common ancestor
    down: list[Hop] = []  # dst towards the common ancestor, reversed at the end
    a, b = src, dst
    while a != b:
        a_parent, a_link, a_depth = parents[a]
        b_parent, b_link, b_depth = parents[b]
        assert a_depth or b_depth, f"no path between {src!r} and {dst!r}"
        if a_depth >= b_depth:
            up.append(Hop(link_id=a_link, head=a, tail=a_parent))
            a = a_parent
        else:
            down.append(Hop(link_id=b_link, head=b_parent, tail=b))
            b = b_parent
    down.reverse()
    return tuple(up + down)


def walked_route_columns(preset: str, users: int, calibration) -> dict[str, array]:
    """The route columns of one preset_shape, found by walking its tree from
    every device to every candidate: Local hops left out, a hop coded as
    2 * link + direction (0 from the link's `a` to its `b`), and route ids in
    order of first appearance."""
    topo = preset_shape(preset, users, calibration)
    parents = tree(topo)
    links = {link.id: link for link in topo.links}
    candidate_ids = eligible_nodes(topo.nodes, calibration.far_edge_execution)
    route_ids: dict[tuple[int, ...], int] = {}
    route_start = array("i", [0])
    route_hops = array("i")
    up_route = array("i")
    for device in range(users):
        for target_id in candidate_ids:
            key = tuple(hop.link_id * 2 + (hop.head != links[hop.link_id].a)
                        for hop in route_between(topo, device_node_id(device), target_id, parents)
                        if links[hop.link_id].spec.kind is not LinkKind.LOCAL)
            if key not in route_ids:
                route_ids[key] = len(route_start) - 1
                route_hops.extend(key)
                route_start.append(len(route_hops))
            up_route.append(route_ids[key])
    return dict(route_start=route_start, route_hops=route_hops, up_route=up_route)


def transfer_schedule(bandwidth_bps: float, transfers: list[tuple[float, float]]) -> list[float]:
    """Independent fluid oracle for fair sharing on one link direction.

    Takes (start_time, size_bits) per transfer and integrates the
    processor-sharing fluid model over the piecewise-constant rate intervals,
    without any event queue. Keep it free of the kernel's internals.
    """
    remaining = [math.inf] * len(transfers)
    done = [math.inf] * len(transfers)
    pending = sorted(range(len(transfers)), key=lambda i: (transfers[i][0], i))
    active: list[int] = []
    t = 0.0
    k = 0
    while k < len(pending) or active:
        next_start = transfers[pending[k]][0] if k < len(pending) else math.inf
        if active:
            rate = bandwidth_bps / len(active)
            first_done = min(remaining[i] for i in active) / rate + t
        else:
            first_done = math.inf
        if next_start <= first_done:
            dt = next_start - t
            if active:
                rate = bandwidth_bps / len(active)
                for i in active:
                    remaining[i] -= rate * dt
            idx = pending[k]
            remaining[idx] = transfers[idx][1]
            active.append(idx)
            t = next_start
            k += 1
        else:
            dt = first_done - t
            rate = bandwidth_bps / len(active)
            for i in active:
                remaining[i] -= rate * dt
            t = first_done
            finished = [i for i in active if remaining[i] <= 1e-6]
            for i in finished:
                done[i] = t
                active.remove(i)
    return done
