"""Reference oracles for tests: each preset's tree built from its documented
numbering, the general tree walk its columns are checked against, and a fluid
model of one fair-share link direction."""

import math
from array import array
from typing import NamedTuple

PROPAGATION_SPEED_M_S = 2.0e8


class Link(NamedTuple):
    id: int
    a: str  # the end nearer the devices
    b: str
    kind: str  # "local", "fiber" or "wan"


class Hop(NamedTuple):
    link_id: int
    head: str  # node the message leaves
    tail: str  # node the message reaches


def preset_tree(preset: str, users: int) -> tuple[list[tuple[str, str]], list[Link]]:
    """The nodes, as (id, layer), and the links of one preset for `users`
    devices, numbered as config.preset_shape documents: device d is node d and
    its ONU node u + d, then the OLT, the edge server and the cloud; link d
    joins device d to its ONU, link u + d that ONU to the OLT, then the OLT to
    the edge server (Local on genio, WAN on baseline) and the edge server to
    the cloud."""
    layers = ["device"] * users + ["onu"] * users + ["olt", "edge", "cloud"]
    ids = [f"n{node:04d}-{'dev' if layer == 'device' else layer}"
           for node, layer in enumerate(layers)]
    olt, edge, cloud = ids[2 * users:]
    links = [Link(d, ids[d], ids[users + d], "local") for d in range(users)]
    links += [Link(users + d, ids[users + d], olt, "fiber") for d in range(users)]
    links.append(Link(2 * users, olt, edge, "local" if preset == "genio" else "wan"))
    links.append(Link(2 * users + 1, edge, cloud, "wan"))
    return list(zip(ids, layers)), links


def tree(node_ids, links) -> dict[str, tuple[str, int, int]]:
    """Each node's (parent, link to the parent, depth).

    Every connected component is rooted at its first listed node, whose
    parent is "" over link -1 at depth 0.
    """
    adjacency: dict[str, list[tuple[str, int]]] = {node_id: [] for node_id in node_ids}
    for link in links:
        adjacency[link.a].append((link.b, link.id))
        adjacency[link.b].append((link.a, link.id))
    parents: dict[str, tuple[str, int, int]] = {}
    for root in node_ids:
        if root in parents:
            continue
        parents[root] = ("", -1, 0)
        stack = [root]
        while stack:
            node = stack.pop()
            depth = parents[node][2] + 1
            for neighbor, link_id in adjacency[node]:
                if neighbor not in parents:
                    parents[neighbor] = (node, link_id, depth)
                    stack.append(neighbor)
    return parents


def route_between(parents, src: str, dst: str) -> tuple[Hop, ...]:
    """Unique path between two nodes of a tree: both endpoints climb the
    rooted tree to their common ancestor."""
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


def walked_shape(preset: str, users: int, calibration) -> tuple[list[str], dict[str, array]]:
    """The node ids and shape columns of one preset, from preset_tree and the
    calibration: per-node values by layer, the edge server's per-core MIPS 0;
    the candidates sorted by id; each link's bandwidth and delay by kind; and
    the routes found by walking the tree from every device to every
    candidate, Local hops left out, a hop coded as 2 * link + direction (0
    from the link's `a` to its `b`), route device * len(candidates) + slot
    from that device to that slot's candidate."""
    cal = calibration
    nodes, links = preset_tree(preset, users)
    node_ids = [node_id for node_id, _ in nodes]
    small = (cal.far_edge_weight, cal.small_node_ram_mb, cal.small_node_storage_mb)
    by_layer = {  # per-core MIPS, cores, weight, RAM and storage
        "device": (cal.device_mips, 1, *small),
        "onu": (cal.onu_mips, 1, *small),
        "olt": (cal.onu_mips, 1, *small),
        "edge": (0.0, cal.edge_cores, cal.edge_weight, cal.edge_ram_mb, cal.edge_storage_mb),
        "cloud": (cal.cloud_mips / cal.cloud_cores, cal.cloud_cores, cal.cloud_weight,
                  cal.edge_ram_mb, cal.edge_storage_mb),
    }
    eligible = {"edge", "cloud"} | ({"onu", "olt"} if cal.far_edge_execution else set())
    candidates = sorted(node_id for node_id, layer in nodes if layer in eligible)
    layer_of = dict(nodes)
    length = {"olt": cal.pon_length_m, "edge": cal.baseline_olt_edge_length_m,  # by link.b
              "cloud": cal.edge_cloud_length_m}
    columns = {name: array(code, [by_layer[layer][i] for _, layer in nodes])
               for i, (name, code) in enumerate((
                   ("mips_per_core", "d"), ("cores", "i"), ("weight", "d"),
                   ("ram_capacity", "d"), ("storage_capacity", "d")))}
    columns["candidate_nodes"] = array("i", [node_ids.index(node_id) for node_id in candidates])
    columns["link_bandwidth"] = array("d", [
        {"local": math.inf, "fiber": cal.fiber_bandwidth_bps, "wan": cal.wan_bandwidth_bps}[
            link.kind] for link in links])
    columns["link_hop_delay"] = array("d", [
        0.0 if link.kind == "local" else length[layer_of[link.b]] / PROPAGATION_SPEED_M_S
        + (cal.fiber_fixed_latency_s if link.kind == "fiber" else cal.wan_fixed_latency_s)
        for link in links])

    parents = tree(node_ids, links)
    route_start = array("i", [0])
    route_hops = array("i")
    for device in range(users):
        for target_id in candidates:
            route_hops.extend(hop.link_id * 2 + (hop.head != links[hop.link_id].a)
                              for hop in route_between(parents, node_ids[device], target_id)
                              if links[hop.link_id].kind != "local")
            route_start.append(len(route_hops))
    columns.update(route_start=route_start, route_hops=route_hops)
    return node_ids, columns


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
