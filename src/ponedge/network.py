"""Typed link model, tree-topology routing, and a fluid oracle for fair-share links."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Speed of light in fiber (refractive index ~1.5): 100 m ~ 0.5 us, 50 km ~ 0.25 ms.
PROPAGATION_SPEED_M_S = 2.0e8

# 1 KB = 1000 bytes = 8000 bits (decimal interpretation, see config reference).
BITS_PER_KB = 8000.0


class LinkKind(Enum):
    FIBER = "fiber"
    WAN = "wan"
    LOCAL = "local"


class ConfigurationError(Exception):
    """Invalid topology/scenario/experiment description."""


@dataclass(frozen=True)
class LinkSpec:
    kind: LinkKind
    bandwidth_bps: float  # ignored for LOCAL (zero-distance attachment)
    length_m: float
    fixed_latency_s: float = 0.0

    def __post_init__(self):
        if self.kind is not LinkKind.LOCAL and not self.bandwidth_bps > 0:
            raise ConfigurationError(f"{self.kind.value} link needs bandwidth > 0")
        if self.length_m < 0 or self.fixed_latency_s < 0:
            raise ConfigurationError("link length and fixed latency must be >= 0")

    @property
    def hop_delay_s(self) -> float:
        """Per-traversal constant part: propagation plus fixed latency."""
        if self.kind is LinkKind.LOCAL:
            return 0.0
        return self.length_m / PROPAGATION_SPEED_M_S + self.fixed_latency_s


@dataclass(frozen=True)
class Hop:
    link_id: int
    head: str  # node the message leaves
    tail: str  # node the message reaches


def single_transfer_time(size_kb: float, link: LinkSpec) -> float:
    """Uncontended one-way transfer time over a single link.

    serialization (size/bandwidth) + propagation (length/speed) + fixed
    latency. Local links attach at zero distance and cost nothing.
    """
    if link.kind is LinkKind.LOCAL:
        return 0.0
    return (
        size_kb * BITS_PER_KB / link.bandwidth_bps
        + link.length_m / PROPAGATION_SPEED_M_S
        + link.fixed_latency_s
    )


def route_between(topology, src: str, dst: str) -> tuple[Hop, ...]:
    """Unique path between two nodes of a tree-shaped topology.

    Both endpoints climb the topology's rooted tree to their common ancestor.
    Raises ConfigurationError when either endpoint is unknown or unreachable.
    """
    tree = topology.tree()
    if src not in tree or dst not in tree:
        missing = src if src not in tree else dst
        raise ConfigurationError(f"unknown node id {missing!r}")
    up: list[Hop] = []  # src towards the common ancestor
    down: list[Hop] = []  # dst towards the common ancestor, reversed at the end
    a, b = src, dst
    while a != b:
        a_parent, a_link, a_depth = tree[a]
        b_parent, b_link, b_depth = tree[b]
        if a_depth == b_depth == 0:  # two roots: different components
            raise ConfigurationError(f"no path between {src!r} and {dst!r}")
        if a_depth >= b_depth:
            up.append(Hop(link_id=a_link, head=a, tail=a_parent))
            a = a_parent
        else:
            down.append(Hop(link_id=b_link, head=b_parent, tail=b))
            b = b_parent
    down.reverse()
    return tuple(up + down)


def transfer_schedule(bandwidth_bps: float, transfers: list[tuple[float, float]]) -> list[float]:
    """Independent fluid oracle for fair sharing on one link direction.

    Takes (start_time, size_bits) per transfer and integrates the
    processor-sharing fluid model over the piecewise-constant rate intervals,
    without any event queue. Used by tests to cross-check the kernel's
    event-driven links; keep it free of the kernel's internals.
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
