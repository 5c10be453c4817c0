"""Typed link model, tree-topology routing, and fair-share transfer math."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .engine import SimulationError

# Speed of light in fiber (refractive index ~1.5): 100 m ~ 0.5 us, 50 km ~ 0.25 ms.
PROPAGATION_SPEED_M_S = 2.0e8

# 1 KB = 1000 bytes = 8000 bits (decimal interpretation, see config reference).
BITS_PER_KB = 8000.0


class LinkKind(Enum):
    FIBER = "fiber"
    MAN = "man"
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

    Raises ConfigurationError when either endpoint is unknown or unreachable.
    """
    adjacency = topology.adjacency()
    if src not in adjacency or dst not in adjacency:
        missing = src if src not in adjacency else dst
        raise ConfigurationError(f"unknown node id {missing!r}")
    if src == dst:
        return ()
    # BFS parent walk; the topology is a tree so the path found is the path.
    parents: dict[str, tuple[str, int]] = {src: ("", -1)}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor, link_id in adjacency[node]:
                if neighbor not in parents:
                    parents[neighbor] = (node, link_id)
                    nxt.append(neighbor)
        if dst in parents:
            break
        frontier = nxt
    if dst not in parents:
        raise ConfigurationError(f"no path between {src!r} and {dst!r}")
    hops = []
    node = dst
    while node != src:
        prev, link_id = parents[node]
        hops.append(Hop(link_id=link_id, head=prev, tail=node))
        node = prev
    hops.reverse()
    return tuple(hops)


class FairSharePool:
    """Equal-share serialization on one link direction.

    Concurrent transfers each get bandwidth/N; shares are recomputed whenever
    a transfer joins or finishes. join/leave return only the next completion,
    as (token, eta, rank, count): the member whose serialization ends first
    (ties to the earliest joiner), its position in join order, and the member
    count. A caller that numbers one event per member can thus consume
    `count` sequence numbers and keep a single pending event at `rank`.
    """

    def __init__(self, bandwidth_bps: float):
        self.bandwidth_bps = bandwidth_bps
        self.tokens: list[int] = []  # members in join order
        self.remaining: list[float] = []  # bits left, index-aligned with tokens
        self.last_update = 0.0

    def _advance(self, now: float) -> None:
        if self.remaining:
            rate = self.bandwidth_bps / len(self.remaining)
            elapsed = now - self.last_update
            if elapsed > 0.0:
                drained = rate * elapsed
                self.remaining = [remaining - drained for remaining in self.remaining]
        self.last_update = now

    def _next_completion(self, now: float) -> tuple[int, float, int, int]:
        count = len(self.remaining)
        rate = self.bandwidth_bps / count
        if count == 1:
            return self.tokens[0], now + self.remaining[0] / rate, 0, 1
        # the minimum over computed etas, not over remaining bits: rounding can
        # tie two etas whose remaining bits differ, and the tie goes to rank
        etas = [now + remaining / rate for remaining in self.remaining]
        eta = min(etas)
        rank = etas.index(eta)
        return self.tokens[rank], eta, rank, count

    def join(self, now: float, token: int, size_bits: float) -> tuple[int, float, int, int]:
        if not self.tokens:  # an idle link: the transfer gets the whole bandwidth
            self.tokens.append(token)
            self.remaining.append(size_bits)
            self.last_update = now
            return token, now + size_bits / self.bandwidth_bps, 0, 1
        if token in self.tokens:
            raise SimulationError(f"transfer token {token} already on link")
        self._advance(now)
        self.tokens.append(token)
        self.remaining.append(size_bits)
        return self._next_completion(now)

    def leave(self, now: float, token: int) -> tuple[int, float, int, int] | None:
        """Next completion after `token` finishes; None when the link goes idle."""
        rank = self.tokens.index(token)
        if len(self.tokens) == 1:  # the link goes idle: nothing left to drain
            self.last_update = now
        else:
            self._advance(now)
        del self.tokens[rank]
        del self.remaining[rank]
        return self._next_completion(now) if self.tokens else None


def transfer_schedule(bandwidth_bps: float, transfers: list[tuple[float, float]]) -> list[float]:
    """Independent fluid oracle for fair sharing on one link direction.

    Takes (start_time, size_bits) per transfer and integrates the
    processor-sharing fluid model over the piecewise-constant rate intervals,
    without any event queue. Used by tests to cross-check the event-driven
    path; keep it free of FairSharePool internals.
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
