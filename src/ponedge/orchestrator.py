"""Task placement: candidate filtering by architecture preset, TRADE_OFF scoring."""

from __future__ import annotations

from dataclasses import dataclass

from .compute import NodeLayer
from .network import ConfigurationError

# Layer weights bias placement toward the in-office edge server. The cloud
# weight sits just above cloud_mips / min(edge grid MIPS) = 1e6 / 43000, so an
# idle edge server wins over the idle cloud for every simulated CPU and the
# cloud only absorbs overflow once the edge queue has grown.
DEFAULT_LAYER_WEIGHTS = {
    NodeLayer.EDGE_SERVER: 1.0,
    NodeLayer.CLOUD: 25.0,
    NodeLayer.FAR_EDGE_DEVICE: 1.3,
    NodeLayer.ONU: 1.3,
}

STRATEGIES = ("trade-off", "round-robin")


@dataclass(frozen=True)
class ArchitecturePreset:
    name: str
    eligible_layers: frozenset[NodeLayer]
    description: str = ""

    def __post_init__(self):
        if NodeLayer.EDGE_SERVER not in self.eligible_layers or NodeLayer.CLOUD not in self.eligible_layers:
            raise ConfigurationError(
                f"preset {self.name}: edge-server and cloud layers are always eligible"
            )


def architecture_preset(name: str, far_edge_execution: bool = False) -> ArchitecturePreset:
    if name not in ("genio", "baseline"):
        raise ConfigurationError(f"unknown topology preset {name!r} (valid: genio, baseline)")
    layers = {NodeLayer.EDGE_SERVER, NodeLayer.CLOUD}
    if far_edge_execution:
        layers.add(NodeLayer.ONU)
    description = (
        "edge server co-located with the OLT in the central office"
        if name == "genio"
        else "edge server behind a WAN hop from the OLT"
    )
    return ArchitecturePreset(name, frozenset(layers), description)


@dataclass(frozen=True)
class CandidateView:
    """What the scheduler sees of one candidate node at decision time."""

    node_id: str
    layer_weight: float
    mips_per_core: float
    queued_and_running: int


@dataclass(frozen=True)
class PlacementDecision:
    task_id: int
    node_id: str
    score: float
    breakdown: tuple[tuple[str, float], ...]  # every candidate's score


class NoPlacementError(Exception):
    """No candidate admitted the task."""


def eligible_nodes(preset: ArchitecturePreset, node_specs) -> list[str]:
    """Ids of all nodes in the preset's eligible layers, in id order."""
    return sorted(spec.id for spec in node_specs if spec.layer in preset.eligible_layers)


def trade_off_score(view: CandidateView, length_mi: float) -> float:
    return (view.queued_and_running + 1) * view.layer_weight * length_mi / view.mips_per_core


def trade_off_select(task_id: int, length_mi: float,
                     views: list[CandidateView]) -> PlacementDecision:
    """Pick the candidate with the lowest load/capacity trade-off score.

    score(n) = (queued_and_running + 1) * layer_weight * length / mips_per_core,
    ties broken by lowest node id (views must arrive id-sorted).
    """
    if not views:
        raise NoPlacementError(f"task {task_id}: empty candidate set")
    breakdown = []
    best = None
    best_score = 0.0
    for view in views:
        score = trade_off_score(view, length_mi)
        breakdown.append((view.node_id, score))
        if best is None or score < best_score or (score == best_score and view.node_id < best):
            best = view.node_id
            best_score = score
    return PlacementDecision(task_id, best, best_score, tuple(breakdown))


class RoundRobinSelector:
    """Cycles the preset's candidate ids in order, one step per placement.

    Candidates rejected by admission are skipped and the cycle continues from
    the next position.
    """

    def __init__(self, all_node_ids: list[str]):
        self.order = sorted(all_node_ids)
        self._next = 0

    def select(self, task_id: int, admitted: set[str]) -> PlacementDecision:
        if not admitted:
            raise NoPlacementError(f"task {task_id}: empty candidate set")
        n = len(self.order)
        for step in range(n):
            node_id = self.order[(self._next + step) % n]
            if node_id in admitted:
                self._next = (self._next + step + 1) % n
                return PlacementDecision(task_id, node_id, 0.0, ((node_id, 0.0),))
        raise NoPlacementError(f"task {task_id}: no admitted candidate in cycle")
