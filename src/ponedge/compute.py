"""Node descriptions: layer, MIPS rating, cores and capacity.

Execution, per-core FIFO queueing and admission run in the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .network import ConfigurationError

# A task needs at most this much while on a node; sized so that admission is a
# non-binding check on the default 32 GB / 1 TB edge servers.
DEFAULT_TASK_RAM_MB = 1.0
DEFAULT_TASK_STORAGE_MB = 100.0


class NodeLayer(Enum):
    FAR_EDGE_DEVICE = "far-edge-device"
    ONU = "onu"
    EDGE_SERVER = "edge-server"
    CLOUD = "cloud"


@dataclass(frozen=True)
class NodeSpec:
    id: str
    layer: NodeLayer
    mips: float  # whole-chip aggregate, Millions of Instructions Per Second
    cores: int = 1
    ram_mb: float = 32768.0
    storage_mb: float = 1048576.0

    def __post_init__(self):
        if self.cores < 1:
            raise ConfigurationError(f"node {self.id}: cores must be >= 1")
        if not 0 < self.mips < math.inf:
            raise ConfigurationError(f"node {self.id}: mips must be > 0 and finite")

    @property
    def mips_per_core(self) -> float:
        return self.mips / self.cores
