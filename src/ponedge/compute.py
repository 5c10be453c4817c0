"""Node compute model: MIPS-rated execution, per-core FIFO queues, admission."""

from __future__ import annotations

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
        if self.mips <= 0:
            raise ConfigurationError(f"node {self.id}: mips must be > 0")

    @property
    def mips_per_core(self) -> float:
        return self.mips / self.cores


class NodeState:
    """Runtime queues and accounting for one compute node.

    Non-preemptive FIFO per core; an incoming task goes to the core that
    frees up earliest (ties to the lowest core index), so execution time is
    always exactly length / mips_per_core.
    """

    def __init__(self, spec: NodeSpec):
        self.spec = spec
        self.core_free_at = [0.0] * spec.cores
        self.queued_and_running = 0
        self.reserved_ram_mb = 0.0
        self.reserved_storage_mb = 0.0

    def admit(self, ram_mb: float, storage_mb: float) -> str | None:
        """None when the footprint fits the remaining capacity, else the reason."""
        if ram_mb > self.spec.ram_mb - self.reserved_ram_mb:
            return "ram"
        if storage_mb > self.spec.storage_mb - self.reserved_storage_mb:
            return "storage"
        return None

    def reserve(self, ram_mb: float, storage_mb: float) -> None:
        self.reserved_ram_mb += ram_mb
        self.reserved_storage_mb += storage_mb

    def release(self, ram_mb: float, storage_mb: float) -> None:
        self.reserved_ram_mb -= ram_mb
        self.reserved_storage_mb -= storage_mb

    def submit(self, length_mi: float, now: float) -> tuple[float, float]:
        """Queue a task; returns (exec_start, exec_end)."""
        core = 0
        free_at = self.core_free_at[0]
        for idx in range(1, len(self.core_free_at)):
            if self.core_free_at[idx] < free_at:
                core = idx
                free_at = self.core_free_at[idx]
        exec_start = now if now > free_at else free_at
        exec_end = exec_start + length_mi / self.spec.mips_per_core
        self.core_free_at[core] = exec_end
        self.queued_and_running += 1
        return exec_start, exec_end

    def complete(self) -> None:
        self.queued_and_running -= 1
