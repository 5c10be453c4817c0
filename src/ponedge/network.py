"""Typed link model: link kinds, their per-traversal delay, and the unit constants."""

from __future__ import annotations

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
