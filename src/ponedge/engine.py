"""The run-abort error and the seeded random streams; the event loop is in `_kernel`."""

from __future__ import annotations

import math


class SimulationError(Exception):
    """Fatal logic error inside a run (aborts the run with a diagnostic)."""


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Stream:
    """Independent deterministic random stream derived from (seed, label).

    SplitMix64 under the hood: the same (seed, label) always replays the same
    sequence, and different labels give streams that do not interact, so one
    module consuming more numbers cannot perturb another module's draws.
    """

    def __init__(self, seed: int, label: str):
        self.seed = seed
        self.label = label
        self._state = (_fnv1a64(label) ^ ((seed * _GOLDEN) & _MASK64)) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def exponential(self, mean: float) -> float:
        return -mean * math.log1p(-self.uniform())
