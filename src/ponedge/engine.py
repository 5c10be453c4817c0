"""Deterministic discrete-event core: virtual clock, ordered event queue, seeded streams."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum


class SimulationError(Exception):
    """Fatal logic error inside a run (aborts the run with a diagnostic)."""


class EventKind(Enum):
    TASK_ARRIVAL = "TaskArrival"
    TRANSFER_COMPLETE = "TransferComplete"
    EXECUTION_START = "ExecutionStart"
    EXECUTION_COMPLETE = "ExecutionComplete"
    RESULT_DELIVERED = "ResultDelivered"
    SIMULATION_END = "SimulationEnd"


@dataclass(frozen=True)
class Event:
    """A processed domain event, as exposed in the optional trace dump.

    The payload set is closed: `kind` is always one of the six EventKind
    members, there are no dynamic event kinds.
    """

    time: float
    seq: int
    kind: EventKind
    subject: tuple[str, ...] = ()

    def trace_line(self) -> str:
        subject = " ".join(self.subject) if self.subject else "-"
        return f"{self.time:.17g}\t{self.seq}\t{self.kind.value}\t{subject}"


class EventQueue:
    """Priority queue ordered by (time, seq); seq is assigned at scheduling.

    Ties at equal time dequeue in scheduling order (stable FIFO), which makes
    the processing order independent of the heap implementation.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, object]] = []
        self._next_seq = 0
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, payload: object) -> int:
        if time < self.now:
            raise SimulationError(
                f"scheduled event at t={time!r} in the past (clock={self.now!r})"
            )
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (time, seq, payload))
        return seq

    def run_until(self, t_end: float, handler) -> int:
        """Process every queued event with time <= t_end in (time, seq) order.

        The handler is called as handler(time, seq, payload) and may schedule
        further events (including at the current time). Returns the number of
        processed events; the clock ends at exactly t_end.
        """
        if t_end < self.now:
            raise SimulationError(f"run_until({t_end!r}) behind clock {self.now!r}")
        processed = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            time, seq, payload = heapq.heappop(heap)
            self.now = time
            handler(time, seq, payload)
            processed += 1
        self.now = t_end
        return processed


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


def random_stream(seed: int, label: str) -> Stream:
    return Stream(seed, label)
