"""Application scenario presets and seeded task-arrival generation."""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Stream
from .network import ConfigurationError


@dataclass(frozen=True)
class ScenarioSpec:
    """One application workload: who generates tasks, how often, how heavy."""

    name: str
    users: int
    rate_per_min: float  # tasks per minute per user
    deadline_s: float  # maximum desired latency
    length_mi: float
    request_kb: float
    result_kb: float

    def __post_init__(self):
        for fname in ("users", "rate_per_min", "deadline_s", "length_mi", "request_kb", "result_kb"):
            if not getattr(self, fname) > 0:
                raise ConfigurationError(f"scenario {self.name}: {fname} must be > 0")


SCENARIOS = {
    "smart-city": ScenarioSpec("smart-city", users=128, rate_per_min=2, deadline_s=0.5,
                               length_mi=500, request_kb=1, result_kb=10),
    "e-health": ScenarioSpec("e-health", users=10, rate_per_min=60, deadline_s=0.05,
                             length_mi=1000, request_kb=10, result_kb=10),
    "smart-building": ScenarioSpec("smart-building", users=20, rate_per_min=60, deadline_s=0.2,
                                   length_mi=5000, request_kb=750, result_kb=500),
    "aigc": ScenarioSpec("aigc", users=50, rate_per_min=20, deadline_s=0.5,
                         length_mi=48000, request_kb=5000, result_kb=2000),
}


def scenario_preset(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        valid = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(f"unknown scenario {name!r} (valid: {valid})") from None


ARRIVAL_MODES = ("poisson", "fixed")


def generate_arrivals(spec: ScenarioSpec, duration_s: float, seed: int,
                      mode: str = "poisson") -> tuple[tuple[float, ...], tuple[int, ...]]:
    """One arrival process per device, merged and sorted by (time, device).

    poisson: per-device exponential inter-arrivals with mean 60/rate seconds.
    fixed: exact 60/rate spacing with a per-device phase drawn once from
    [0, 60/rate). Each device consumes its own named stream, so the draw
    sequence of one device never shifts another's. Returns the columns
    (times, devices): task i arrives at times[i] from device devices[i].
    """
    if not duration_s > 0:
        raise ConfigurationError("duration must be positive")
    if mode not in ARRIVAL_MODES:
        raise ConfigurationError(f"unknown arrival mode {mode!r} (valid: poisson, fixed)")
    interval = 60.0 / spec.rate_per_min
    times: list[tuple[float, int]] = []
    for device in range(spec.users):
        stream = Stream(seed, f"arrivals/{spec.name}/{device}")
        if mode == "poisson":
            t = stream.exponential(interval)
            while t < duration_s:
                times.append((t, device))
                t += stream.exponential(interval)
        else:
            t = stream.uniform() * interval
            while t < duration_s:
                times.append((t, device))
                t += interval
    times.sort()
    return tuple(t for t, _ in times), tuple(device for _, device in times)
