"""Application scenario presets and seeded task-arrival generation.

Each device draws its arrivals from its own Stream, a SplitMix64 generator
seeded from (seed, label); the C library's arrival draw continues a Stream
from its state.
"""

from __future__ import annotations

import math
import re

from .network import ConfigurationError, Record, check_number

# A scenario's name becomes a directory of its cells, so it is one plain path
# component: no separator, and no leading dot.
SCENARIO_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
# The files `compare` writes at the out-dir root, beside the scenario
# directories: the comparison table and the plot data. No scenario takes
# their names, in any letter case, since a file system may not tell cases apart.
OUT_DIR_FILES = ("comparison.csv", "plot_data.csv")
# The C kernel counts a run's tasks in a C int, and the trace's task column
# holds 32-bit integers on both kernels.
MAX_TASKS = 2**31 - 1


class ScenarioSpec(Record):
    """One application workload: who generates tasks, how often, how heavy."""

    name: str
    users: int
    rate_per_min: float  # tasks per minute per user
    deadline_s: float  # maximum desired latency
    length_mi: float
    request_kb: float
    result_kb: float

    def __post_init__(self):
        if not isinstance(self.name, str) or not SCENARIO_NAME.fullmatch(self.name):
            raise ConfigurationError(
                f"scenario name {self.name!r} must match {SCENARIO_NAME.pattern}")
        if self.name.lower() in OUT_DIR_FILES:
            raise ConfigurationError(
                f"scenario name {self.name!r} is a results file at the out-dir root")
        for fname in ("users", "rate_per_min", "deadline_s", "length_mi", "request_kb", "result_kb"):
            check_number(f"scenario {self.name}: {fname}", getattr(self, fname),
                         integer=fname == "users")

    @property
    def interval_s(self) -> float:
        """Mean seconds between two tasks of one user."""
        return 60.0 / self.rate_per_min


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


def check_arrivals(spec: ScenarioSpec, duration_s: float, mode: str) -> None:
    """Raise the ConfigurationError of an arrival process that cannot be drawn,
    or whose expected task count exceeds MAX_TASKS."""
    check_number("duration", duration_s)
    if mode not in ARRIVAL_MODES:
        raise ConfigurationError(f"unknown arrival mode {mode!r} (valid: poisson, fixed)")
    expected = spec.users * duration_s / spec.interval_s
    if expected > MAX_TASKS:
        raise ConfigurationError(
            f"scenario {spec.name}: {expected:.4g} expected tasks over {duration_s:g} s "
            f"exceed the limit of {MAX_TASKS}")


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
    `state` is the generator's whole state: the C library's arrival draw
    continues a stream from it.
    """

    def __init__(self, seed: int, label: str):
        self.state = (_fnv1a64(label) ^ ((seed * _GOLDEN) & _MASK64)) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def exponential(self, mean: float) -> float:
        return -mean * math.log1p(-self.uniform())


def arrival_streams(spec: ScenarioSpec, seed: int) -> list[Stream]:
    """Device d's arrival stream at index d, each under its own label."""
    return [Stream(seed, f"arrivals/{spec.name}/{device}") for device in range(spec.users)]


def generate_arrivals(spec: ScenarioSpec, duration_s: float, seed: int,
                      mode: str = "poisson") -> tuple[tuple[float, ...], tuple[int, ...]]:
    """One arrival process per device, merged and sorted by (time, device).

    poisson: per-device exponential inter-arrivals with mean 60/rate seconds.
    fixed: exact 60/rate spacing with a per-device phase drawn once from
    [0, 60/rate). Each device consumes its own named stream, so the draw
    sequence of one device never shifts another's. Returns the columns
    (times, devices): task i arrives at times[i] from device devices[i].
    This is the reference; the C library's draw is its mirror.
    """
    check_arrivals(spec, duration_s, mode)
    interval = spec.interval_s
    times: list[tuple[float, int]] = []
    for device, stream in enumerate(arrival_streams(spec, seed)):
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
