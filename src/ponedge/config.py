"""Experiment/topology configuration: JSON parsing, validation, presets."""

from __future__ import annotations

import json
import math
from array import array
from functools import lru_cache
from typing import NamedTuple

from .network import PROPAGATION_SPEED_M_S, ConfigurationError, Record, check_number, fields
from .workload import SCENARIOS, ScenarioSpec

TOPOLOGY_PRESETS = ("genio", "baseline")

DEFAULT_DURATION_S = 600.0
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
STRATEGIES = ("trade-off", "round-robin")
DEFAULT_STRATEGY = "trade-off"
DEFAULT_ARRIVALS = "poisson"

# Selected CPUs and their Dhrystone aggregate MIPS, with the scenarios each
# one is simulated for.
CPU_TABLE: tuple[tuple[str, float], ...] = (
    ("AMD Phenom II X4 955", 43_000),
    ("AMD FX 8320", 80_000),
    ("Intel Core i7-4710HQ", 123_000),
    ("Intel Core i7-3930K", 220_000),
    ("Intel Core i7 5960X", 300_000),
    ("Intel i7-1280P", 440_000),
    ("Intel i7-12800H", 500_000),
    ("Intel i7-13850HX", 620_000),
    ("Intel i9-13900", 700_000),
    ("Intel i7-13700K", 800_000),
    ("Intel i7-14700K", 1_000_000),
    ("Intel i9-14900KF", 1_200_000),
    ("AMD Ryzen 3990X", 2_350_000),
)

_SCENARIO_CPU_MIPS = {
    "smart-city": (43_000, 80_000, 123_000, 220_000, 300_000),
    "e-health": (220_000, 300_000, 440_000, 500_000, 620_000),
    "smart-building": (440_000, 500_000, 620_000, 700_000, 800_000),
    "aigc": (700_000, 800_000, 1_000_000, 1_200_000, 2_350_000),
}

_MIPS_TO_LABEL = {mips: label for label, mips in CPU_TABLE}


def cpu_grid(scenario_name: str) -> list[tuple[str, float]]:
    """The five CPUs simulated for a scenario, ascending MIPS."""
    if scenario_name not in _SCENARIO_CPU_MIPS:
        valid = ", ".join(sorted(_SCENARIO_CPU_MIPS))
        raise ConfigurationError(f"unknown scenario {scenario_name!r} (valid: {valid})")
    return [(_MIPS_TO_LABEL[m], float(m)) for m in _SCENARIO_CPU_MIPS[scenario_name]]


def mips_text(mips: float) -> str:
    """A MIPS rating as cell directories and custom labels write it: `%g` when
    that reads back as the same number, else all 17 significant digits, so
    that no two ratings share a text."""
    text = f"{mips:g}"
    return text if float(text) == mips else f"{mips:.17g}"


def cpu_label(mips: float) -> str:
    return _MIPS_TO_LABEL.get(mips, f"custom-{mips_text(mips)}")


# Calibration fields that may be 0: lengths, fixed latencies, the control
# delay and task footprints. Every other number must be greater than 0.
_MAY_BE_ZERO = frozenset({
    "fiber_fixed_latency_s", "wan_fixed_latency_s", "pon_length_m", "edge_cloud_length_m",
    "baseline_olt_edge_length_m", "task_ram_mb", "task_storage_mb", "control_plane_delay_s",
})
# The kernels hold core counts, the only integer fields, in a C int.
MAX_CORES = 2**31 - 1


class Calibration(Record):
    """Every tunable the presets rely on; ships with the acceptance defaults.

    Each field must have the type of its default, an int for a float field
    included, and a number must be finite and greater than 0, or 0 or more
    for the fields in _MAY_BE_ZERO. Core counts are at most MAX_CORES.
    """

    fiber_bandwidth_bps: float = 1e9
    fiber_fixed_latency_s: float = 0.0
    wan_bandwidth_bps: float = 1e9
    wan_fixed_latency_s: float = 10e-3
    pon_length_m: float = 100.0
    edge_cloud_length_m: float = 50_000.0
    baseline_olt_edge_length_m: float = 100.0
    cloud_mips: float = 1_000_000.0
    device_mips: float = 5_000.0
    onu_mips: float = 5_000.0
    edge_cores: int = 1
    cloud_cores: int = 1
    edge_ram_mb: float = 32_768.0
    edge_storage_mb: float = 1_048_576.0
    small_node_ram_mb: float = 1_024.0
    small_node_storage_mb: float = 16_384.0
    edge_weight: float = 1.0
    # just above cloud_mips / min(edge grid MIPS) = 1e6 / 43000, so an idle edge
    # server beats the idle cloud for every grid CPU and the cloud only absorbs
    # overflow once the edge queue has grown
    cloud_weight: float = 25.0
    far_edge_weight: float = 1.3
    # what a task needs while on a node; sized so that admission is a
    # non-binding check on the default 32 GB / 1 TB edge servers
    task_ram_mb: float = 1.0
    task_storage_mb: float = 100.0
    far_edge_execution: bool = False
    control_plane_delay_s: float = 0.0
    strict_deadline_tsr: bool = False

    def __post_init__(self):
        for name in fields(self):
            value = getattr(self, name)
            kind = type(getattr(Calibration, name))  # its default's
            if kind is not bool:
                check_number(f"calibration: {name}", value,
                             integer=kind is int, zero=name in _MAY_BE_ZERO)
                if kind is int and value > MAX_CORES:
                    raise ConfigurationError(f"calibration: {name} must be at most {MAX_CORES}")
            elif not isinstance(value, bool):
                raise ConfigurationError(
                    f"calibration: {name} must be true or false, not {value!r}")


DEFAULT_CALIBRATION = Calibration()


def check_topology(name: str) -> None:
    if name not in TOPOLOGY_PRESETS:
        raise ConfigurationError(f"unknown topology preset {name!r} (valid: genio, baseline)")


class Shape(NamedTuple):
    """One preset for a number of users: its node ids, and the KernelInputs
    columns every run on it shares."""

    node_ids: tuple[str, ...]
    columns: dict[str, array]


@lru_cache(maxsize=16)
def preset_shape(name: str, users: int, calibration: Calibration) -> Shape:
    """The tree of one preset for `users` devices, written once per shape and
    process.

    genio: device -Local- ONU -Fiber- OLT -Local- edge -WAN(50 km)- cloud.
    baseline: identical, except the edge server sits behind a WAN hop
    (100 m) from the OLT instead of the Local attachment.

    With u users, device d is node d and its ONU node u + d; the OLT, the
    edge server and the cloud are nodes 2u, 2u + 1 and 2u + 2. Link d
    attaches device d to its ONU, link u + d is that ONU's fiber to the OLT,
    link 2u joins the OLT to the edge server and link 2u + 1 the edge server
    to the cloud. Each link's `a` is its end nearer the devices.

    The placement candidates, in node id order, are the edge server and the
    cloud, plus the ONUs and the OLT under far-edge execution. A hop is
    2 * link + direction, direction 0 from the link's `a` to its `b`; Local
    links cost nothing and are left out. Device d goes up its fiber, on
    baseline then over the OLT's WAN hop to the edge server, and from there
    over the WAN link to the cloud. It reaches its own ONU with no hop, and
    another ONU up its fiber and down that ONU's. Route
    device * len(candidates) + slot is that device's route to that slot's
    candidate. The edge server's per-core MIPS is 0 here: each run sets its
    own.
    """
    check_topology(name)
    cal = calibration
    olt, edge, cloud = 2 * users, 2 * users + 1, 2 * users + 2
    kinds = ["dev"] * users + ["onu"] * users + ["olt", "edge", "cloud"]
    node_ids = tuple(f"n{node:04d}-{kind}" for node, kind in enumerate(kinds))
    candidates = [edge, cloud]
    if cal.far_edge_execution:
        candidates += range(users, olt + 1)
    candidates.sort(key=node_ids.__getitem__)
    to_edge = (4 * users,) if name == "baseline" else ()
    to_cloud = (*to_edge, 4 * users + 2)
    route_start = array("i", [0])
    route_hops = array("i")
    for device in range(users):
        up = 2 * (users + device)
        for node in candidates:
            if node == edge:
                hops = (up, *to_edge)
            elif node == cloud:
                hops = (up, *to_cloud)
            elif node == olt:
                hops = (up,)
            elif node == users + device:
                hops = ()
            else:  # another device's ONU
                hops = (up, 2 * node + 1)
            route_hops.extend(hops)
            route_start.append(len(route_hops))

    def wan(length_m: float) -> tuple[float, float]:
        return cal.wan_bandwidth_bps, length_m / PROPAGATION_SPEED_M_S + cal.wan_fixed_latency_s

    local = (math.inf, 0.0)  # bandwidth and hop delay
    fiber = (cal.fiber_bandwidth_bps,
             cal.pon_length_m / PROPAGATION_SPEED_M_S + cal.fiber_fixed_latency_s)
    links = ([local] * users + [fiber] * users
             + [local if name == "genio" else wan(cal.baseline_olt_edge_length_m),
                wan(cal.edge_cloud_length_m)])
    # The OLT forwards and the edge server computes: the OLT gets the ONUs'
    # numbers, and is a far-edge candidate with them.
    small = olt + 1  # the devices, the ONUs and the OLT
    return Shape(node_ids, dict(
        mips_per_core=array("d", [cal.device_mips] * users + [cal.onu_mips] * (users + 1)
                            + [0.0, cal.cloud_mips / cal.cloud_cores]),
        cores=array("i", [1] * small + [cal.edge_cores, cal.cloud_cores]),
        weight=array("d", [cal.far_edge_weight] * small + [cal.edge_weight, cal.cloud_weight]),
        ram_capacity=array("d", [cal.small_node_ram_mb] * small + [cal.edge_ram_mb] * 2),
        storage_capacity=array("d", [cal.small_node_storage_mb] * small
                               + [cal.edge_storage_mb] * 2),
        candidate_nodes=array("i", candidates),
        link_bandwidth=array("d", [bandwidth for bandwidth, _ in links]),
        link_hop_delay=array("d", [delay for _, delay in links]),
        route_start=route_start, route_hops=route_hops))


class ExperimentSpec(Record):
    """An experiment: what to run over which grid, with every default.

    parse_experiment checks a document's keys, shapes and names; each cell's
    RunParams checks its values.
    """

    scenarios: tuple[str, ...]
    topologies: tuple[str, ...] = ("genio",)  # read by `run` only
    # (label, mips), an empty label named by the cell; None -> per-scenario Table grid
    cpus: tuple[tuple[str, float], ...] | None = None
    # None -> DEFAULT_SEEDS for sweep and compare, seed 1 for run
    seeds: tuple[int, ...] | None = None
    duration_s: float = DEFAULT_DURATION_S
    strategy: str = DEFAULT_STRATEGY
    arrivals: str = DEFAULT_ARRIVALS
    calibration: Calibration = DEFAULT_CALIBRATION
    custom_scenarios: tuple[ScenarioSpec, ...] = ()

    def scenario_spec(self, name: str) -> ScenarioSpec:
        """The custom scenario or preset called `name`, else an error listing both kinds."""
        known = SCENARIOS | {spec.name: spec for spec in self.custom_scenarios}
        if name not in known:
            valid = ", ".join(sorted(known))
            raise ConfigurationError(f"unknown scenario {name!r} (valid: {valid})")
        return known[name]


_TOP_LEVEL_KEYS = {
    "scenario", "topology", "cpus", "seeds", "duration", "strategy", "arrivals",
    "calibration", "custom_scenarios",
}
_SCENARIO_KEYS = set(fields(ScenarioSpec))
_CALIBRATION_KEYS = set(fields(Calibration))


def parse_seeds(value) -> tuple[int, ...]:
    """The seeds of a list of integers, or of text: the range "a..b" or the
    list "a,b,..."; --seeds, PONEDGE_SEED and a document's seeds all read
    this grammar. No seed twice, since each seed names a cell."""
    if isinstance(value, str):
        lo, sep, hi = value.partition("..")
        try:
            seeds = list(range(int(lo), int(hi) + 1)) if sep else [int(n) for n in value.split(",")]
        except ValueError:
            raise ConfigurationError(
                f"seeds: cannot parse {value!r} (use e.g. \"1..5\" or \"1,2,3\")") from None
        if not seeds:
            raise ConfigurationError(f"seeds: empty range {value!r}")
        value = seeds
    if isinstance(value, list) and value and all(type(s) is int for s in value):  # no bool
        if len(set(value)) < len(value):
            raise ConfigurationError(f"seeds: {value} lists a seed twice")
        return tuple(value)
    raise ConfigurationError("seeds must be a non-empty list of integers or a range string")


def _as_name_list(value, key: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        if len(set(value)) < len(value):
            raise ConfigurationError(f"{key}: {value} lists a name twice")
        return tuple(value)
    raise ConfigurationError(f"{key} must be a name or a non-empty list of names")


def parse_experiment(document: str) -> ExperimentSpec:
    """Parse a JSON experiment document, filling defaults.

    Unknown keys are rejected so typos cannot silently fall back to defaults.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigurationError("experiment document must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "scenario" not in raw:
        raise ConfigurationError("missing required key: scenario")

    entries = raw.get("custom_scenarios", [])
    if not isinstance(entries, list):
        raise ConfigurationError("custom_scenarios must be a list")
    custom = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigurationError("custom_scenarios entries must be objects")
        unknown = set(entry) - _SCENARIO_KEYS
        if unknown:
            raise ConfigurationError(
                f"custom scenario: unknown key(s): {', '.join(sorted(unknown))}"
            )
        missing = _SCENARIO_KEYS - set(entry)
        if missing:
            raise ConfigurationError(
                f"custom scenario: missing key(s): {', '.join(sorted(missing))}"
            )
        custom.append(ScenarioSpec(**entry))
        if custom[-1].name in SCENARIOS:  # its cells would replace the preset's
            raise ConfigurationError(f"custom scenario {custom[-1].name!r} reuses a preset's name")
        if custom[-1].name in [spec.name for spec in custom[:-1]]:
            raise ConfigurationError(f"custom scenario {custom[-1].name!r} is defined twice")

    values = {"scenarios": _as_name_list(raw["scenario"], "scenario"),
              "custom_scenarios": tuple(custom)}
    named = ExperimentSpec(**values)
    for name in named.scenarios:
        named.scenario_spec(name)

    if "topology" in raw:
        values["topologies"] = _as_name_list(raw["topology"], "topology")
        for name in values["topologies"]:
            check_topology(name)

    if raw.get("cpus") is not None:
        if not isinstance(raw["cpus"], list) or not raw["cpus"]:
            raise ConfigurationError("cpus must be a non-empty list")
        parsed = []
        for entry in raw["cpus"]:
            if not isinstance(entry, dict):
                entry = {"mips": entry}
            if not set(entry) <= {"label", "mips"} or "mips" not in entry:
                raise ConfigurationError("cpus entries must be MIPS numbers or {label, mips}")
            check_number("cpus: mips", entry["mips"])
            label = entry.get("label", "")  # empty: the cell names it
            if not isinstance(label, str):
                raise ConfigurationError(f"cpus: label must be a string, not {label!r}")
            if entry["mips"] in [mips for _, mips in parsed]:
                raise ConfigurationError(f"cpus name {mips_text(entry['mips'])} MIPS twice")
            parsed.append((label, entry["mips"]))
        values["cpus"] = tuple(parsed)

    if "seeds" in raw:
        values["seeds"] = parse_seeds(raw["seeds"])
    for key, field in (("duration", "duration_s"), ("strategy", "strategy"),
                       ("arrivals", "arrivals")):
        if key in raw:
            values[field] = raw[key]

    cal_raw = raw.get("calibration", {})
    if not isinstance(cal_raw, dict):
        raise ConfigurationError("calibration must be an object")
    unknown = set(cal_raw) - _CALIBRATION_KEYS
    if unknown:
        raise ConfigurationError(f"calibration: unknown key(s): {', '.join(sorted(unknown))}")
    values["calibration"] = Calibration(**cal_raw)
    return ExperimentSpec(**values)
