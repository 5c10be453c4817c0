"""Experiment/topology configuration: JSON parsing, validation, presets."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from .compute import DEFAULT_TASK_RAM_MB, DEFAULT_TASK_STORAGE_MB, NodeLayer, NodeSpec
from .network import ConfigurationError, LinkKind, LinkSpec
from .workload import ARRIVAL_MODES, SCENARIOS, ScenarioSpec, scenario_preset

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


def cpu_label(mips: float) -> str:
    return _MIPS_TO_LABEL.get(mips, f"custom-{mips:g}")


def device_node_id(index: int) -> str:
    """Node id of the index-th far-edge device in a preset topology."""
    return f"n{index:04d}-dev"


@dataclass(frozen=True)
class Calibration:
    """Every tunable the presets rely on; ships with the acceptance defaults."""

    fiber_bandwidth_bps: float = 1e9
    fiber_fixed_latency_s: float = 0.0
    wan_bandwidth_bps: float = 1e9
    wan_fixed_latency_s: float = 10e-3
    man_bandwidth_bps: float = 1e9
    man_fixed_latency_s: float = 1e-3
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
    task_ram_mb: float = DEFAULT_TASK_RAM_MB
    task_storage_mb: float = DEFAULT_TASK_STORAGE_MB
    far_edge_execution: bool = False
    control_plane_delay_s: float = 0.0
    strict_deadline_tsr: bool = False

    def layer_weights(self) -> dict[NodeLayer, float]:
        return {
            NodeLayer.EDGE_SERVER: self.edge_weight,
            NodeLayer.CLOUD: self.cloud_weight,
            NodeLayer.FAR_EDGE_DEVICE: self.far_edge_weight,
            NodeLayer.ONU: self.far_edge_weight,
        }


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True)
class LinkRecord:
    id: int
    spec: LinkSpec
    a: str
    b: str


@dataclass
class TopologySpec:
    preset: str
    nodes: list[NodeSpec]
    links: list[LinkRecord]
    _adjacency: dict | None = field(default=None, repr=False, compare=False)
    _tree: dict | None = field(default=None, repr=False, compare=False)

    def node(self, node_id: str) -> NodeSpec:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise ConfigurationError(f"unknown node id {node_id!r}")

    def adjacency(self) -> dict[str, list[tuple[str, int]]]:
        if self._adjacency is None:
            adj: dict[str, list[tuple[str, int]]] = {n.id: [] for n in self.nodes}
            for link in self.links:
                adj[link.a].append((link.b, link.id))
                adj[link.b].append((link.a, link.id))
            self._adjacency = adj
        return self._adjacency

    def tree(self) -> dict[str, tuple[str, int, int]]:
        """Each node's (parent, link to the parent, depth).

        Every connected component is rooted at its first listed node, whose
        parent is "" over link -1 at depth 0.
        """
        if self._tree is None:
            adj = self.adjacency()
            tree: dict[str, tuple[str, int, int]] = {}
            for root in self.nodes:
                if root.id in tree:
                    continue
                tree[root.id] = ("", -1, 0)
                stack = [root.id]
                while stack:
                    node = stack.pop()
                    depth = tree[node][2] + 1
                    for neighbor, link_id in adj[node]:
                        if neighbor not in tree:
                            tree[neighbor] = (node, link_id, depth)
                            stack.append(neighbor)
            self._tree = tree
        return self._tree

    def validate(self) -> None:
        """Connected tree; devices hang off exactly one ONU via a Local link."""
        adj = self.adjacency()
        if len(self.links) != len(self.nodes) - 1:
            raise ConfigurationError(
                f"not a tree: {len(self.nodes)} nodes but {len(self.links)} links"
            )
        if sum(parent == "" for parent, _, _ in self.tree().values()) != 1:
            raise ConfigurationError("topology is not connected")
        links_by_id = {link.id: link for link in self.links}
        for node in self.nodes:
            if node.layer is NodeLayer.FAR_EDGE_DEVICE:
                attached = adj[node.id]
                onu_local = [
                    other for other, link_id in attached
                    if links_by_id[link_id].spec.kind is LinkKind.LOCAL
                    and self.node(other).layer is NodeLayer.ONU
                ]
                if len(attached) != 1 or len(onu_local) != 1:
                    raise ConfigurationError(
                        f"device {node.id} must attach to exactly one ONU via a Local link"
                    )
        clouds = [n for n in self.nodes if n.layer is NodeLayer.CLOUD]
        if len(clouds) != 1:
            raise ConfigurationError(f"presets require exactly one cloud node, got {len(clouds)}")


def topology_preset(name: str, scenario: ScenarioSpec, edge_mips: float,
                    calibration: Calibration = DEFAULT_CALIBRATION) -> TopologySpec:
    """Build the tree for one preset.

    genio: device -Local- ONU -Fiber- OLT -Local- edge -WAN(50 km)- cloud.
    baseline: identical, except the edge server sits behind a WAN hop
    (100 m) from the OLT instead of the Local attachment.
    """
    if name not in TOPOLOGY_PRESETS:
        raise ConfigurationError(f"unknown topology preset {name!r} (valid: genio, baseline)")
    cal = calibration
    users = scenario.users
    nodes: list[NodeSpec] = []
    small = dict(ram_mb=cal.small_node_ram_mb, storage_mb=cal.small_node_storage_mb)
    for i in range(users):
        nodes.append(NodeSpec(device_node_id(i), NodeLayer.FAR_EDGE_DEVICE, cal.device_mips, **small))
    for i in range(users):
        nodes.append(NodeSpec(f"n{users + i:04d}-onu", NodeLayer.ONU, cal.onu_mips, **small))
    olt_id = f"n{2 * users:04d}-olt"
    edge_id = f"n{2 * users + 1:04d}-edge"
    cloud_id = f"n{2 * users + 2:04d}-cloud"
    # The OLT itself is a forwarding point; compute capacity lives in the
    # attached edge server. Give it device-class numbers so it stays inert.
    nodes.append(NodeSpec(olt_id, NodeLayer.ONU, cal.onu_mips, **small))
    nodes.append(NodeSpec(edge_id, NodeLayer.EDGE_SERVER, edge_mips, cores=cal.edge_cores,
                          ram_mb=cal.edge_ram_mb, storage_mb=cal.edge_storage_mb))
    nodes.append(NodeSpec(cloud_id, NodeLayer.CLOUD, cal.cloud_mips, cores=cal.cloud_cores,
                          ram_mb=cal.edge_ram_mb, storage_mb=cal.edge_storage_mb))

    local = LinkSpec(LinkKind.LOCAL, 0.0, 0.0, 0.0)
    fiber = LinkSpec(LinkKind.FIBER, cal.fiber_bandwidth_bps, cal.pon_length_m,
                     cal.fiber_fixed_latency_s)
    wan_cloud = LinkSpec(LinkKind.WAN, cal.wan_bandwidth_bps, cal.edge_cloud_length_m,
                         cal.wan_fixed_latency_s)
    links: list[LinkRecord] = []
    for i in range(users):
        links.append(LinkRecord(len(links), local, device_node_id(i), f"n{users + i:04d}-onu"))
    for i in range(users):
        links.append(LinkRecord(len(links), fiber, f"n{users + i:04d}-onu", olt_id))
    if name == "genio":
        links.append(LinkRecord(len(links), local, olt_id, edge_id))
    else:
        wan_edge = LinkSpec(LinkKind.WAN, cal.wan_bandwidth_bps,
                            cal.baseline_olt_edge_length_m, cal.wan_fixed_latency_s)
        links.append(LinkRecord(len(links), wan_edge, olt_id, edge_id))
    links.append(LinkRecord(len(links), wan_cloud, edge_id, cloud_id))
    topo = TopologySpec(preset=name, nodes=nodes, links=links)
    topo.validate()
    return topo


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully validated experiment: what to run over which grid."""

    scenarios: tuple[str, ...]
    topologies: tuple[str, ...]
    cpus: tuple[tuple[str, float], ...] | None  # None -> per-scenario Table grid
    seeds: tuple[int, ...]
    duration_s: float
    strategy: str
    arrivals: str
    calibration: Calibration
    custom_scenarios: tuple[ScenarioSpec, ...] = ()

    def scenario_spec(self, name: str) -> ScenarioSpec:
        for spec in self.custom_scenarios:
            if spec.name == name:
                return spec
        return scenario_preset(name)


_TOP_LEVEL_KEYS = {
    "scenario", "topology", "cpus", "seeds", "duration", "strategy", "arrivals",
    "calibration", "custom_scenarios",
}
_SCENARIO_KEYS = {"name", "users", "rate_per_min", "deadline_s", "length_mi",
                  "request_kb", "result_kb"}
_CALIBRATION_KEYS = {f.name for f in fields(Calibration)}


def parse_seeds(value) -> tuple[int, ...]:
    """Accepts [1, 2, 3] or the range shorthand "1..5"."""
    if isinstance(value, str):
        lo, sep, hi = value.partition("..")
        if not sep or not lo.strip().lstrip("-").isdigit() or not hi.strip().lstrip("-").isdigit():
            raise ConfigurationError(f"seeds: cannot parse range {value!r} (use e.g. \"1..5\")")
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ConfigurationError(f"seeds: empty range {value!r}")
        return tuple(range(start, stop + 1))
    if isinstance(value, list) and value and all(isinstance(s, int) for s in value):
        return tuple(value)
    raise ConfigurationError("seeds must be a non-empty list of integers or a range string")


def _as_name_list(value, key: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigurationError(f"{key} must be a name or a non-empty list of names")


def parse_experiment(document: str) -> ExperimentSpec:
    """Parse and validate a JSON experiment document, filling defaults.

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

    custom = []
    for entry in raw.get("custom_scenarios", []):
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

    scenarios = _as_name_list(raw["scenario"], "scenario")
    known = set(SCENARIOS) | {s.name for s in custom}
    for name in scenarios:
        if name not in known:
            raise ConfigurationError(
                f"unknown scenario {name!r} (valid: {', '.join(sorted(known))})"
            )

    topologies = _as_name_list(raw.get("topology", "genio"), "topology")
    for name in topologies:
        if name not in TOPOLOGY_PRESETS:
            raise ConfigurationError(f"unknown topology preset {name!r} (valid: genio, baseline)")

    cpus = None
    if "cpus" in raw and raw["cpus"] is not None:
        if not isinstance(raw["cpus"], list) or not raw["cpus"]:
            raise ConfigurationError("cpus must be a non-empty list")
        parsed = []
        for entry in raw["cpus"]:
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                parsed.append((cpu_label(float(entry)), float(entry)))
            elif isinstance(entry, dict) and set(entry) <= {"label", "mips"} and "mips" in entry:
                mips = float(entry["mips"])
                parsed.append((entry.get("label", cpu_label(mips)), mips))
            else:
                raise ConfigurationError("cpus entries must be MIPS numbers or {label, mips}")
            if parsed[-1][1] <= 0:
                raise ConfigurationError("cpu mips must be positive")
        cpus = tuple(parsed)

    seeds = parse_seeds(raw["seeds"]) if "seeds" in raw else DEFAULT_SEEDS

    duration = raw.get("duration", DEFAULT_DURATION_S)
    if not isinstance(duration, (int, float)) or isinstance(duration, bool) or duration <= 0:
        raise ConfigurationError("duration must be positive")

    strategy = raw.get("strategy", DEFAULT_STRATEGY)
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r} (valid: {', '.join(STRATEGIES)})")
    arrivals = raw.get("arrivals", DEFAULT_ARRIVALS)
    if arrivals not in ARRIVAL_MODES:
        raise ConfigurationError(f"unknown arrivals mode {arrivals!r} (valid: poisson, fixed)")

    cal_raw = raw.get("calibration", {})
    if not isinstance(cal_raw, dict):
        raise ConfigurationError("calibration must be an object")
    unknown = set(cal_raw) - _CALIBRATION_KEYS
    if unknown:
        raise ConfigurationError(f"calibration: unknown key(s): {', '.join(sorted(unknown))}")
    try:
        calibration = replace(DEFAULT_CALIBRATION, **cal_raw)
    except TypeError as exc:
        raise ConfigurationError(f"calibration: {exc}") from None

    return ExperimentSpec(
        scenarios=scenarios,
        topologies=topologies,
        cpus=cpus,
        seeds=seeds,
        duration_s=float(duration),
        strategy=strategy,
        arrivals=arrivals,
        calibration=calibration,
        custom_scenarios=tuple(custom),
    )


def experiment_document(spec: ExperimentSpec) -> dict:
    """Inverse of parse_experiment: a JSON-ready document with all defaults echoed."""
    doc = {
        "scenario": list(spec.scenarios),
        "topology": list(spec.topologies),
        "cpus": None if spec.cpus is None else [
            {"label": label, "mips": mips} for label, mips in spec.cpus
        ],
        "seeds": list(spec.seeds),
        "duration": spec.duration_s,
        "strategy": spec.strategy,
        "arrivals": spec.arrivals,
        "calibration": {f.name: getattr(spec.calibration, f.name) for f in fields(Calibration)},
    }
    if spec.custom_scenarios:
        doc["custom_scenarios"] = [
            {key: getattr(s, key) for key in sorted(_SCENARIO_KEYS)}
            for s in spec.custom_scenarios
        ]
    return doc


def serialize_experiment(spec: ExperimentSpec) -> str:
    return json.dumps(experiment_document(spec), indent=2, sort_keys=True)
