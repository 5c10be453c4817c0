"""CPU grids, topology presets, and strict experiment parsing."""

import json
import math

import pytest

from ponedge.config import (Calibration, DEFAULT_CALIBRATION, cpu_grid, cpu_label,
                            parse_experiment, parse_seeds, preset_shape)
from ponedge.network import ConfigurationError, replace
from ponedge.simulation import RunParams, build_kernel_inputs
from ponedge.sweep import build_cells
from ponedge.workload import scenario_preset


def test_cpu_grid_smart_city():
    assert cpu_grid("smart-city") == [
        ("AMD Phenom II X4 955", 43_000.0),
        ("AMD FX 8320", 80_000.0),
        ("Intel Core i7-4710HQ", 123_000.0),
        ("Intel Core i7-3930K", 220_000.0),
        ("Intel Core i7 5960X", 300_000.0),
    ]


def test_cpu_grid_aigc():
    assert cpu_grid("aigc") == [
        ("Intel i9-13900", 700_000.0),
        ("Intel i7-13700K", 800_000.0),
        ("Intel i7-14700K", 1_000_000.0),
        ("Intel i9-14900KF", 1_200_000.0),
        ("AMD Ryzen 3990X", 2_350_000.0),
    ]


def test_cpu_grids_ascending_and_five_wide():
    for name in ("smart-city", "e-health", "smart-building", "aigc"):
        grid = cpu_grid(name)
        assert len(grid) == 5
        mips = [m for _, m in grid]
        assert mips == sorted(mips)
        assert len(set(mips)) == 5


def test_e_health_overlaps_smart_city():
    overlap = {m for _, m in cpu_grid("e-health")} & {m for _, m in cpu_grid("smart-city")}
    assert overlap == {220_000.0, 300_000.0}


def test_cpu_grid_unknown_scenario():
    with pytest.raises(ConfigurationError):
        cpu_grid("bogus")


def test_cpu_label_fallback():
    assert cpu_label(220_000.0) == "Intel Core i7-3930K"
    assert cpu_label(123_456.0) == "custom-123456"


def _shape(preset, scenario):
    return preset_shape(preset, scenario_preset(scenario).users, DEFAULT_CALIBRATION)


def test_genio_topology_counts_smart_city():
    shape = _shape("genio", "smart-city")
    assert len(shape.node_ids) == 259  # 128 devices + 128 ONUs + OLT + edge + cloud
    assert len(shape.columns["link_bandwidth"]) == 258  # a tree has nodes-1 links
    for kind, count in (("-dev", 128), ("-onu", 128), ("-olt", 1), ("-edge", 1), ("-cloud", 1)):
        assert sum(node_id.endswith(kind) for node_id in shape.node_ids) == count
    assert all(len(column) == 259 for name, column in shape.columns.items()
               if name in ("mips_per_core", "cores", "weight", "ram_capacity",
                           "storage_capacity"))


def test_genio_links_olt_edge_local_and_cloud_50km():
    columns = _shape("genio", "e-health").columns  # link 20: OLT-edge, 21: edge-cloud
    assert (columns["link_bandwidth"][20], columns["link_hop_delay"][20]) == (math.inf, 0.0)
    assert columns["link_bandwidth"][21] == 1e9
    assert columns["link_hop_delay"][21] == 50_000.0 / 2.0e8 + 10e-3


def test_baseline_swaps_olt_edge_hop_to_wan_100m():
    columns = _shape("baseline", "e-health").columns
    assert columns["link_bandwidth"][20] == DEFAULT_CALIBRATION.wan_bandwidth_bps
    assert columns["link_hop_delay"][20] == (100.0 / 2.0e8
                                             + DEFAULT_CALIBRATION.wan_fixed_latency_s)


def test_fiber_defaults_1gbps_100m():
    columns = _shape("genio", "e-health").columns  # links 10..19: the ONUs' fibers
    assert columns["link_bandwidth"][10:20].tolist() == [1e9] * 10
    assert columns["link_hop_delay"][10:20].tolist() == [100.0 / 2.0e8] * 10
    assert columns["link_bandwidth"][:10].tolist() == [math.inf] * 10  # device-ONU: Local


def test_edge_node_sizing_and_cpu():
    params = RunParams(scenario=scenario_preset("e-health"), topology="genio",
                       cpu_mips=220_000.0, seed=1, duration_s=1.0)
    inputs = build_kernel_inputs(params, collect_trace=False)
    node_ids = _shape("genio", "e-health").node_ids
    edge, cloud = node_ids.index("n0021-edge"), node_ids.index("n0022-cloud")
    assert inputs.mips_per_core[edge] == 220_000
    assert inputs.ram_capacity[edge] == 32_768.0  # 32 GB
    assert inputs.storage_capacity[edge] == 1_048_576.0  # 1 TB
    assert inputs.mips_per_core[cloud] == 1_000_000.0
    assert inputs.weight[cloud] == DEFAULT_CALIBRATION.cloud_weight


def test_unknown_preset_name():
    with pytest.raises(ConfigurationError):
        preset_shape("mesh", 10, DEFAULT_CALIBRATION)


def test_parse_minimal_document_gets_defaults():
    spec = parse_experiment('{"scenario": "smart-city", "topology": "genio"}')
    assert spec.scenarios == ("smart-city",)
    assert spec.topologies == ("genio",)
    assert spec.cpus is None
    assert spec.seeds is None  # 1..5 to sweep and compare, 1 to run
    assert spec.duration_s == 600.0
    assert spec.strategy == "trade-off"
    assert spec.arrivals == "poisson"
    assert spec.calibration == DEFAULT_CALIBRATION


@pytest.mark.parametrize("key,value,message", [
    ("duration", "-5", "duration must be > 0 and finite"),
    ("duration", '"600"', "duration must be a number, not '600'"),
    ("strategy", '"tradeoff"', "unknown strategy 'tradeoff'"),
    ("arrivals", '"bursty"', "unknown arrival mode 'bursty'"),
], ids=["duration-negative", "duration-text", "strategy-typo", "arrivals-typo"])
def test_document_values_are_refused_by_its_cells(key, value, message):
    # a document's values are checked where every cell's are, in RunParams
    spec = parse_experiment('{"scenario": "smart-city", "%s": %s}' % (key, value))
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        build_cells(spec, "smart-city")


def test_parse_rejects_unknown_key_with_name():
    with pytest.raises(ConfigurationError, match="speeed"):
        parse_experiment('{"scenario": "smart-city", "speeed": 3}')


def test_parse_reports_syntax_position():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_experiment('{"scenario": "smart-city",\n "topology": }')


def test_parse_unknown_scenario_and_topology():
    with pytest.raises(ConfigurationError):
        parse_experiment('{"scenario": "nope"}')
    with pytest.raises(ConfigurationError):
        parse_experiment('{"scenario": "aigc", "topology": "ring"}')


def test_parse_seeds_forms():
    assert parse_seeds("1..5") == (1, 2, 3, 4, 5)
    assert parse_seeds([7, 9]) == (7, 9)
    # a document reads the grammar of --seeds and PONEDGE_SEED
    assert parse_experiment('{"scenario": "aigc", "seeds": "1,2,3"}').seeds == (1, 2, 3)
    with pytest.raises(ConfigurationError):
        parse_seeds("5..1")
    with pytest.raises(ConfigurationError):
        parse_seeds([])


@pytest.mark.parametrize("document,message", [
    ('{"scenario": "aigc", "seeds": [true]}', "seeds must be a non-empty list of integers"),
    ('{"scenario": "aigc", "seeds": [2, 2, 3]}', r"seeds: \[2, 2, 3\] lists a seed twice"),
    ('{"scenario": ["aigc", "aigc"]}', r"scenario: \['aigc', 'aigc'\] lists a name twice"),
], ids=["seed-bool", "seed-twice", "scenario-twice"])
def test_parse_refuses_bool_seeds_and_repeats(document, message):
    # a repeated seed or scenario would be a cell counted twice
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        parse_experiment(document)


def test_parse_cpus_forms():
    spec = parse_experiment('{"scenario": "aigc", "cpus": [700000, {"mips": 1200000}]}')
    assert spec.cpus == (("", 700_000), ("", 1_200_000))  # a cell names an unlabelled CPU
    assert [(cell.cpu, cell.cpu_mips) for cell in build_cells(spec, "aigc")[::5]] == [
        ("Intel i9-13900", 700_000.0), ("Intel i9-14900KF", 1_200_000.0)] * 2
    with pytest.raises(ConfigurationError):
        parse_experiment('{"scenario": "aigc", "cpus": []}')


def test_parse_calibration_override_and_unknown_key():
    spec = parse_experiment(
        '{"scenario": "aigc", "calibration": {"wan_fixed_latency_s": 0.02}}'
    )
    assert spec.calibration.wan_fixed_latency_s == 0.02
    assert spec.calibration.fiber_bandwidth_bps == 1e9
    with pytest.raises(ConfigurationError, match="wan_speeed"):
        parse_experiment('{"scenario": "aigc", "calibration": {"wan_speeed": 1}}')


def test_parse_custom_scenario_six_fields():
    doc = json.dumps({
        "scenario": "lab",
        "custom_scenarios": [{
            "name": "lab", "users": 3, "rate_per_min": 10, "deadline_s": 0.1,
            "length_mi": 200, "request_kb": 5, "result_kb": 2,
        }],
    })
    spec = parse_experiment(doc)
    lab = spec.scenario_spec("lab")
    assert lab.users == 3 and lab.request_kb == 5
    with pytest.raises(ConfigurationError, match="missing key"):
        parse_experiment(json.dumps({
            "scenario": "lab",
            "custom_scenarios": [{"name": "lab", "users": 3}],
        }))


def test_experiment_document_fields_parsed():
    spec = parse_experiment(json.dumps({
        "scenario": ["aigc", "e-health"],
        "topology": ["genio", "baseline"],
        "seeds": "2..4",
        "duration": 120,
        "arrivals": "fixed",
        "calibration": {"cloud_mips": 2e6},
    }))
    assert spec.scenarios == ("aigc", "e-health")
    assert spec.topologies == ("genio", "baseline")
    assert spec.cpus is None
    assert spec.seeds == (2, 3, 4)
    assert spec.duration_s == 120.0
    assert spec.strategy == "trade-off"
    assert spec.arrivals == "fixed"
    assert spec.calibration == replace(DEFAULT_CALIBRATION, cloud_mips=2e6)
    assert spec.custom_scenarios == ()


def test_calibration_defaults_are_the_shipped_acceptance_calibration():
    cal = Calibration()
    assert cal.wan_fixed_latency_s == 0.010
    assert cal.wan_bandwidth_bps == 1e9
    assert cal.cloud_mips == 1_000_000.0
    assert cal.edge_cores == 1
    assert cal.far_edge_execution is False
    assert cal.control_plane_delay_s == 0.0
