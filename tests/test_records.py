"""The record base every value type is built on: construction, checks,
equality, hashing, freezing, pickling and replace."""

import pickle

import pytest

from ponedge._kernel import KernelOutputs
from ponedge.config import DEFAULT_CALIBRATION, Calibration, preset_shape
from ponedge.metrics import RunSummary
from ponedge.network import ConfigurationError, Record, fields, replace
from ponedge.simulation import RunParams
from ponedge.workload import ScenarioSpec, scenario_preset

from kernel_inputs import kernel_inputs


class Point(Record):
    x: float
    y: float = 0.0


class Pair(Record):
    x: float
    y: float = 0.0


PARAMS = RunParams(scenario_preset("e-health"), "genio", 220_000, 3)
SUMMARY = RunSummary("e-health", "genio", "Intel Core i7-3930K", 220_000.0, 3, 100, 98, 2, 98.0,
                     0.01, 0.02, 97.5)


def test_fields_are_the_annotations_in_order_with_their_defaults():
    assert fields(Point) == fields(Point(1.0)) == ("x", "y")
    assert fields(RunParams)[:5] == ("scenario", "topology", "cpu_mips", "seed", "cpu")
    assert Point(1.0) == Point(1.0, 0.0) == Point(y=0.0, x=1.0)
    assert PARAMS.duration_s == 600.0 and PARAMS.calibration is DEFAULT_CALIBRATION
    assert repr(Point(1.0, y=2)) == "Point(x=1.0, y=2)"


def test_equal_values_give_equal_records_and_hashes():
    assert Calibration() == DEFAULT_CALIBRATION and Calibration() is not DEFAULT_CALIBRATION
    assert hash(Calibration()) == hash(DEFAULT_CALIBRATION)
    twin = RunParams(scenario_preset("e-health"), "genio", 220_000.0, 3,
                     cpu="Intel Core i7-3930K")
    assert twin == PARAMS and hash(twin) == hash(PARAMS)
    assert replace(PARAMS, seed=4) != PARAMS
    # the lru_cache of the preset shapes is keyed by an equal calibration
    preset_shape("genio", 3, DEFAULT_CALIBRATION)
    hits = preset_shape.cache_info().hits
    preset_shape("genio", 3, replace(DEFAULT_CALIBRATION))
    assert preset_shape.cache_info().hits == hits + 1


def test_a_record_never_equals_another_class():
    assert Point(1.0) != Pair(1.0) and Pair(1.0) != Point(1.0)
    assert Point(1.0) != (1.0, 0.0)
    assert PARAMS != SUMMARY


def test_every_record_refuses_assignment():
    with pytest.raises(AttributeError, match="cannot assign to field 'edge_cores'"):
        DEFAULT_CALIBRATION.edge_cores = 2
    with pytest.raises(AttributeError):
        del PARAMS.seed
    assert DEFAULT_CALIBRATION.edge_cores == 1 and PARAMS.seed == 3
    # a record of `array` columns is frozen too, and its fields do not hash
    inputs = kernel_inputs()
    with pytest.raises(AttributeError, match="cannot assign to field 'duration_s'"):
        inputs.duration_s = 5.0
    with pytest.raises(TypeError):
        hash(inputs)


def test_replace_checks_again():
    with pytest.raises(ConfigurationError, match="fiber_bandwidth_bps"):
        replace(DEFAULT_CALIBRATION, fiber_bandwidth_bps=0)
    with pytest.raises(ConfigurationError, match="cpu_mips"):
        replace(PARAMS, cpu_mips=0.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'cpu_mhz'"):
        replace(PARAMS, cpu_mhz=1.0)
    moved = replace(PARAMS, duration_s=30)
    assert moved.duration_s == 30.0 and type(moved.duration_s) is float


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {"name": "x"}, "missing required argument(s): users, rate_per_min"),
    (("x", 1, 1, 1, 1, 1, 1), {"name": "y"}, "multiple values for argument 'name'"),
    (("x", 1, 1, 1, 1, 1, 1), {"colour": "red"}, "unexpected keyword argument 'colour'"),
    (("x", 1, 1, 1, 1, 1, 1, 1), {}, "takes 7 positional arguments but 8 were given"),
], ids=["missing", "repeated", "unknown", "too-many"])
def test_unknown_missing_and_repeated_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message.replace("(", r"\(").replace(")", r"\)")):
        ScenarioSpec(*args, **kwargs)


def test_the_check_hook_runs_on_every_construction():
    with pytest.raises(ConfigurationError, match="users"):
        ScenarioSpec("lab", 0, 1, 1, 1, 1, 1)
    with pytest.raises(ConfigurationError, match="cloud_mips"):
        Calibration(cloud_mips=-1.0)


@pytest.mark.parametrize("record", [PARAMS, SUMMARY], ids=["RunParams", "RunSummary"])
def test_records_survive_a_pickle_round_trip(record):
    # the pure-Python pool ships cells to its workers and their summaries back
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and hash(copy) == hash(record) and copy is not record
    with pytest.raises(AttributeError):
        copy.seed = 9


def test_mutable_kernel_records_pickle_too():
    inputs = kernel_inputs()
    assert pickle.loads(pickle.dumps(inputs)) == inputs
    outputs = KernelOutputs(*([inputs.arrival_time] * 8), processed_events=0, trace=None)
    assert pickle.loads(pickle.dumps(outputs)) == outputs
