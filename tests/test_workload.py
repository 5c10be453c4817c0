"""Scenario presets and arrival generation statistics."""

import math

import pytest
from scipy import stats

from ponedge.engine import Stream
from ponedge.network import ConfigurationError
from ponedge.workload import SCENARIOS, ScenarioSpec, generate_arrivals, scenario_preset


def test_preset_smart_city_row():
    spec = scenario_preset("smart-city")
    assert (spec.users, spec.rate_per_min, spec.deadline_s) == (128, 2, 0.5)
    assert (spec.length_mi, spec.request_kb, spec.result_kb) == (500, 1, 10)


def test_preset_e_health_row():
    spec = scenario_preset("e-health")
    assert (spec.users, spec.rate_per_min, spec.deadline_s) == (10, 60, 0.05)
    assert (spec.length_mi, spec.request_kb, spec.result_kb) == (1000, 10, 10)


def test_preset_smart_building_row():
    spec = scenario_preset("smart-building")
    assert (spec.users, spec.rate_per_min, spec.deadline_s) == (20, 60, 0.2)
    assert (spec.length_mi, spec.request_kb, spec.result_kb) == (5000, 750, 500)


def test_preset_aigc_row():
    spec = scenario_preset("aigc")
    assert (spec.users, spec.rate_per_min, spec.deadline_s) == (50, 20, 0.5)
    assert (spec.length_mi, spec.request_kb, spec.result_kb) == (48_000, 5000, 2000)


def test_unknown_scenario_lists_valid_names():
    with pytest.raises(ConfigurationError, match="smartcity"):
        scenario_preset("smartcity")
    try:
        scenario_preset("smartcity")
    except ConfigurationError as exc:
        for name in SCENARIOS:
            assert name in str(exc)


def test_scenario_fields_must_be_positive():
    with pytest.raises(ConfigurationError):
        ScenarioSpec("bad", users=0, rate_per_min=1, deadline_s=1,
                     length_mi=1, request_kb=1, result_kb=1)


ONE_PER_SECOND = ScenarioSpec("metronome", users=1, rate_per_min=60, deadline_s=1,
                              length_mi=1, request_kb=1, result_kb=1)


def test_fixed_mode_exact_spacing():
    times, devices = generate_arrivals(ONE_PER_SECOND, 60.0, seed=9, mode="fixed")
    assert len(times) == len(devices) == 60
    phase = times[0]
    assert 0.0 <= phase < 1.0
    for k, time in enumerate(times):
        assert time == pytest.approx(phase + k, abs=1e-12)


def test_arrivals_replay_identically():
    spec = scenario_preset("e-health")
    a = generate_arrivals(spec, 120.0, seed=4, mode="poisson")
    b = generate_arrivals(spec, 120.0, seed=4, mode="poisson")
    assert a == b
    c = generate_arrivals(spec, 120.0, seed=5, mode="poisson")
    assert a[0] != c[0]


def test_arrivals_sorted_with_device_tie_break():
    spec = scenario_preset("smart-city")
    times, devices = generate_arrivals(spec, 300.0, seed=2, mode="poisson")
    keys = list(zip(times, devices))
    assert keys == sorted(keys)
    assert len(times) == len(devices)
    assert all(time < 300.0 for time in times)


def test_poisson_count_mean_smart_city():
    # 128 users x 2/min x 10 min -> mean 2560 tasks; sample mean over 30
    # seeds must sit within 3 sigma of the Poisson count distribution
    spec = scenario_preset("smart-city")
    counts = [len(generate_arrivals(spec, 600.0, seed, "poisson")[0]) for seed in range(30)]
    mean = sum(counts) / len(counts)
    sigma_of_mean = math.sqrt(2560.0 / len(counts))
    assert abs(mean - 2560.0) <= 3 * sigma_of_mean


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_poisson_interarrival_mean_three_sigma(name):
    spec = SCENARIOS[name]
    mean_target = 60.0 / spec.rate_per_min
    stream = Stream(11, f"arrivals/{name}/0")
    n = 10_000
    samples = [stream.exponential(mean_target) for _ in range(n)]
    sample_mean = sum(samples) / n
    # exponential: std == mean, so the estimator sigma is mean / sqrt(n)
    assert abs(sample_mean - mean_target) <= 3 * mean_target / math.sqrt(n)


def test_poisson_interarrival_ks_sanity():
    spec = scenario_preset("e-health")
    times, devices = generate_arrivals(spec, 2000.0, seed=17, mode="poisson")
    gaps = []
    by_device = {}
    for time, device in zip(times, devices):
        prev = by_device.get(device, 0.0)
        gaps.append(time - prev)
        by_device[device] = time
    assert len(gaps) >= 10_000
    result = stats.kstest(gaps, "expon", args=(0, 60.0 / spec.rate_per_min))
    assert result.pvalue > 0.01


def test_generation_argument_errors():
    spec = scenario_preset("e-health")
    with pytest.raises(ConfigurationError):
        generate_arrivals(spec, 0.0, seed=1)
    with pytest.raises(ConfigurationError):
        generate_arrivals(spec, 10.0, seed=1, mode="bursty")
