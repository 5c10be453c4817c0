"""Hand-built, random and malformed inputs for tests that drive the kernels directly."""

import math
import random
from array import array

from ponedge._kernel import INPUT_TYPECODES, STRATEGY_TRADE_OFF, KernelInputs
from ponedge.config import DEFAULT_CALIBRATION, cpu_grid
from ponedge.network import replace
from ponedge.simulation import RunParams, build_kernel_inputs
from ponedge.workload import scenario_preset


def kernel_inputs(*, routes=(((),),), **fields) -> KernelInputs:
    """One device and one idle single-core node, reached without a link.

    Any KernelInputs column or constant can be overridden, columns as lists.
    `routes[device][slot]` lists the hop codes of that device's route to that
    candidate slot; flattened, it is route device * len(candidate_nodes) + slot
    of the KernelInputs columns. Every arrival comes from device 0 unless
    `arrival_device` is given.
    """
    routes = [hops for slots in routes for hops in slots]
    starts = [0]
    for hops in routes:
        starts.append(starts[-1] + len(hops))
    values = dict(
        mips_per_core=[1e9], cores=[1], weight=[1.0], ram_capacity=[32_768.0],
        storage_capacity=[1_048_576.0], candidate_nodes=[0],
        link_bandwidth=[], link_hop_delay=[], route_start=starts,
        route_hops=[hop for hops in routes for hop in hops],
        arrival_time=[], arrival_device=None, length_mi=1.0, request_bits=0.0,
        result_bits=0.0, task_ram_mb=1.0, task_storage_mb=100.0,
        strategy=STRATEGY_TRADE_OFF, control_delay_s=0.0, duration_s=1e3,
        collect_trace=False,
    )
    values.update(fields)
    if values["arrival_device"] is None:
        values["arrival_device"] = [0] * len(values["arrival_time"])
    for name, code in INPUT_TYPECODES.items():
        values[name] = array(code, values[name])
    return KernelInputs(**values)


def candidate_inputs(mips, **fields) -> KernelInputs:
    """Idle single-core nodes with the given MIPS, every one a candidate in index
    order and reached from device 0 without a link; fields as for kernel_inputs."""
    n = len(mips)
    values = dict(mips_per_core=list(mips), cores=[1] * n, weight=[1.0] * n,
                  ram_capacity=[32_768.0] * n, storage_capacity=[1_048_576.0] * n,
                  candidate_nodes=list(range(n)), routes=[[()] * n])
    values.update(fields)
    return kernel_inputs(**values)


def random_params(rng: random.Random) -> RunParams:
    """A short run on a random calibration: 1-4 cores, fractional footprints
    that make nodes refuse tasks, with or without a control-plane delay and
    far-edge execution, under either strategy and arrival mode."""
    scenario = rng.choice(["smart-city", "e-health", "smart-building", "aigc"])
    task_ram_mb = rng.choice([0.1, 0.25, 0.3, 0.7])
    calibration = replace(
        DEFAULT_CALIBRATION,
        edge_cores=rng.randint(1, 4),
        cloud_cores=rng.randint(1, 4),
        task_ram_mb=task_ram_mb,
        edge_ram_mb=task_ram_mb * rng.uniform(0.5, 8.0),
        small_node_ram_mb=task_ram_mb * rng.uniform(0.5, 3.0),
        control_plane_delay_s=rng.choice([0.0, rng.uniform(1e-4, 5e-3)]),
        # far-edge candidates would give smart-city's 128 devices a route to
        # every ONU, more route building than the run itself, so it runs
        # without them
        far_edge_execution=scenario != "smart-city" and rng.random() < 0.5,
    )
    return RunParams(
        scenario=scenario_preset(scenario), topology=rng.choice(["genio", "baseline"]),
        cpu_mips=rng.choice(cpu_grid(scenario))[1], seed=rng.randrange(1, 1_000_000),
        duration_s=rng.uniform(2.0, 20.0), strategy=rng.choice(["trade-off", "round-robin"]),
        arrivals=rng.choice(["poisson", "fixed"]), calibration=calibration,
    )


def random_inputs(rng: random.Random) -> tuple[RunParams, KernelInputs]:
    """(params, traced kernel inputs) of a random calibration, on the 0.25 s
    time grid half of the time."""
    params = random_params(rng)
    inputs = build_kernel_inputs(params, collect_trace=True)
    if rng.random() < 0.5:
        # random phases almost never make two float times equal; on a
        # 0.25 s grid, tasks arrive together, join links at the same
        # instant, tie on etas and start exactly at the horizon
        inputs = replace(inputs,
                         arrival_time=array("d", [round(t * 4) / 4 for t in inputs.arrival_time]),
                         duration_s=round(inputs.duration_s * 4) / 4)
    return params, inputs


# One link, named by the hop codes of the rows below that need one.
_ONE_LINK = dict(link_bandwidth=[1e9], link_hop_delay=[0.0], request_bits=8.0)

# The texts of the ValueError clauses check_inputs refuses the rows below with.
_DEVICE = "kernel input arrival_device must be a device index in [0, routes / candidate slots)"
_NODE = "kernel input candidate_nodes must be node indices"
_SLOTS = "kernel input route_start must hold a multiple of len(candidate_nodes) routes"
_HOP = "kernel input route_hops must be hop codes in [0, 2 * links)"
_CORE = "kernel input cores must be >= 1"
_RISE = "kernel input route_start must rise from 0 to len(route_hops)"
_POSITIVE = "kernel input {} must be > 0"
_NON_NEGATIVE = "kernel input {} must be >= 0"

# kernel_inputs fields that break the KernelInputs contract, each in one way,
# and the text of the ValueError both kernels refuse the row with before the loop.
MALFORMED = {
    "no-such-device": (dict(arrival_time=[0.0], arrival_device=[1]), _DEVICE),
    "negative-device": (dict(arrival_time=[0.0], arrival_device=[-1]), _DEVICE),
    "negative-device-no-slot": (dict(candidate_nodes=[], routes=[], arrival_time=[0.0],
                                     arrival_device=[-1]), _DEVICE),
    "no-such-node": (dict(candidate_nodes=[1]), _NODE),
    "negative-node": (dict(candidate_nodes=[-1], arrival_time=[0.0]), _NODE),
    "one-route-two-slots": (dict(candidate_nodes=[0, 0]), _SLOTS),
    "one-route-two-slots-arrival": (dict(candidate_nodes=[0, 0], arrival_time=[0.0]), _SLOTS),
    "no-such-link": (dict(routes=[[[0]]]), _HOP),
    "negative-hop": (dict(routes=[[[-1]]], arrival_time=[0.0], **_ONE_LINK), _HOP),
    "no-core": (dict(cores=[0]), _CORE),
    "no-core-arrival": (dict(cores=[0], arrival_time=[0.0]), _CORE),
    "negative-cores": (dict(cores=[-1], arrival_time=[0.0]), _CORE),
    "short-weight": (dict(weight=[]), "kernel input weight must have one entry per node"),
    "long-mips": (dict(mips_per_core=[1e9, 1e9], arrival_time=[0.0]),
                  "kernel input mips_per_core must have one entry per node"),
    "short-link-delay": (dict(link_bandwidth=[1e9], link_hop_delay=[]),
                         "kernel input link_hop_delay must have one entry per link"),
    "long-arrival-device": (dict(arrival_time=[0.0], arrival_device=[0, 0]),
                            "kernel input arrival_device must have one entry per arrival"),
    "no-route-start": (dict(route_start=[], arrival_time=[0.0]), _RISE),
    "route-start-from-1": (dict(route_start=[1, 1], route_hops=[0], **_ONE_LINK), _RISE),
    "route-start-short-of-hops": (dict(route_start=[0, 0], route_hops=[0], **_ONE_LINK), _RISE),
    # a route that ends before it starts: C read past route_hops on it
    "route-start-falls": (dict(route_start=[1, 0], route_hops=[0], arrival_time=[0.0],
                               **_ONE_LINK), _RISE),
    # Python divided by zero on these, and C ran them to a NaN delivery
    "zero-mips": (dict(mips_per_core=[0.0], arrival_time=[0.0]),
                  _POSITIVE.format("mips_per_core")),
    "negative-mips": (dict(mips_per_core=[-1e9], arrival_time=[0.0]),
                      _POSITIVE.format("mips_per_core")),
    "nan-mips": (dict(mips_per_core=[math.nan], arrival_time=[0.0]),
                 _POSITIVE.format("mips_per_core")),
    "zero-bandwidth": (dict(_ONE_LINK, link_bandwidth=[0.0], routes=[[[0]]], arrival_time=[0.0]),
                       _POSITIVE.format("link_bandwidth")),
    "negative-bandwidth": (dict(_ONE_LINK, link_bandwidth=[-1e9], routes=[[[0]]],
                                arrival_time=[0.0]), _POSITIVE.format("link_bandwidth")),
    "nan-bandwidth": (dict(_ONE_LINK, link_bandwidth=[math.nan], routes=[[[0]]],
                           arrival_time=[0.0]), _POSITIVE.format("link_bandwidth")),
    # times and sizes the event loops add to the clock: the negative ones
    # failed mid-run as an event in the past, a NaN hop delay as a broken
    # conservation, and a NaN horizon ran and delivered the task at 1e-09
    "negative-duration": (dict(duration_s=-1.0), _NON_NEGATIVE.format("duration_s")),
    "nan-duration": (dict(duration_s=math.nan, arrival_time=[0.0]),
                     _NON_NEGATIVE.format("duration_s")),
    "negative-hop-delay": (dict(_ONE_LINK, link_hop_delay=[-1e-3], routes=[[[0]]],
                                arrival_time=[0.0]), _NON_NEGATIVE.format("link_hop_delay")),
    "nan-hop-delay": (dict(_ONE_LINK, link_hop_delay=[math.nan], routes=[[[0]]],
                           arrival_time=[0.0]), _NON_NEGATIVE.format("link_hop_delay")),
    "negative-length": (dict(length_mi=-1.0, arrival_time=[0.0]),
                        _NON_NEGATIVE.format("length_mi")),
    "negative-request-bits": (dict(_ONE_LINK, request_bits=-8.0, routes=[[[0]]],
                                   arrival_time=[0.0]), _NON_NEGATIVE.format("request_bits")),
    "negative-result-bits": (dict(_ONE_LINK, result_bits=-8.0, routes=[[[0]]],
                                  arrival_time=[0.0]), _NON_NEGATIVE.format("result_bits")),
    "negative-control-delay": (dict(control_delay_s=-1e-3, arrival_time=[0.0]),
                               _NON_NEGATIVE.format("control_delay_s")),
}

# The index columns whose entries `mutate` changes.
INDEX_COLUMNS = ("candidate_nodes", "route_start", "route_hops", "arrival_device", "cores")


def mutate(rng: random.Random, inputs: KernelInputs) -> KernelInputs:
    """A copy of `inputs` with one entry of one index column moved by one or
    two either way, or set to -1 or the largest int: some copies break the
    contract, and some run on other nodes, hops, routes or core counts."""
    name = rng.choice([name for name in INDEX_COLUMNS if getattr(inputs, name)])
    column = array("i", getattr(inputs, name))
    entry = rng.randrange(len(column))
    value = column[entry]
    column[entry] = rng.choice([value - 2, value - 1, value + 1, value + 2, -1, 2**31 - 1])
    return replace(inputs, **{name: column})
