"""Wires config, workload, placement candidates and the kernel into one run."""

from __future__ import annotations

from array import array
from functools import lru_cache

from . import _kernel
from .config import (DEFAULT_ARRIVALS, DEFAULT_CALIBRATION, DEFAULT_DURATION_S,
                     DEFAULT_STRATEGY, STRATEGIES, Calibration, check_topology, cpu_label,
                     preset_shape)
from .metrics import RunSummary, summarize
from .network import BITS_PER_KB, ConfigurationError, Record, check_number
from .workload import ScenarioSpec, check_arrivals


class RunParams(Record):
    """One cell: everything one simulation run depends on.

    Every value is checked here, whichever command or document described the
    cell. `cpu` is the CPU's label, cpu_label(cpu_mips) when left empty.
    `cpu_mips` and `duration_s` are held as floats however they were given,
    so that the cell's config.json reads the same either way.
    """

    scenario: ScenarioSpec
    topology: str
    cpu_mips: float
    seed: int
    cpu: str = ""
    duration_s: float = DEFAULT_DURATION_S
    strategy: str = DEFAULT_STRATEGY
    arrivals: str = DEFAULT_ARRIVALS
    calibration: Calibration = DEFAULT_CALIBRATION

    def __post_init__(self):
        # the edge server's MIPS; the calibration checks every other node's
        check_number("cpu_mips", self.cpu_mips)
        check_topology(self.topology)
        check_arrivals(self.scenario, self.duration_s, self.arrivals)
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r} (valid: {', '.join(STRATEGIES)})")
        if type(self.seed) is not int:  # a bool is no seed
            raise ConfigurationError(f"seed must be an integer, not {self.seed!r}")
        object.__setattr__(self, "cpu_mips", float(self.cpu_mips))
        object.__setattr__(self, "duration_s", float(self.duration_s))
        if not self.cpu:
            object.__setattr__(self, "cpu", cpu_label(self.cpu_mips))


class RunResult(Record):
    """One run: its kernel inputs, the kernel's per-task output columns and their summary."""

    node_ids: tuple[str, ...]  # node index -> id
    inputs: _kernel.KernelInputs
    outputs: _kernel.KernelOutputs
    summary: RunSummary


def build_kernel_inputs(params: RunParams, collect_trace: bool) -> _kernel.KernelInputs:
    """The kernel inputs of one run.

    The columns of its preset_shape and its arrivals, drawn by the kernel
    this process resolved, are cached and shared by every run of this process
    that has them: both kernels only read their input columns. The per-core
    MIPS column is the run's own copy, with its edge server's entry set.
    """
    cal = params.calibration
    scenario = params.scenario
    columns = preset_shape(params.topology, scenario.users, cal).columns
    mips_per_core = array("d", columns["mips_per_core"])
    mips_per_core[2 * scenario.users + 1] = params.cpu_mips / cal.edge_cores  # the edge server
    arrival_time, arrival_device = _cached_arrivals(scenario, params.duration_s, params.seed,
                                                    params.arrivals)
    return _kernel.KernelInputs(
        **(columns | {"mips_per_core": mips_per_core}),
        arrival_time=arrival_time,
        arrival_device=arrival_device,
        length_mi=scenario.length_mi,
        request_bits=scenario.request_kb * BITS_PER_KB,
        result_bits=scenario.result_kb * BITS_PER_KB,
        task_ram_mb=cal.task_ram_mb,
        task_storage_mb=cal.task_storage_mb,
        strategy=_kernel.STRATEGY_TRADE_OFF if params.strategy == "trade-off"
        else _kernel.STRATEGY_ROUND_ROBIN,
        control_delay_s=cal.control_plane_delay_s,
        duration_s=params.duration_s,
        collect_trace=collect_trace,
    )


@lru_cache(maxsize=64)
def _cached_arrivals(scenario: ScenarioSpec, duration_s: float, seed: int,
                     mode: str) -> tuple[array, array]:
    # the arrival process is identical for every topology/CPU cell of a sweep,
    # and both kernels draw it bit-identically; the kernels only read these
    # columns, so every cell shares them. The cell's RunParams has checked it.
    return _kernel.library().arrivals(scenario, duration_s, seed, mode)


def run_simulation(params: RunParams, collect_trace: bool = False) -> RunResult:
    """Execute one deterministic run on the resolved kernel and summarize it.

    With collect_trace the kernel's trace columns are kept in
    `outputs.trace`, for the write_trace of the kernel this process resolved.
    The kernel checks the run's invariants and raises SimulationError when
    one breaks; that is a bug, not a data point.
    """
    inputs = build_kernel_inputs(params, collect_trace)
    # perfbench replays _kernel.run's first two positional arguments
    out = _kernel.run(inputs, None)
    summary = summarize(
        len(inputs.arrival_time),
        out.latencies,
        deadline_s=params.scenario.deadline_s,
        scenario=params.scenario.name,
        topology=params.topology,
        cpu=params.cpu,
        mips=params.cpu_mips,
        seed=params.seed,
        strict_deadline=params.calibration.strict_deadline_tsr,
    )
    node_ids = preset_shape(params.topology, params.scenario.users, params.calibration).node_ids
    return RunResult(node_ids=node_ids, inputs=inputs, outputs=out, summary=summary)
