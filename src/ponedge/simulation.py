"""Wires config, workload, placement candidates and the kernel into one run."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from . import _kernel
from .config import (Calibration, DEFAULT_CALIBRATION, TopologySpec, _shape_inputs,
                     cpu_label, device_node_id, topology_preset)
from .metrics import RunSummary, summarize
from .network import BITS_PER_KB
from .workload import ScenarioSpec, arrival_streams, check_arrivals, generate_arrivals
from ._kernel import pykernel

# Trace entries the pure-Python path formats per write: about 70 KB of text.
# Its lines, their join and its encoding are the largest transient memory of
# a traced run on that path.
TRACE_CHUNK = 1024


@dataclass(frozen=True)
class RunParams:
    """Everything one simulation run depends on."""

    scenario: ScenarioSpec
    topology: str
    cpu_mips: float
    seed: int
    cpu: str = ""
    duration_s: float = 600.0
    strategy: str = "trade-off"
    arrivals: str = "poisson"
    calibration: Calibration = DEFAULT_CALIBRATION

    def cpu_name(self) -> str:
        return self.cpu or cpu_label(self.cpu_mips)


@dataclass
class RunResult:
    """One run: its kernel inputs, the kernel's per-task output columns and their summary."""

    params: RunParams
    topology: TopologySpec
    inputs: pykernel.KernelInputs
    outputs: pykernel.KernelOutputs
    summary: RunSummary
    backend: str  # the kernel that ran: "c" or "python"


def build_kernel_inputs(params: RunParams, topo: TopologySpec, collect_trace: bool,
                        backend: str = "python") -> pykernel.KernelInputs:
    """The kernel inputs of one run on `topo`, the topology_preset of params.

    The columns of its shape and its arrivals, drawn by `backend`'s library,
    are cached and shared by every run of this process that has them:
    both kernels only read their input columns.
    """
    cal = params.calibration
    scenario = params.scenario
    weights = cal.layer_weights()
    arrival_time, arrival_device = _cached_arrivals(
        scenario, params.duration_s, params.seed, params.arrivals, backend
    )
    return pykernel.KernelInputs(
        mips_per_core=array("d", [node.mips_per_core for node in topo.nodes]),
        cores=array("i", [node.cores for node in topo.nodes]),
        weight=array("d", [weights[node.layer] for node in topo.nodes]),
        ram_capacity=array("d", [node.ram_mb for node in topo.nodes]),
        storage_capacity=array("d", [node.storage_mb for node in topo.nodes]),
        **_shape_inputs(params.topology, scenario.users, cal),
        arrival_time=arrival_time,
        arrival_device=arrival_device,
        length_mi=scenario.length_mi,
        request_bits=scenario.request_kb * BITS_PER_KB,
        result_bits=scenario.result_kb * BITS_PER_KB,
        task_ram_mb=cal.task_ram_mb,
        task_storage_mb=cal.task_storage_mb,
        strategy=pykernel.STRATEGY_TRADE_OFF if params.strategy == "trade-off"
        else pykernel.STRATEGY_ROUND_ROBIN,
        control_delay_s=cal.control_plane_delay_s,
        duration_s=params.duration_s,
        collect_trace=collect_trace,
    )


@lru_cache(maxsize=64)
def _cached_arrivals(scenario: ScenarioSpec, duration_s: float, seed: int,
                     mode: str, backend: str) -> tuple[array, array]:
    # the arrival process is identical for every topology/CPU cell of a sweep;
    # the kernels only read these columns, so every cell shares them
    if backend == "c":
        check_arrivals(scenario, duration_s, mode)
        return _kernel.c_library().arrivals(
            [stream.state for stream in arrival_streams(scenario, seed)],
            scenario.interval_s, duration_s, mode)
    times, devices = generate_arrivals(scenario, duration_s, seed, mode)
    return array("d", times), array("i", devices)


def node_utilization(topo: TopologySpec, busy: array,
                     duration_s: float) -> tuple[tuple[str, float], ...]:
    """Busy core-time per node as a share of its core-time over the horizon."""
    return tuple(
        (node.id, busy[idx] / (node.cores * duration_s))
        for idx, node in enumerate(topo.nodes)
        if node.layer.value in ("edge-server", "cloud") or busy[idx] > 0.0
    )


def _trace_lines(topo: TopologySpec, rows) -> list[str]:
    """One line per kernel trace row (time, seq, kind, task, extra): time, seq,
    kind name and subject, tab-separated."""
    kinds = pykernel.TRACE_KINDS
    nodes = [node.id for node in topo.nodes]
    device = lru_cache(maxsize=None)(device_node_id)
    arrival, transfer, end = (pykernel.TR_TASK_ARRIVAL, pykernel.TR_TRANSFER_COMPLETE,
                              pykernel.TR_SIMULATION_END)
    lines = []
    append = lines.append
    for time, seq, kind, task, extra in rows:
        if kind == arrival:
            append(f"{time:.17g}\t{seq}\t{kinds[kind]}\ttask=t{task} src={device(extra)}")
        elif kind == transfer:
            append(f"{time:.17g}\t{seq}\t{kinds[kind]}\ttask=t{task} "
                   f"leg={'up' if extra == 0 else 'down'}")
        elif kind == end:
            append(f"{time:.17g}\t{seq}\t{kinds[kind]}\t-")
        else:
            append(f"{time:.17g}\t{seq}\t{kinds[kind]}\ttask=t{task} node={nodes[extra]}")
    return lines


def write_trace(fh, topo: TopologySpec, trace: pykernel.Trace,
                backend: str = "python") -> None:
    """Write the event-trace file to the binary file `fh`.

    One newline-terminated ASCII line per kernel trace entry. For a run the C
    kernel made (`backend` "c"), the C library formats the lines into one
    reused buffer and writes it a buffer at a time. Otherwise _trace_lines,
    the reference formatter, formats them TRACE_CHUNK entries at a time, each
    chunk's rows zipped from slices of the trace columns. Either way the text
    of at most one buffer or chunk is held at once, and the bytes are the same.
    """
    if backend == "c":
        _kernel.c_library().write_trace(fh, trace,
                                        [node.id.encode("ascii") for node in topo.nodes])
        return
    for start in range(0, len(trace.time), TRACE_CHUNK):
        lines = _trace_lines(topo, zip(*(column[start:start + TRACE_CHUNK]
                                         for column in trace)))
        lines.append("")  # the join then ends the chunk with a newline
        fh.write("\n".join(lines).encode("ascii"))


def run_simulation(params: RunParams, backend: str | None = "auto",
                   collect_trace: bool = False) -> RunResult:
    """Execute one deterministic run and summarize it.

    With collect_trace the kernel's trace columns are kept in
    `outputs.trace`, for write_trace. The kernel checks the run's invariants
    and raises SimulationError when one breaks; that is a bug, not a data
    point.
    """
    backend = _kernel.resolve_backend(backend)
    topo = topology_preset(params.topology, params.scenario, params.cpu_mips,
                           params.calibration)
    inputs = build_kernel_inputs(params, topo, collect_trace, backend)
    out = _kernel.run(inputs, topo.nodes, backend=backend)
    summary = summarize(
        len(inputs.arrival_time),
        out.latencies,
        deadline_s=params.scenario.deadline_s,
        scenario=params.scenario.name,
        topology=params.topology,
        cpu=params.cpu_name(),
        mips=params.cpu_mips,
        seed=params.seed,
        strict_deadline=params.calibration.strict_deadline_tsr,
        node_utilization=node_utilization(topo, out.busy, params.duration_s),
    )
    return RunResult(params=params, topology=topo, inputs=inputs, outputs=out,
                     summary=summary, backend=backend)
