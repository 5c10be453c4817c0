"""Wires config, workload, placement candidates and the kernel into one run."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

from . import _kernel
from .compute import NodeLayer
from .config import (Calibration, DEFAULT_CALIBRATION, TopologySpec, cpu_label,
                     device_node_id, topology_preset)
from .metrics import RunSummary, TaskRecord, summarize
from .network import BITS_PER_KB, LinkKind, route_between
from .workload import ScenarioSpec, generate_arrivals
from ._kernel import pykernel

# Trace entries formatted per write: about 70 KB of text. Its lines, their join
# and its encoding are the largest transient memory of a traced run.
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
    """One run: the kernel's per-task columns are the record store."""

    params: RunParams
    topology: TopologySpec
    inputs: pykernel.KernelInputs
    outputs: pykernel.KernelOutputs
    summary: RunSummary

    @property
    def processed_events(self) -> int:
        return self.outputs.processed_events

    @property
    def records(self) -> list[TaskRecord]:
        """Per-task records, built from the columns on each access."""
        return _build_records(self.params, self.topology, self.inputs, self.outputs)


def eligible_nodes(node_specs, far_edge_execution: bool) -> list[str]:
    """Ids of the nodes placement may choose, in id order: the edge servers and
    the cloud, plus the ONUs when far-edge execution is on."""
    layers = {NodeLayer.EDGE_SERVER, NodeLayer.CLOUD}
    if far_edge_execution:
        layers.add(NodeLayer.ONU)
    return sorted(spec.id for spec in node_specs if spec.layer in layers)


def build_kernel_inputs(params: RunParams, topo: TopologySpec,
                        collect_trace: bool) -> pykernel.KernelInputs:
    cal = params.calibration
    scenario = params.scenario
    weights = cal.layer_weights()
    node_index = {node.id: idx for idx, node in enumerate(topo.nodes)}

    candidate_ids = eligible_nodes(topo.nodes, cal.far_edge_execution)
    candidate_nodes = [node_index[nid] for nid in candidate_ids]

    link_bandwidth = array("d")
    link_hop_delay = array("d")
    for link in topo.links:
        if link.spec.kind is LinkKind.LOCAL:
            link_bandwidth.append(math.inf)
            link_hop_delay.append(0.0)
        else:
            link_bandwidth.append(link.spec.bandwidth_bps)
            link_hop_delay.append(link.spec.hop_delay_s)

    links_by_id = {link.id: link for link in topo.links}
    route_ids: dict[tuple[int, ...], int] = {}
    route_start = array("i", [0])
    route_hops = array("i")
    up_route = array("i")  # device * len(candidate_ids) + slot -> route id
    for device in range(scenario.users):
        device_id = device_node_id(device)
        for target_id in candidate_ids:
            hops = []
            for hop in route_between(topo, device_id, target_id):
                link = links_by_id[hop.link_id]
                if link.spec.kind is LinkKind.LOCAL:
                    continue  # zero-distance attachment, no event needed
                direction = 0 if hop.head == link.a else 1
                hops.append(hop.link_id * 2 + direction)
            key = tuple(hops)
            if key not in route_ids:
                route_ids[key] = len(route_start) - 1
                route_hops.extend(key)
                route_start.append(len(route_hops))
            up_route.append(route_ids[key])

    arrival_time, arrival_device = _cached_arrivals(
        scenario, params.duration_s, params.seed, params.arrivals
    )

    return pykernel.KernelInputs(
        mips_per_core=array("d", [node.mips_per_core for node in topo.nodes]),
        cores=array("i", [node.cores for node in topo.nodes]),
        weight=array("d", [weights[node.layer] for node in topo.nodes]),
        ram_capacity=array("d", [node.ram_mb for node in topo.nodes]),
        storage_capacity=array("d", [node.storage_mb for node in topo.nodes]),
        candidate_nodes=array("i", candidate_nodes),
        link_bandwidth=link_bandwidth,
        link_hop_delay=link_hop_delay,
        route_start=route_start,
        route_hops=route_hops,
        up_route=up_route,
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
                     mode: str) -> tuple[array, array]:
    # the arrival process is identical for every topology/CPU cell of a sweep;
    # the kernels only read these columns, so every cell shares them
    times, devices = generate_arrivals(scenario, duration_s, seed, mode)
    return array("d", times), array("i", devices)


def _maybe(value: float) -> float | None:
    return None if math.isnan(value) else value


def _build_records(params: RunParams, topo: TopologySpec,
                   inputs: pykernel.KernelInputs,
                   out: pykernel.KernelOutputs) -> list[TaskRecord]:
    records = []
    deadline = params.scenario.deadline_s
    for i in range(len(inputs.arrival_time)):
        delivered_at = _maybe(out.delivered_at[i])
        generated_at = inputs.arrival_time[i]
        latency = delivered_at - generated_at if delivered_at is not None else None
        records.append(TaskRecord(
            task_id=i,
            node_id=topo.nodes[out.node_of[i]].id if out.node_of[i] >= 0 else None,
            generated_at=generated_at,
            uplink_done=_maybe(out.uplink_done[i]),
            exec_start=_maybe(out.exec_start[i]),
            exec_end=_maybe(out.exec_end[i]),
            delivered_at=delivered_at,
            status="Delivered" if delivered_at is not None else "Unfinished",
            latency_s=latency,
            deadline_met=latency is not None and latency <= deadline,
        ))
    return records


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


def write_trace(fh, topo: TopologySpec, trace: pykernel.Trace) -> None:
    """Write the event-trace file to the binary file `fh`.

    One newline-terminated ASCII line per kernel trace entry, formatted and
    written TRACE_CHUNK entries at a time, each chunk's rows zipped from
    slices of the trace columns, so the text of at most one chunk is held at
    once.
    """
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
    topo = topology_preset(params.topology, params.scenario, params.cpu_mips,
                           params.calibration)
    inputs = build_kernel_inputs(params, topo, collect_trace)
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
                     summary=summary)
