"""ctypes binding of the C kernel in kernel.c, a mirror of pykernel.run.

Python allocates every column the kernel reads or writes as an `array`, and
passes their addresses in one `_Run` struct; the C code holds no Python
object and allocates only run-local state. The trace columns are allocated
for the most entries a run can record, trimmed to the kernel's `trace_len`
and handed over as they are in a `Trace`.
"""

from __future__ import annotations

import ctypes
from array import array

from ..engine import SimulationError
from .pykernel import KernelInputs, KernelOutputs, Trace, _past

# return codes of ponedge_run
_PAST = 1
_DUPLICATE_MEMBER = 2
_NO_MEMORY = 3

_int, _double, _long, _address = (ctypes.c_int, ctypes.c_double, ctypes.c_longlong,
                                  ctypes.c_void_p)


class _Run(ctypes.Structure):
    """struct kernel_run in kernel.c, field for field."""

    _fields_ = [
        ("n_nodes", _int), ("mips_per_core", _address), ("cores", _address),
        ("weight", _address), ("ram_capacity", _address), ("storage_capacity", _address),
        ("n_candidates", _int), ("candidate_nodes", _address),
        ("n_links", _int), ("link_bandwidth", _address), ("link_hop_delay", _address),
        ("n_routes", _int), ("route_start", _address), ("route_hops", _address),
        ("up_route", _address),
        ("n_tasks", _int), ("arrival_time", _address), ("arrival_device", _address),
        ("length_mi", _double), ("request_bits", _double), ("result_bits", _double),
        ("task_ram_mb", _double), ("task_storage_mb", _double),
        ("strategy", _int), ("control_delay_s", _double), ("duration_s", _double),
        ("node_of", _address), ("uplink_done", _address), ("exec_start", _address),
        ("exec_end", _address), ("delivered_at", _address), ("final_phase", _address),
        ("processed_events", _long),
        ("trace_time", _address), ("trace_seq", _address), ("trace_kind", _address),
        ("trace_task", _address), ("trace_extra", _address), ("trace_len", _long),
        ("error_time", _double), ("error_now", _double), ("error_task", _int),
    ]


# task columns the kernel writes, with their array type codes
_OUTPUTS = {"node_of": "i", "uplink_done": "d", "exec_start": "d", "exec_end": "d",
            "delivered_at": "d", "final_phase": "i"}
# the struct fields of the trace columns, in Trace field order
_TRACE = ["trace_" + name for name in Trace._fields]


def _within(values, low: int, high: int) -> bool:
    return not values or (min(values) >= low and max(values) < high)


def _check(inp: KernelInputs, route_hops: array, up_route: array) -> None:
    """Reject inputs whose sizes or indices would take the C kernel out of bounds."""
    n_nodes = len(inp.cores)
    n_slots = len(inp.candidate_nodes)
    if not (all(len(column) == n_nodes for column in (inp.mips_per_core, inp.weight,
                                                       inp.ram_capacity, inp.storage_capacity))
            and len(inp.link_hop_delay) == len(inp.link_bandwidth)
            and len(inp.arrival_device) == len(inp.arrival_time)
            and all(len(slots) == n_slots for slots in inp.up_route)
            and _within(inp.cores, 1, 2**31)
            and _within(inp.candidate_nodes, 0, n_nodes)
            and _within(route_hops, 0, 2 * len(inp.link_bandwidth))
            and _within(up_route, 0, len(inp.route_hops))
            and _within(inp.arrival_device, 0, len(inp.up_route))):
        raise ValueError("kernel inputs have mismatched sizes or out-of-range indices")


def load(path: str):
    """The `run(inputs) -> KernelOutputs` of the kernel library at `path`."""
    kernel = ctypes.CDLL(path).ponedge_run
    kernel.argtypes = [ctypes.POINTER(_Run)]
    kernel.restype = _int

    def run(inputs: KernelInputs) -> KernelOutputs:
        inp = inputs
        n_tasks = len(inp.arrival_time)
        route_start = array("i", [0])
        route_hops = array("i")
        for hops in inp.route_hops:
            route_hops.extend(hops)
            route_start.append(len(route_hops))
        columns = {
            "mips_per_core": array("d", inp.mips_per_core),
            "cores": array("i", inp.cores),
            "weight": array("d", inp.weight),
            "ram_capacity": array("d", inp.ram_capacity),
            "storage_capacity": array("d", inp.storage_capacity),
            "candidate_nodes": array("i", inp.candidate_nodes),
            "link_bandwidth": array("d", inp.link_bandwidth),
            "link_hop_delay": array("d", inp.link_hop_delay),
            "route_start": route_start,
            "route_hops": route_hops,
            "up_route": array("i", [route for slots in inp.up_route for route in slots]),
            "arrival_time": array("d", inp.arrival_time),
            "arrival_device": array("i", inp.arrival_device),
        }
        _check(inp, route_hops, columns["up_route"])
        for name, code in _OUTPUTS.items():
            columns[name] = array(code, [0]) * n_tasks
        trace = None
        if inp.collect_trace:
            # at most arrival, two transfers, execution start and end, and
            # delivery per task, plus the simulation end
            trace = Trace.allocate(6 * n_tasks + 1)
            columns.update(zip(_TRACE, trace))
        # `columns` keeps every buffer alive until the call returns
        run = _Run(
            n_nodes=len(inp.cores), n_candidates=len(inp.candidate_nodes),
            n_links=len(inp.link_bandwidth), n_routes=len(inp.route_hops), n_tasks=n_tasks,
            length_mi=inp.length_mi, request_bits=inp.request_bits,
            result_bits=inp.result_bits, task_ram_mb=inp.task_ram_mb,
            task_storage_mb=inp.task_storage_mb, strategy=inp.strategy,
            control_delay_s=inp.control_delay_s, duration_s=inp.duration_s,
            **{name: column.buffer_info()[0] for name, column in columns.items()},
        )
        status = kernel(ctypes.byref(run))
        if status == _PAST:
            raise _past(run.error_time, run.error_now)
        if status == _DUPLICATE_MEMBER:
            raise SimulationError(f"transfer token {run.error_task} already on link")
        if status == _NO_MEMORY:
            raise MemoryError("the C kernel could not allocate its run state")
        if trace is not None:
            for column in trace:
                del column[run.trace_len:]
        return KernelOutputs(
            **{name: columns[name].tolist() for name in _OUTPUTS},
            processed_events=run.processed_events,
            trace=trace,
        )

    return run
