"""ctypes binding of the C kernel in kernel.c, a mirror of pykernel.run.

The kernel reads the `array` columns of KernelInputs where they are, and
writes the output and trace columns Python allocates as `array`s; one `_Run`
struct passes their addresses, so no column is copied either way. The C code
holds no Python object and allocates only run-local state. The trace columns
are allocated for the most entries a run can record, and the latency column
for one latency per task; both are trimmed to what the kernel wrote.
"""

from __future__ import annotations

import ctypes
from array import array

from ..engine import SimulationError
from .pykernel import (DECOMPOSITION_TOLERANCE_S, INPUT_TYPECODES, OUTPUT_TYPECODES,
                       KernelInputs, KernelOutputs, Trace, _out_of_order, _past,
                       _unconserved, _undecomposed)

# return codes of ponedge_run
_PAST = 1
_DUPLICATE_MEMBER = 2
_NO_MEMORY = 3
_DECOMPOSITION = 4
_ORDER = 5
_CONSERVATION = 6

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
        ("tolerance", _double),
        ("node_of", _address), ("uplink_done", _address), ("exec_start", _address),
        ("exec_end", _address), ("delivered_at", _address), ("final_phase", _address),
        ("busy", _address), ("latencies", _address), ("n_latencies", _int),
        ("processed_events", _long),
        ("trace_time", _address), ("trace_seq", _address), ("trace_kind", _address),
        ("trace_task", _address), ("trace_extra", _address), ("trace_len", _long),
        ("error_a", _double), ("error_b", _double), ("error_task", _int),
    ]


# the struct fields of the trace columns, in Trace field order
_TRACE = ["trace_" + name for name in Trace._fields]


def _within(values, low: int, high: int) -> bool:
    return not values or (min(values) >= low and max(values) < high)


def _check(inp: KernelInputs) -> None:
    """Reject inputs whose column types, sizes or indices would take the C
    kernel out of bounds."""
    for name, code in INPUT_TYPECODES.items():
        column = getattr(inp, name)
        if not (isinstance(column, array) and column.typecode == code):
            raise TypeError(f"kernel input {name} must be an array of type code {code!r}")
    n_nodes = len(inp.cores)
    n_slots = len(inp.candidate_nodes)
    # with no candidate, no task is placed and no device's routes are read
    n_devices = len(inp.up_route) // n_slots if n_slots else 2**31
    if not (all(len(column) == n_nodes for column in (inp.mips_per_core, inp.weight,
                                                       inp.ram_capacity, inp.storage_capacity))
            and len(inp.link_hop_delay) == len(inp.link_bandwidth)
            and len(inp.arrival_device) == len(inp.arrival_time)
            and (len(inp.up_route) % n_slots == 0 if n_slots else not inp.up_route)
            and len(inp.route_start) > 0
            and _within(inp.cores, 1, 2**31)
            and _within(inp.candidate_nodes, 0, n_nodes)
            and _within(inp.route_start, 0, len(inp.route_hops) + 1)
            and _within(inp.route_hops, 0, 2 * len(inp.link_bandwidth))
            and _within(inp.up_route, 0, len(inp.route_start) - 1)
            and _within(inp.arrival_device, 0, n_devices)):
        raise ValueError("kernel inputs have mismatched sizes or out-of-range indices")


def _error(status: int, run: _Run) -> Exception:
    """The exception pykernel raises for what ponedge_run returned `status` for."""
    if status == _PAST:
        return _past(run.error_a, run.error_b)
    if status == _DUPLICATE_MEMBER:
        return SimulationError(f"transfer token {run.error_task} already on link")
    if status == _DECOMPOSITION:
        return _undecomposed(run.error_task, run.error_a, run.error_b)
    if status == _ORDER:
        return _out_of_order(run.error_task)
    if status == _CONSERVATION:
        return _unconserved(run.n_tasks, int(run.error_a), int(run.error_b))
    return MemoryError("the C kernel could not allocate its run state")


def load(path: str):
    """The `run(inputs) -> KernelOutputs` of the kernel library at `path`."""
    kernel = ctypes.CDLL(path).ponedge_run
    kernel.argtypes = [ctypes.POINTER(_Run)]
    kernel.restype = _int

    def run(inputs: KernelInputs) -> KernelOutputs:
        inp = inputs
        _check(inp)
        n_tasks = len(inp.arrival_time)
        outputs = {name: array(code, [0]) * n_tasks for name, code in OUTPUT_TYPECODES.items()}
        outputs["busy"] = array("d", [0]) * len(inp.cores)
        columns = {name: getattr(inp, name) for name in INPUT_TYPECODES} | outputs
        trace = None
        if inp.collect_trace:
            # at most arrival, two transfers, execution start and end, and
            # delivery per task, plus the simulation end
            trace = Trace.allocate(6 * n_tasks + 1)
            columns.update(zip(_TRACE, trace))
        # `columns` keeps every buffer alive until the call returns
        run = _Run(
            n_nodes=len(inp.cores), n_candidates=len(inp.candidate_nodes),
            n_links=len(inp.link_bandwidth), n_routes=len(inp.route_start) - 1,
            n_tasks=n_tasks, length_mi=inp.length_mi, request_bits=inp.request_bits,
            result_bits=inp.result_bits, task_ram_mb=inp.task_ram_mb,
            task_storage_mb=inp.task_storage_mb, strategy=inp.strategy,
            control_delay_s=inp.control_delay_s, duration_s=inp.duration_s,
            tolerance=DECOMPOSITION_TOLERANCE_S,
            **{name: column.buffer_info()[0] for name, column in columns.items()},
        )
        status = kernel(ctypes.byref(run))
        if status:
            raise _error(status, run)
        del outputs["latencies"][run.n_latencies:]
        if trace is not None:
            for column in trace:
                del column[run.trace_len:]
        return KernelOutputs(**outputs, processed_events=run.processed_events, trace=trace)

    return run
