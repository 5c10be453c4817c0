"""ctypes binding of the C kernel in kernel.c: the C backend's Library, whose
run, arrivals, write_trace and write_tasks mirror pykernel's functions of the
same names and signatures.

The kernel reads the `array` columns of KernelInputs where they are, and
writes the output and trace columns Python allocates as `array`s; one `_Run`
struct passes their addresses, so no column is copied either way. run calls
check_inputs first, so the C code checks no index or length: every one it
reads lies inside the columns it is given. It holds no Python object and
allocates only run-local state. The trace columns are allocated for the most
entries a run can record, and the latency column for one latency per task;
both are trimmed to what the kernel wrote.

The arrival draw continues each device's engine.Stream from the state Python
seeded, so seeding has one implementation. It counts the arrivals first,
refuses more than workload.MAX_TASKS, then fills `array` columns of that
length, sorted by (time, device).

The text writers encode the labels, format the columns into one reused
buffer of `capacity` bytes and write it to a binary file a buffer at a time,
with no Python string per line.
"""

from __future__ import annotations

import ctypes
from array import array
from collections.abc import Sequence
from itertools import accumulate
from typing import Callable, NamedTuple

from ..engine import SimulationError
from ..network import ConfigurationError
from ..workload import MAX_TASKS, arrival_streams
from . import (DECOMPOSITION_TOLERANCE_S, INPUT_TYPECODES, OUTPUT_TYPECODES, TRACE_TYPECODES,
               KernelInputs, KernelOutputs, Trace, _out_of_order, _past, _unconserved,
               _undecomposed, check_inputs)

# return codes of ponedge_run
_PAST = 1
_DUPLICATE_MEMBER = 2
_NO_MEMORY = 3
_DECOMPOSITION = 4
_ORDER = 5
_CONSERVATION = 6

# Bytes of text formatted per write: about 900 trace lines. The buffer grows
# when one line alone does not fit.
TEXT_CAPACITY = 1 << 16

_int, _double, _long, _address = (ctypes.c_int, ctypes.c_double, ctypes.c_longlong,
                                  ctypes.c_void_p)


class _Run(ctypes.Structure):
    """struct kernel_run in kernel.c, field for field."""

    _fields_ = [
        ("n_nodes", _int), ("mips_per_core", _address), ("cores", _address),
        ("weight", _address), ("ram_capacity", _address), ("storage_capacity", _address),
        ("n_candidates", _int), ("candidate_nodes", _address),
        ("n_links", _int), ("link_bandwidth", _address), ("link_hop_delay", _address),
        ("n_routes", _int), ("route_start", _address), ("n_route_hops", _int),
        ("route_hops", _address),
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


class _TraceText(ctypes.Structure):
    """struct trace_text in kernel.c, field for field."""

    _fields_ = [("n_rows", _long), ("time", _address), ("seq", _address), ("kind", _address),
                ("task", _address), ("extra", _address), ("n_nodes", _int),
                ("node_text", ctypes.c_char_p), ("node_start", _address)]


class _TasksText(ctypes.Structure):
    """struct tasks_text in kernel.c, field for field."""

    _fields_ = [("n_tasks", _int), ("created", _address), ("node_of", _address),
                ("uplink_done", _address), ("exec_start", _address), ("exec_end", _address),
                ("delivered_at", _address), ("deadline_s", _double),
                ("cell", ctypes.c_char_p), ("cell_len", _int), ("n_nodes", _int),
                ("node_text", ctypes.c_char_p), ("node_start", _address)]


def _columns(named: dict[str, tuple[array, str]], length: int) -> dict[str, int]:
    """The address of each column, once it is checked to be an array of its
    type code with `length` entries."""
    for name, (column, code) in named.items():
        if not (isinstance(column, array) and column.typecode == code):
            raise TypeError(f"text column {name} must be an array of type code {code!r}")
        if len(column) != length:
            raise ValueError(f"text column {name} has {len(column)} entries, not {length}")
    return {name: column.buffer_info()[0] for name, (column, _) in named.items()}


def _labels(labels: Sequence[str]) -> tuple[bytes, array]:
    """The labels UTF-8 encoded and concatenated, and the offset of each in it
    plus the end."""
    encoded = [label.encode() for label in labels]
    return b"".join(encoded), array("i", accumulate(map(len, encoded), initial=0))


class _Arrivals(ctypes.Structure):
    """struct arrivals in kernel.c, field for field."""

    _fields_ = [("n_devices", _int), ("state", _address), ("interval_s", _double),
                ("duration_s", _double), ("poisson", _int)]


class Library(NamedTuple):
    """The C backend, as library("c") returns it: its run, its arrival draw,
    and its trace and tasks.csv writers, with pykernel's signatures."""

    run: Callable[[KernelInputs], KernelOutputs]
    arrivals: Callable[..., tuple[array, array]]
    write_trace: Callable[..., None]
    write_tasks: Callable[..., None]


def load(path: str) -> Library:
    """The run, the arrival draw and the text writers of the kernel library at `path`."""
    library = ctypes.CDLL(path)
    kernel = library.ponedge_run
    kernel.argtypes = [ctypes.POINTER(_Run)]
    kernel.restype = _int
    draw = library.ponedge_arrivals
    draw.argtypes = [ctypes.POINTER(_Arrivals), _address, _address, _long]
    draw.restype = _long
    trace_text, tasks_text = library.ponedge_trace_text, library.ponedge_tasks_text
    for writer in (trace_text, tasks_text):
        writer.argtypes = [_address, _long, _address, _long, ctypes.POINTER(_long)]
        writer.restype = _long

    def run(inputs: KernelInputs) -> KernelOutputs:
        check_inputs(inputs)
        inp = inputs
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
            n_route_hops=len(inp.route_hops), n_tasks=n_tasks, length_mi=inp.length_mi,
            request_bits=inp.request_bits, result_bits=inp.result_bits,
            task_ram_mb=inp.task_ram_mb, task_storage_mb=inp.task_storage_mb, strategy=inp.strategy,
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

    def arrivals(scenario, duration_s: float, seed: int, mode: str) -> tuple[array, array]:
        """generate_arrivals' (times, devices) columns as `array("d")` and
        `array("i")`: each device continues the arrival stream Python seeded."""
        state = array("Q", [stream.state for stream in arrival_streams(scenario, seed)])
        spec = _Arrivals(n_devices=len(state), state=state.buffer_info()[0],
                         interval_s=scenario.interval_s, duration_s=duration_s,
                         poisson=mode == "poisson")
        n = draw(ctypes.byref(spec), None, None, 0)
        if n > MAX_TASKS:  # _Run.n_tasks is a C int
            raise ConfigurationError(f"{n} arrivals exceed the limit of {MAX_TASKS} tasks")
        times, devices = array("d", [0.0]) * n, array("i", [0]) * n
        if n and draw(ctypes.byref(spec), times.buffer_info()[0],
                      devices.buffer_info()[0], n) != n:
            raise MemoryError("the C kernel could not allocate the arrivals")
        return times, devices

    def write_text(fh, fill, text, rows: int, capacity: int) -> None:
        # `text` holds the addresses of columns its caller keeps alive
        buffer = ctypes.create_string_buffer(capacity)
        done = _long()
        start = 0
        while start < rows:
            size = fill(ctypes.addressof(text), start, ctypes.addressof(buffer), len(buffer),
                        ctypes.byref(done))
            if size < 0:
                raise ValueError("a text row has a kind or node index with no text")
            if done.value == 0:  # the next line alone is longer than the buffer
                buffer = ctypes.create_string_buffer(max(2 * len(buffer), 256))
                continue
            fh.write(memoryview(buffer)[:size])
            start += done.value

    def write_trace(fh, trace: Trace, node_ids: Sequence[str], *,
                    capacity: int = TEXT_CAPACITY) -> None:
        """Write the trace file's lines to the binary file `fh`; node_ids maps
        a node index to its id."""
        rows = len(trace.time)
        node_text, node_start = _labels(node_ids)
        text = _TraceText(n_rows=rows, n_nodes=len(node_ids), node_text=node_text,
                          node_start=node_start.buffer_info()[0],
                          **_columns({name: (column, code) for name, column, code
                                      in zip(Trace._fields, trace, TRACE_TYPECODES)}, rows))
        write_text(fh, trace_text, text, rows, capacity)

    def write_tasks(fh, generated_at: array, out: KernelOutputs, node_cells: Sequence[str],
                    deadline_s: float, cell: str, *, capacity: int = TEXT_CAPACITY) -> None:
        """Write the tasks.csv rows, UTF-8 encoded, to the binary file `fh`.
        node_cells maps a node index to its id as a quoted CSV cell, and `cell`
        is the quoted scenario, topology, cpu and seed cells."""
        rows = len(generated_at)
        node_text, node_start = _labels(node_cells)
        cell_text = cell.encode()
        named = {"created": (generated_at, "d")} | {
            name: (getattr(out, name), OUTPUT_TYPECODES[name])
            for name in ("node_of", "uplink_done", "exec_start", "exec_end", "delivered_at")}
        text = _TasksText(n_tasks=rows, deadline_s=deadline_s, cell=cell_text,
                          cell_len=len(cell_text), n_nodes=len(node_cells), node_text=node_text,
                          node_start=node_start.buffer_info()[0], **_columns(named, rows))
        write_text(fh, tasks_text, text, rows, capacity)

    return Library(run, arrivals, write_trace, write_tasks)
