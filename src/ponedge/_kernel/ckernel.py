"""ctypes binding of the C kernel in kernel.c: the C backend's Library, whose
run, arrivals, write_trace and write_tasks mirror pykernel's functions of the
same names and signatures.

The kernel reads the `array` columns of KernelInputs where they are, and
writes the output and trace columns Python allocates as `array`s; one `_Run`
struct passes their addresses, so no column is copied either way. `_Run`
lists the lengths, then the contract's input, output and trace columns and
KernelInputs' floats, each in the contract's order, then the rest; struct
kernel_run in kernel.c follows it, and tests/test_kernel_build.py pins each
struct here to its C declaration. run calls check_inputs first, so the C code
checks no index or length: every one it reads lies inside the columns it is
given. It holds no Python object and allocates only run-local state. The
trace columns are allocated for the most entries a run can record, and the
latency column for one latency per task; both are trimmed to what the kernel
wrote.

The arrival draw continues each device's workload.Stream from the state Python
seeded, so seeding has one implementation. It counts the arrivals first,
refuses more than workload.MAX_TASKS, then fills `array` columns of that
length, sorted by (time, device).

The text writers check their columns as pykernel's do, encode the labels,
format the columns into one reused buffer of TEXT_CAPACITY bytes and write
it to a binary file a buffer at a time, with no Python string per line.
"""

from __future__ import annotations

import ctypes
from array import array
from collections.abc import Sequence
from itertools import accumulate
from typing import Callable, NamedTuple

from ..network import ConfigurationError
from ..workload import MAX_TASKS, arrival_streams
from . import (DECOMPOSITION_TOLERANCE_S, INPUT_TYPECODES, OUTPUT_TYPECODES, TASK_TEXT_COLUMNS,
               KernelInputs, KernelOutputs, Trace, _no_text, _out_of_order, _past,
               _unconserved, _undecomposed, check_inputs, tasks_text_columns,
               trace_text_columns)

# return codes of ponedge_run; any other is KERNEL_NO_MEMORY
_PAST = 1
_DECOMPOSITION = 3
_ORDER = 4
_CONSERVATION = 5

# Bytes of text formatted per write: about 900 trace lines, read at each
# write. The buffer grows when one line alone does not fit.
TEXT_CAPACITY = 1 << 16

_int, _double, _long, _address = (ctypes.c_int, ctypes.c_double, ctypes.c_longlong,
                                  ctypes.c_void_p)

# the struct fields of the trace columns, in Trace field order
_TRACE = ["trace_" + name for name in Trace._fields]
# the float constants of KernelInputs, in field order
_NUMBERS = [name for name, kind in KernelInputs.__annotations__.items() if kind == "float"]


class _Run(ctypes.Structure):
    """struct kernel_run in kernel.c, field for field, from the contract's lists."""

    _fields_ = [
        *((name, _int) for name in ("n_nodes", "n_candidates", "n_links", "n_routes", "n_tasks")),
        *((name, _address) for name in (*INPUT_TYPECODES, *OUTPUT_TYPECODES, *_TRACE)),
        *((name, _double) for name in _NUMBERS),
        ("tolerance", _double), ("strategy", _int),
        ("n_latencies", _int), ("processed_events", _long), ("trace_len", _long),
        ("error_a", _double), ("error_b", _double), ("error_task", _int),
    ]


def _error(status: int, run: _Run) -> Exception:
    """The exception pykernel raises for what ponedge_run returned `status` for."""
    if status == _PAST:
        return _past(run.error_a, run.error_b)
    if status == _DECOMPOSITION:
        return _undecomposed(run.error_task, run.error_a, run.error_b)
    if status == _ORDER:
        return _out_of_order(run.error_task)
    if status == _CONSERVATION:
        return _unconserved(run.n_tasks, int(run.error_a), int(run.error_b))
    return MemoryError("the C kernel could not allocate its run state")


class _TraceText(ctypes.Structure):
    """struct trace_text in kernel.c, field for field."""

    _fields_ = [("n_rows", _long), *((name, _address) for name in Trace._fields),
                ("n_nodes", _int), ("node_text", ctypes.c_char_p), ("node_start", _address)]


class _TasksText(ctypes.Structure):
    """struct tasks_text in kernel.c, field for field."""

    _fields_ = [("n_tasks", _int), *((name, _address) for name in TASK_TEXT_COLUMNS),
                ("deadline_s", _double), ("cell", ctypes.c_char_p), ("cell_len", _int),
                ("n_nodes", _int), ("node_text", ctypes.c_char_p), ("node_start", _address)]


def _addresses(columns: dict[str, array]) -> dict[str, int]:
    return {name: column.buffer_info()[0] for name, column in columns.items()}


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
        n_nodes, n_tasks = len(inp.cores), len(inp.arrival_time)
        outputs = {name: array(code, [0]) * (n_nodes if name == "busy" else n_tasks)
                   for name, code in OUTPUT_TYPECODES.items()}
        columns = {name: getattr(inp, name) for name in INPUT_TYPECODES} | outputs
        trace = None
        if inp.collect_trace:
            # at most arrival, two transfers, execution start and end, and
            # delivery per task, plus the simulation end
            trace = Trace.allocate(6 * n_tasks + 1)
            columns.update(zip(_TRACE, trace))
        # `columns` keeps every buffer alive until the call returns
        run = _Run(
            n_nodes=n_nodes, n_candidates=len(inp.candidate_nodes),
            n_links=len(inp.link_bandwidth), n_routes=len(inp.route_start) - 1, n_tasks=n_tasks,
            **_addresses(columns),
            **{name: getattr(inp, name) for name in _NUMBERS},
            tolerance=DECOMPOSITION_TOLERANCE_S, strategy=inp.strategy,
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

    def write_text(fh, fill, text, rows: int) -> None:
        # `text` holds the addresses of columns its caller keeps alive
        buffer = ctypes.create_string_buffer(TEXT_CAPACITY)
        done = _long()
        start = 0
        while start < rows:
            size = fill(ctypes.addressof(text), start, ctypes.addressof(buffer), len(buffer),
                        ctypes.byref(done))
            if size < 0:
                raise _no_text()
            if done.value == 0:  # the next line alone is longer than the buffer
                buffer = ctypes.create_string_buffer(max(2 * len(buffer), 256))
                continue
            fh.write(memoryview(buffer)[:size])
            start += done.value

    def write_trace(fh, trace: Trace, node_ids: Sequence[str]) -> None:
        """Write the trace file's lines to the binary file `fh`; node_ids maps
        a node index to its id."""
        columns = _addresses(trace_text_columns(trace))
        rows = len(trace.time)
        node_text, node_start = _labels(node_ids)
        text = _TraceText(n_rows=rows, n_nodes=len(node_ids), node_text=node_text,
                          node_start=node_start.buffer_info()[0], **columns)
        write_text(fh, trace_text, text, rows)

    def write_tasks(fh, generated_at: array, out: KernelOutputs, node_cells: Sequence[str],
                    deadline_s: float, cell: str) -> None:
        """Write the tasks.csv rows, UTF-8 encoded, to the binary file `fh`.
        node_cells maps a node index to its id as a quoted CSV cell, and `cell`
        is the quoted scenario, topology, cpu and seed cells."""
        columns = _addresses(tasks_text_columns(generated_at, out))
        rows = len(generated_at)
        node_text, node_start = _labels(node_cells)
        cell_text = cell.encode()
        text = _TasksText(n_tasks=rows, deadline_s=deadline_s, cell=cell_text,
                          cell_len=len(cell_text), n_nodes=len(node_cells), node_text=node_text,
                          node_start=node_start.buffer_info()[0], **columns)
        write_text(fh, tasks_text, text, rows)

    return Library(run, arrivals, write_trace, write_tasks)
