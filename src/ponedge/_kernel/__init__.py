"""The kernel contract, and its two backends behind one interface.

The contract is what both kernels read and write: the KernelInputs,
KernelOutputs and Trace columns with their array type codes, the trace,
phase and strategy codes, and the errors a run raises: SimulationError, built
here for both kernels, when a run breaks an invariant. check_inputs states
what valid KernelInputs are, and both backends call it first. library(backend)
returns a backend's implementation of run, arrivals, write_trace and
write_tasks: the C kernel's ckernel.Library, or pykernel, the whole
pure-Python backend and the reference. pykernel is imported the first time a
backend resolves to `python`, so a process on the C kernel never compiles it.
This package alone turns a backend name into a kernel: the modules above it
call library() and run() with none, and get the kernel this process resolved.

The first request that may use the C kernel compiles the shipped kernel.c
with the C compiler this interpreter was built with, into
`$XDG_CACHE_HOME/ponedge` (default `~/.cache/ponedge`), and loads it through
ctypes. Later processes find the library there and only hash, stat and load
it. Importing this package compiles and loads nothing.
"""

from __future__ import annotations

import os
import shlex
import shutil
import sys
import sysconfig
from array import array
from typing import NamedTuple

from ..network import ConfigurationError, Record

# trace kinds, and the name the trace file prints for each, indexed by code
TR_TASK_ARRIVAL = 0
TR_TRANSFER_COMPLETE = 1
TR_EXECUTION_START = 2
TR_EXECUTION_COMPLETE = 3
TR_RESULT_DELIVERED = 4
TR_SIMULATION_END = 5
TRACE_KINDS = ("TaskArrival", "TransferComplete", "ExecutionStart", "ExecutionComplete",
               "ResultDelivered", "SimulationEnd")

# task phases
PH_PENDING = 0
PH_UP = 1
PH_QUEUED = 2
PH_RUNNING = 3
PH_DOWN = 4
PH_DELIVERED = 5
PH_NO_PLACEMENT = 6

STRATEGY_TRADE_OFF = 0
STRATEGY_ROUND_ROBIN = 1

# How far a delivered task's stage durations may sum from its latency.
DECOMPOSITION_TOLERANCE_S = 1e-12


class KernelInputs(Record):
    """Flat, index-based description of one run: `array` columns of the
    INPUT_TYPECODES types, which the C kernel reads without a copy."""

    # nodes, index-aligned
    mips_per_core: array
    cores: array
    weight: array
    ram_capacity: array
    storage_capacity: array
    # scheduler candidates as node indices, in node-id order
    candidate_nodes: array
    # links
    link_bandwidth: array
    link_hop_delay: array  # propagation + fixed, per traversal
    # route r is route_hops[route_start[r]:route_start[r + 1]], hop codes
    # (link_index * 2 + direction) in uplink order, Local hops omitted; route
    # device * len(candidate_nodes) + slot goes from that device to that slot
    route_start: array
    route_hops: array
    # arrivals, sorted by (time, device)
    arrival_time: array
    arrival_device: array
    # per-task constants for this scenario
    length_mi: float
    request_bits: float
    result_bits: float
    task_ram_mb: float
    task_storage_mb: float
    # control
    strategy: int
    control_delay_s: float
    duration_s: float
    collect_trace: bool


class Trace(NamedTuple):
    """The trace as five flat columns in (time, seq) order; zip(*trace) gives the rows."""

    time: array
    seq: array
    kind: array  # a TR_* code
    task: array  # -1 for the simulation end
    extra: array  # source device, leg (0 up, 1 down) or node; -1 at the end

    @classmethod
    def allocate(cls, length: int = 0) -> Trace:
        """Columns of `length` zeroed entries each."""
        return cls(*(array(code, [0]) * length for code in TRACE_TYPECODES))


# The array type codes of the KernelInputs, the KernelOutputs and the Trace
# columns, in field order; both backends read and write exactly these.
INPUT_TYPECODES = {"mips_per_core": "d", "cores": "i", "weight": "d", "ram_capacity": "d",
                   "storage_capacity": "d", "candidate_nodes": "i", "link_bandwidth": "d",
                   "link_hop_delay": "d", "route_start": "i", "route_hops": "i",
                   "arrival_time": "d", "arrival_device": "i"}
OUTPUT_TYPECODES = {"node_of": "i", "uplink_done": "d", "exec_start": "d", "exec_end": "d",
                    "delivered_at": "d", "final_phase": "i", "busy": "d", "latencies": "d"}
TRACE_TYPECODES = ("d", "q", "i", "i", "i")
# what a tasks.csv row formats: its creation time, then these KernelOutputs columns
TASK_TEXT_COLUMNS = ("created", "node_of", "uplink_done", "exec_start", "exec_end", "delivered_at")

def _spans(values: array, low: int, high: int) -> bool:
    """Every entry of `values` in [low, high)."""
    # one pass over the distinct entries: min and max of a 300k-task column
    # take about twice as long
    distinct = set(values)
    return not distinct or (low <= min(distinct) and max(distinct) < high)


def _require(holds: bool, clause: str) -> None:
    if not holds:
        raise ValueError(f"kernel input {clause}")


def check_inputs(inputs: KernelInputs) -> None:
    """Refuse inputs that break the KernelInputs contract, before either
    backend reads a column, so that both refuse alike and the C kernel never
    reads outside its columns.

    TypeError: a column is not an `array` of its INPUT_TYPECODES code.
    ValueError, whose text names the first clause broken, in this order: the
    node, link or arrival columns differ in length; route_start does not
    rise from 0 to len(route_hops); the route count is not a multiple of the
    candidate slots; a candidate is not a node, a hop code not in
    [0, 2 * links), an arrival device not in [0, routes / slots) (only >= 0
    with no slot), a node has no core, a mips_per_core or link_bandwidth
    entry is not > 0 (NaN is not; a Local link's inf is), or length_mi,
    request_bits, result_bits, control_delay_s, duration_s or a
    link_hop_delay entry is not >= 0 (NaN is not; inf is).
    MemoryError: the cores sum past a C int, which indexes a run's cores.

    So the event loops check only the arrival order against the clock: every
    other event is scheduled at the clock plus a term that is >= 0 or NaN
    (bits over a rate > 0, with drained bits clamped at 0; a hop delay; the
    control delay; length_mi over MIPS, after a start no earlier than the
    clock), and IEEE addition of such a term never lands below the clock.
    """
    for name, code in INPUT_TYPECODES.items():
        column = getattr(inputs, name)
        if not (isinstance(column, array) and column.typecode == code):
            raise TypeError(f"kernel input {name} must be an array of type code {code!r}")
    inp = inputs
    n_nodes = len(inp.cores)
    n_slots = len(inp.candidate_nodes)
    starts = inp.route_start.tolist()
    n_routes = len(starts) - 1
    for name in ("mips_per_core", "weight", "ram_capacity", "storage_capacity"):
        _require(len(getattr(inp, name)) == n_nodes, f"{name} must have one entry per node")
    _require(len(inp.link_hop_delay) == len(inp.link_bandwidth),
             "link_hop_delay must have one entry per link")
    _require(len(inp.arrival_device) == len(inp.arrival_time),
             "arrival_device must have one entry per arrival")
    _require(n_routes >= 0 and starts[0] == 0 and starts[-1] == len(inp.route_hops)
             and starts == sorted(starts), "route_start must rise from 0 to len(route_hops)")
    _require(not n_slots or n_routes % n_slots == 0,
             "route_start must hold a multiple of len(candidate_nodes) routes")
    _require(_spans(inp.candidate_nodes, 0, n_nodes), "candidate_nodes must be node indices")
    _require(_spans(inp.route_hops, 0, 2 * len(inp.link_bandwidth)),
             "route_hops must be hop codes in [0, 2 * links)")
    _require(_spans(inp.arrival_device, 0, n_routes // n_slots if n_slots else 2**31),
             "arrival_device must be a device index in [0, routes / candidate slots)")
    _require(_spans(inp.cores, 1, 2**31), "cores must be >= 1")
    for name in ("mips_per_core", "link_bandwidth"):
        _require(all(value > 0.0 for value in getattr(inp, name)), f"{name} must be > 0")
    for name in ("length_mi", "request_bits", "result_bits", "control_delay_s", "duration_s"):
        _require(getattr(inp, name) >= 0.0, f"{name} must be >= 0")
    _require(all(value >= 0.0 for value in inp.link_hop_delay), "link_hop_delay must be >= 0")
    total = sum(inp.cores)
    if total > 2**31 - 1:
        raise MemoryError(f"the nodes hold {total} cores, more than a run can allocate")


def _text_columns(names, columns, codes) -> dict[str, array]:
    """The columns a text writer formats, by name, once each is checked to be an `array` of
    its type code as long as the first; both backends' writers check before writing."""
    for name, column, code in zip(names, columns, codes):
        if not (isinstance(column, array) and column.typecode == code):
            raise TypeError(f"text column {name} must be an array of type code {code!r}")
        if len(column) != len(columns[0]):
            raise ValueError(f"text column {name} has {len(column)} entries, not {len(columns[0])}")
    return dict(zip(names, columns))


def trace_text_columns(trace: Trace) -> dict[str, array]:
    return _text_columns(Trace._fields, trace, TRACE_TYPECODES)


def tasks_text_columns(generated_at: array, out: KernelOutputs) -> dict[str, array]:
    outputs = TASK_TEXT_COLUMNS[1:]
    return _text_columns(TASK_TEXT_COLUMNS, [generated_at, *(getattr(out, n) for n in outputs)],
                         ["d", *(OUTPUT_TYPECODES[n] for n in outputs)])


class KernelOutputs(Record):
    # per task, `array` columns
    node_of: array  # -1 when never placed
    uplink_done: array  # NaN when the phase was not reached
    exec_start: array
    exec_end: array
    delivered_at: array
    final_phase: array
    # from the post-run pass
    busy: array  # per node: busy core-time, clipped at the horizon
    latencies: array  # delivered - created of each delivered task, ascending
    processed_events: int
    trace: Trace | None


class SimulationError(Exception):
    """Fatal logic error inside a run (aborts the run with a diagnostic)."""


def _past(time: float, now: float) -> SimulationError:
    return SimulationError(f"scheduled event at t={time!r} in the past (clock={now!r})")


def _undecomposed(task: int, parts: float, latency: float) -> SimulationError:
    return SimulationError(f"latency decomposition violated for task {task}: "
                           f"components {parts!r} vs latency {latency!r}")


def _out_of_order(task: int) -> SimulationError:
    return SimulationError(f"lifecycle timestamps out of order for task {task}")


def _unconserved(generated: int, delivered: int, unfinished: int) -> SimulationError:
    return SimulationError(f"conservation violated: {generated} generated != "
                           f"{delivered} delivered + {unfinished} unfinished")


def _no_text() -> ValueError:
    return ValueError("a text row has a kind or node index with no text")


# CPython's own sha256 module, as random.py does: hashlib loads OpenSSL, which
# adds about 3.6 MB to the resident set of every process that resolves a backend.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")
# kernel.c uses no CPython API: it is built as a plain shared library. No
# -ffast-math, and no fused multiply-adds: the C kernel must keep strict IEEE
# semantics to stay bit-identical with pykernel.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


class _NoCompiler(ConfigurationError):
    """No C compiler to build the C kernel with, and no library built before."""


def compiler_argv() -> list[str]:
    """The compile command of the C kernel, without its output and source paths."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc") + list(CFLAGS)


def _library_path() -> str:
    """The C kernel's shared library, compiled into the cache if it is not there.

    Raises _NoCompiler when there is no compiler to build it with, and
    ConfigurationError with the compiler's error when the build fails. Two
    processes building at once each compile into their own staging file; the
    rename that publishes it is atomic, so either library may be loaded.
    """
    argv = compiler_argv()
    # keyed by everything that goes into the library, so that one built from
    # another kernel.c, compiler or interpreter is never loaded
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ""
    with open(SOURCE, "rb") as fh:
        key = fh.read() + "\0".join(["", *argv, suffix]).encode()
    directory = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.join(os.path.expanduser("~"), ".cache"), "ponedge")
    path = os.path.join(directory, f"kernel-{sha256(key).hexdigest()[:16]}.so")
    if os.path.isfile(path):
        return path
    if shutil.which(argv[0]) is None:
        raise _NoCompiler(f"no C compiler ({argv[0]!r} is not on PATH) and no C kernel "
                          f"built in {directory}")
    import subprocess  # only a build needs these
    import tempfile

    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, staging = tempfile.mkstemp(prefix=os.path.basename(path) + ".tmp-", dir=directory)
        os.close(fd)
        try:
            done = subprocess.run([*argv, "-o", staging, SOURCE], capture_output=True,
                                  text=True)
            if done.returncode != 0:
                raise ConfigurationError(
                    f"the C kernel did not compile ({' '.join(argv)} exited "
                    f"{done.returncode}):\n" + (done.stderr or done.stdout).strip())
            os.replace(staging, path)
        finally:
            if os.path.exists(staging):
                os.remove(staging)
    except OSError as exc:
        raise ConfigurationError(f"cannot build the C kernel in {directory}: {exc}") from None
    return path


_clib = None  # the C kernel's ckernel.Library, once built and loaded
_cerror: ConfigurationError | None = None  # why it could not be, once that failed


def _c_kernel(warn: bool = False):
    """The C kernel's library, built and loaded on first call; None if it cannot be.

    With warn, a failed build (not a missing compiler) is reported on stderr
    in one line, since the caller then falls back to pure Python.
    """
    global _clib, _cerror
    if _clib is None and _cerror is None:
        try:
            path = _library_path()
            from .ckernel import load  # ctypes, once there is a library to load

            try:
                _clib = load(path)
            except OSError as exc:
                raise ConfigurationError(f"cannot load the C kernel {path}: {exc}") from None
        except ConfigurationError as exc:
            _cerror = exc
            if warn and not isinstance(exc, _NoCompiler):
                print("ponedge: the C kernel could not be built, so the pure-Python kernel runs "
                      "(PONEDGE_BACKEND=c shows why)", file=sys.stderr)
    return _clib


def available_backends() -> list[str]:
    """The backends this process can run; asking builds the C kernel if needed."""
    return (["c"] if _c_kernel() is not None else []) + ["python"]


def resolve_backend(name: str | None = "auto") -> str:
    """Map auto/env request to a concrete backend name.

    `auto` is `c` when the C kernel builds and loads, else `python`; `python`
    never builds it. An unknown name, or `c` when the C kernel cannot be
    built, is a ConfigurationError.
    """
    if name in (None, "auto"):
        name = os.environ.get("PONEDGE_BACKEND", "auto")
    if name not in ("auto", "c", "python"):
        raise ConfigurationError(f"unknown backend {name!r} (valid: auto, c, python)")
    if name == "python":
        return name
    if _c_kernel(warn=name == "auto") is not None:
        return "c"
    if name == "c":
        raise _cerror
    return "python"


def library(backend: str | None = "auto"):
    """The implementation `backend` resolves to: the C kernel's ckernel.Library,
    built and loaded if needed, or the pykernel module, whose functions it
    mirrors with the same signatures, results and bytes."""
    if resolve_backend(backend) == "c":
        return _clib
    from . import pykernel  # the pure-Python backend, compiled only where it runs

    return pykernel


def run(inputs: KernelInputs, node_specs=None, backend: str | None = "auto") -> KernelOutputs:
    """Run one simulation on `backend`'s library; the inputs carry every node constant.

    `node_specs` is ignored. It stays because perfbench replays recorded calls
    as `(inputs, node_specs)`.
    """
    return library(backend).run(inputs)
