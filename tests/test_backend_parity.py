"""The C kernel must be bit-identical to the pure-Python reference."""

import csv
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from types import SimpleNamespace

import pytest

from ponedge import _kernel
from ponedge._kernel import (OUTPUT_TYPECODES, PH_DELIVERED, PH_DOWN, PH_NO_PLACEMENT, PH_QUEUED,
                             PH_RUNNING, PH_UP, SimulationError, available_backends, ckernel,
                             compiler_argv, library, pykernel)
from ponedge.cli import main
from ponedge.config import DEFAULT_CALIBRATION, preset_shape
from ponedge.metrics import _csv_line
from ponedge.network import ConfigurationError, replace
from ponedge.simulation import RunParams, _cached_arrivals, build_kernel_inputs, run_simulation
from ponedge.workload import SCENARIOS, ScenarioSpec, generate_arrivals, scenario_preset

from fresh_process import SRC, cap_address_space, needs_compiler
from kernel_inputs import MALFORMED, kernel_inputs, mutate, random_inputs
from trace_files import trace_digest

needs_c = pytest.mark.skipif(
    "c" not in available_backends(),
    reason="C kernel not built in this environment",
)

CASES = [
    ("smart-city", "genio", 43_000.0),
    ("smart-city", "baseline", 300_000.0),
    ("e-health", "genio", 620_000.0),
    ("smart-building", "baseline", 440_000.0),
    ("aigc", "baseline", 700_000.0),  # heavy fair-share contention on the WAN
]


# Pinned results of the pure-Python kernel, equal on the C kernel: trace
# hash, processed events, tasks generated and delivered, mean and p95 latency,
# and how many tasks end the run in each phase. The aigc case ends with tasks
# still queued behind the horizon, whose execution start is never processed.
GOLDEN = {
    CASES[0]: ("0b84a32da3d19c45db3272fd93231427616016f75257b29b083cdc4daf16a488",
               3905, 481, 481, 0.011992252719616181, 0.011716906976744212,
               {PH_DELIVERED: 481}),
    CASES[1]: ("d0a06e810051d38c30ded2a99dece5161dedb432d0f46a1c8375a56a426e0710",
               5769, 481, 480, 0.02184489008781553, 0.02184466666666829,
               {PH_DOWN: 1, PH_DELIVERED: 480}),
    CASES[2]: ("c12dc9fae11a5cd3b586ba5e3123059dbf0faef3a73517526675bfc33a6b57d1",
               9217, 1152, 1152, 0.00179083521937469, 0.0017739032258088372,
               {PH_DELIVERED: 1152}),
    CASES[3]: ("c89cabd5652209ff0864d2408e3acac6ee3d3cf9ed90fc4b9774760c4a1a1c26",
               28083, 2341, 2339, 0.05374156719585558, 0.0652664803322125,
               {PH_RUNNING: 1, PH_DOWN: 1, PH_DELIVERED: 2339}),
    CASES[4]: ("b00d50767b1ae5492b378f0ab4d1959ea3fa399718647dae413b7a8627d397b0",
               25214, 2023, 2006, 1.0300526330181672, 1.4886102252801336,
               {PH_UP: 6, PH_QUEUED: 9, PH_RUNNING: 1, PH_DOWN: 1, PH_DELIVERED: 2006}),
}
# Variants of the cases above, each pinned the same way: round-robin
# placement, fixed arrivals and a control-plane delay on the WAN case; two
# edge cores with room for two tasks, so tasks queue per core and some are
# refused everywhere (27 end unplaced); round-robin over far-edge ONUs, whose
# Local-only routes need no transfer, skipping refused edge servers; and three
# edge cores under WAN contention, where a join processed at the same float
# time as a member's serialization end drains that member a rounding error
# below zero bits, which the kernels clamp at zero. All are equal on both
# kernels.
VARIANTS = {
    "aigc-baseline-700000-variant": (
        CASES[4],
        dict(strategy="round-robin", arrivals="fixed",
             calibration=replace(DEFAULT_CALIBRATION, control_plane_delay_s=0.002)),
        ("6dcae3ad1d18ad1ecbba9461d60684d514ec5245aabe9f45eaec65da58fbeaba",
         29944, 2000, 1995, 0.3262741266745431, 0.4564965839815418,
         {PH_UP: 5, PH_DELIVERED: 1995})),
    "smart-building-baseline-440000-two-cores-small-ram": (
        CASES[3],
        dict(calibration=replace(DEFAULT_CALIBRATION, edge_cores=2, edge_ram_mb=2.0)),
        ("24e1302cee5458dfc6455436916f2173732bc37624778dff30046645867c3c03",
         29346, 2341, 2311, 0.06589177509805696, 0.07850507118045869,
         {PH_RUNNING: 1, PH_DOWN: 2, PH_DELIVERED: 2311, PH_NO_PLACEMENT: 27})),
    "aigc-genio-700000-round-robin-far-edge-small-ram": (
        ("aigc", "genio", 700_000.0),
        dict(strategy="round-robin",
             calibration=replace(DEFAULT_CALIBRATION, far_edge_execution=True,
                                 edge_ram_mb=2.0)),
        ("ccd45265a73c6d4f52711e3426e6c86d4d2947ca7c47d519fb408bfabc11e327",
         14567, 2023, 688, 41.335259564938106, 82.90581605991389,
         {PH_UP: 2, PH_QUEUED: 1282, PH_RUNNING: 51, PH_DELIVERED: 688})),
    # fractional footprints: room for five 0.1 MB tasks on the edge server,
    # whose free capacity is decremented on each placement
    "aigc-baseline-700000-fractional-footprint": (
        CASES[4],
        dict(calibration=replace(DEFAULT_CALIBRATION, task_ram_mb=0.1, edge_ram_mb=0.5)),
        ("37b5955142fb1d58d75f4fac97fe9e35991120d6621ca343c2e1c181a043a482",
         25500, 2023, 1970, 0.33981443309319515, 0.4883358072374193,
         {PH_UP: 6, PH_RUNNING: 1, PH_DELIVERED: 1970, PH_NO_PLACEMENT: 46})),
    "aigc-baseline-800000-three-cores-clamp": (
        ("aigc", "baseline", 800_000.0),
        dict(seed=1, calibration=replace(DEFAULT_CALIBRATION, edge_cores=3)),
        ("916da158586003e14b3251f94e4d40dbd7ec882f1aa2eb2c9442cf67a664ea35",
         26233, 2075, 2069, 0.49372328054576814, 0.8836749898537768,
         {PH_UP: 3, PH_RUNNING: 2, PH_DOWN: 1, PH_DELIVERED: 2069})),
}
RUNS = [(case, {}, GOLDEN[case]) for case in CASES] + list(VARIANTS.values())
RUN_IDS = [f"{s}-{t}-{m:g}" for s, t, m in CASES] + list(VARIANTS)


def _params(case, extra):
    scenario, topology, mips = case
    return RunParams(scenario=scenario_preset(scenario), topology=topology,
                     cpu_mips=mips, **(dict(seed=5, duration_s=120.0) | extra))


def _run_on(backend, monkeypatch, params, collect_trace=False):
    """run_simulation on `backend`, chosen through PONEDGE_BACKEND as a user chooses it."""
    monkeypatch.setenv("PONEDGE_BACKEND", backend)
    return run_simulation(params, collect_trace=collect_trace)


def _golden_view(result):
    s = result.summary
    return (trace_digest(result), result.outputs.processed_events, s.tasks_generated,
            s.tasks_delivered, s.mean_latency_s, s.p95_latency_s,
            dict(Counter(result.outputs.final_phase)))


@pytest.mark.parametrize("case,extra,expected", RUNS, ids=RUN_IDS)
def test_python_kernel_matches_golden(case, extra, expected, monkeypatch):
    result = _run_on("python", monkeypatch, _params(case, extra), collect_trace=True)
    assert _golden_view(result) == expected


@needs_c
@pytest.mark.parametrize("case,extra,expected", RUNS, ids=RUN_IDS)
def test_backends_bit_identical(case, extra, expected, monkeypatch):
    params = _params(case, extra)
    py = _run_on("python", monkeypatch, params, collect_trace=True)
    py_trace = trace_digest(py)  # the reference text, written while pykernel is the kernel
    cy = _run_on("c", monkeypatch, params, collect_trace=True)
    assert trace_digest(cy) == py_trace
    for name in ("node_of", "uplink_done", "exec_start", "exec_end", "delivered_at"):
        assert getattr(py.outputs, name).tobytes() == getattr(cy.outputs, name).tobytes(), name
    assert py.outputs.processed_events == cy.outputs.processed_events
    assert py.outputs.final_phase == cy.outputs.final_phase
    assert py.outputs.trace == cy.outputs.trace
    assert py.summary == cy.summary


@needs_c
@pytest.mark.parametrize("case,extra,expected", RUNS, ids=RUN_IDS)
def test_post_run_outputs_bit_identical(case, extra, expected, monkeypatch):
    # busy time and the sorted latencies come from each kernel's own post-run
    # pass; every output column is an array of the same type on both
    params = _params(case, extra)
    py, c = (_run_on(backend, monkeypatch, params).outputs for backend in ("python", "c"))
    for name, code in OUTPUT_TYPECODES.items():
        columns = getattr(py, name), getattr(c, name)
        assert all(type(column) is array and column.typecode == code for column in columns)
    assert py.busy.tobytes() == c.busy.tobytes()
    assert py.latencies.tobytes() == c.latencies.tobytes()
    assert py.latencies.tolist() == sorted(py.latencies)
    assert len(py.latencies) == expected[3]  # one per delivered task


def test_trace_merge_keeps_time_seq_order_on_random_calibrations():
    # every entry is recorded when its event pops, execution starts and
    # deliveries under the seq they reserved when scheduled; on coinciding
    # times the trace must still be strictly increasing in (time, seq), as
    # one sort would make it
    rng = random.Random(20260418)
    for _ in range(200):
        params, inputs = random_inputs(rng)
        rows = list(zip(*pykernel.run(inputs).trace))
        assert all(a[:2] < b[:2] for a, b in zip(rows, rows[1:])), params
        assert rows == sorted(rows), params


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
def test_tracing_changes_no_output_on_random_calibrations(backend):
    # a traced run pushes its execution starts and deliveries as heap events
    # of their own: they must not count as processed events, nor change the
    # order of the simulation's events
    rng = random.Random(20260418)
    for _ in range(200):
        params, inputs = random_inputs(rng)
        traced = _kernel.run(inputs, backend=backend)
        untraced = _kernel.run(replace(inputs, collect_trace=False), backend=backend)
        assert untraced.trace is None
        # repr round-trips every float exactly, NaN included
        assert repr(untraced) == repr(replace(traced, trace=None)), params


def _outcome(inputs, backend: str) -> str:
    """The repr of a run's outputs, or the type and text of what it raised."""
    try:
        return repr(_kernel.run(inputs, backend=backend))
    except (ValueError, MemoryError, SimulationError) as exc:
        return f"{type(exc).__name__}: {exc}"


@needs_c
def test_backends_bit_identical_on_random_calibrations():
    rng = random.Random(20260418)
    # a stream of its own, so that the calibrations are drawn as without it
    mutations = random.Random(20261020)
    phases = Counter()
    mutants = Counter()
    for _ in range(200):
        params, inputs = random_inputs(rng)
        py = _kernel.run(inputs, backend="python")
        c = _kernel.run(inputs, backend="c")
        # repr round-trips every float exactly, NaN included
        assert repr(c) == repr(py), params
        phases.update(set(py.final_phase))
        # one index entry moved: both refuse it alike, or both run it alike
        mutant = mutate(mutations, inputs)
        outcome = _outcome(mutant, "python")
        assert _outcome(mutant, "c") == outcome, params
        mutants[outcome.partition("(")[0].partition(":")[0]] += 1
    # the draws reach refusals, queues behind the horizon and deliveries
    assert phases[PH_NO_PLACEMENT] and phases[PH_QUEUED] and phases[PH_DELIVERED]
    # and the mutants reach runs and both kinds of refusal
    assert mutants["KernelOutputs"] and mutants["ValueError"] and mutants["MemoryError"], mutants


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
def test_trace_costs_at_most_40_bytes_per_entry(backend):
    # the largest trace among the contention-heavy cells: five columns cost
    # about 28 bytes an entry, a list of one tuple per entry about 126
    params = _params(("smart-building", "baseline", 440_000.0), dict(duration_s=600.0))
    peaks = {}
    for collect_trace in (False, True):
        inputs = build_kernel_inputs(params, collect_trace)
        tracemalloc.start()
        try:
            out = _kernel.run(inputs, backend=backend)
            _, peaks[collect_trace] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    entries = len(out.trace.time)
    assert entries == 72_951
    assert peaks[True] - peaks[False] <= 40 * entries, (peaks[True] - peaks[False]) / entries


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
@pytest.mark.parametrize("row", MALFORMED)
def test_kernels_reject_inputs_out_of_bounds(row, backend):
    # _kernel.check_inputs refuses them first on both kernels, naming the
    # clause broken; the C kernel would read outside its columns on some
    fields, text = MALFORMED[row]
    with pytest.raises(ValueError) as refused:
        _kernel.run(kernel_inputs(**fields), backend=backend)
    assert str(refused.value) == text


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
@pytest.mark.parametrize("column", [[0.0], array("f", [0.0])])
def test_kernels_reject_columns_of_another_type(column, backend):
    # the C kernel reads each column in place, as the C type its type code names
    with pytest.raises(TypeError) as refused:
        _kernel.run(replace(kernel_inputs(arrival_time=[0.0]), arrival_time=column),
                    backend=backend)
    assert str(refused.value) == "kernel input arrival_time must be an array of type code 'd'"


# Nodes whose cores together are more than a C int counts, run on the backend
# named by argv[1]: the run must raise MemoryError before it allocates. In an
# int, the total wraps round to 17 cores.
CORE_OVERFLOW = """
import sys
from ponedge import _kernel
from kernel_inputs import candidate_inputs
inputs = candidate_inputs([1e9] * 3, cores=[2**31 - 1, 2**31 - 1, 19], arrival_time=[0.0])
try:
    _kernel.run(inputs, backend=sys.argv[1])
except MemoryError as exc:
    print(exc)
"""


@pytest.mark.parametrize("backend,message", [
    ("python", "the nodes hold 4294967313 cores, more than a run can allocate"),
    pytest.param("c", "the nodes hold 4294967313 cores, more than a run can allocate",
                 marks=needs_c),
])
def test_core_counts_past_an_int_are_refused_before_allocating(backend, message):
    tests = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", CORE_OVERFLOW, backend],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, tests])),
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_address_space)
    assert (done.returncode, done.stdout, done.stderr) == (0, message + "\n", "")


@needs_c
def test_backend_env_selection(monkeypatch):
    from ponedge._kernel import resolve_backend
    monkeypatch.delenv("PONEDGE_BACKEND", raising=False)
    assert resolve_backend("auto") == "c"
    monkeypatch.setenv("PONEDGE_BACKEND", "python")
    assert resolve_backend("auto") == "python"
    for name in ("qpu", "cython"):
        monkeypatch.setenv("PONEDGE_BACKEND", name)
        with pytest.raises(ConfigurationError):
            resolve_backend("auto")


# One identity of the run broken in a copy of kernel.c, and the same break
# applied to the reference kernel's task columns: a stage timestamp never
# recorded, a delivery that leaves the task's phase unchanged, and execution
# ends recorded 1e300 s late, so that the stage durations no longer sum to the
# latency.
MUTANTS = {
    "lost-uplink-timestamp": (
        "run->uplink_done[task] = now;", "",
        lambda out: dict(uplink_done=array("d", [math.nan]) * len(out.uplink_done)),
        "lifecycle timestamps out of order for task 0"),
    "delivered-phase-not-set": (
        "t_phase[task] = PH_DELIVERED;", "",
        lambda out: dict(final_phase=array("i", [PH_DOWN if phase == PH_DELIVERED else phase
                                                 for phase in out.final_phase])),
        "conservation violated: 3 generated != 3 delivered + 3 unfinished"),
    "latency-does-not-decompose": (
        "run->exec_end[task] = end;", "run->exec_end[task] = end + 1e300;",
        lambda out: dict(exec_end=array("d", [end + 1e300 for end in out.exec_end])),
        "latency decomposition violated for task 0: components 0.0 vs latency "
        "0.09999999999999998"),
}


@needs_compiler
@pytest.mark.parametrize("mutant", MUTANTS)
def test_c_post_run_pass_raises_what_the_reference_raises(mutant, tmp_path):
    original, broken, break_columns, message = MUTANTS[mutant]
    with open(_kernel.SOURCE) as fh:
        source = fh.read()
    assert source.count(original) == 1
    (tmp_path / "kernel.c").write_text(source.replace(original, broken))
    library = tmp_path / "kernel.so"
    subprocess.run([*compiler_argv(), "-o", str(library), str(tmp_path / "kernel.c")],
                   check=True)
    # three tasks on one node, one at a time
    inputs = kernel_inputs(arrival_time=[0.5, 1.0, 1.5], length_mi=1e8)
    out = pykernel.run(inputs)
    columns = dict(node_of=out.node_of, uplink_done=out.uplink_done,
                   exec_start=out.exec_start, exec_end=out.exec_end,
                   delivered_at=out.delivered_at, final_phase=out.final_phase)
    columns.update(break_columns(out))
    with pytest.raises(SimulationError) as reference:
        pykernel.post_run(inputs.arrival_time, *columns.values(), inputs.duration_s,
                          len(inputs.cores))
    with pytest.raises(SimulationError) as compiled:
        ckernel.load(str(library)).run(inputs)
    assert str(compiled.value) == str(reference.value) == message


# The kernel built at argv[1] with sanitizers, against pykernel: each random
# calibration traced and untraced, with its trace and tasks.csv text written
# through a small buffer, and a mutant of it; every malformed row, which must
# be refused with its text; and the arrival draw of every preset. A read or write outside a
# C array, or undefined behaviour, aborts the process.
SANITIZED = """
import io, random, sys
from ponedge._kernel import SimulationError, ckernel, pykernel
from ponedge.metrics import _csv_line
from ponedge.network import replace
from ponedge.workload import SCENARIOS, scenario_preset
from kernel_inputs import MALFORMED, kernel_inputs, mutate, random_inputs

c = ckernel.load(sys.argv[1])
ckernel.TEXT_CAPACITY = 64  # the C writers' buffer, which grows past each longer line
rng, mutations = random.Random(20260418), random.Random(20261020)
for _ in range(200):
    params, inputs = random_inputs(rng)
    for traced in (False, True):
        run = replace(inputs, collect_trace=traced)
        out = c.run(run)
        assert repr(out) == repr(pykernel.run(run)), params
    node_ids = [f'n{node}-é,"x"' for node in range(len(inputs.cores))]
    node_cells = [_csv_line([node_id]) for node_id in node_ids]
    texts = []
    for library in (c, pykernel):
        trace, tasks = io.BytesIO(), io.BytesIO()
        library.write_trace(trace, out.trace, node_ids)
        library.write_tasks(tasks, inputs.arrival_time, out, node_cells, 0.05, "s,t,1,2")
        texts.append((trace.getvalue(), tasks.getvalue()))
    assert texts[0] == texts[1], params
    try:
        c.run(mutate(mutations, inputs))
    except (ValueError, MemoryError, SimulationError):
        pass
for row, (fields, text) in MALFORMED.items():
    try:
        c.run(kernel_inputs(**fields))
    except ValueError as refused:
        assert str(refused) == text, row
        continue
    raise AssertionError(row)
for name in sorted(SCENARIOS):
    for mode in ("poisson", "fixed"):
        args = (scenario_preset(name), 60.0, 7, mode)
        assert c.arrivals(*args) == pykernel.arrivals(*args), args
print("clean")
"""


@needs_compiler
def test_c_kernel_is_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    compiler = compiler_argv()[0]
    runtime = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=True).stdout.strip()
    if not os.path.isfile(runtime):
        pytest.skip(f"{compiler} has no AddressSanitizer runtime")
    library = tmp_path / "kernel.so"
    subprocess.run([*compiler_argv(), "-fsanitize=address,undefined",
                    "-fno-sanitize-recover=undefined", "-o", str(library), _kernel.SOURCE],
                   check=True)
    tests = os.path.dirname(os.path.abspath(__file__))
    # the runtime must be loaded before Python's allocator is used, and Python
    # must allocate with malloc for ASan to see its buffers
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, tests]), LD_PRELOAD=runtime,
               PYTHONMALLOC="malloc", ASAN_OPTIONS="detect_leaks=0")
    done = subprocess.run([sys.executable, "-c", SANITIZED, str(library)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert (done.returncode, done.stdout, done.stderr) == (0, "clean\n", "")


# The C text writers against the reference formatters, on synthetic columns.
TEXT_VALUES = 1_000_000
TEXT_NODES = ["n0000-cloud", "n0257-edge", "n0001-olt", "n12345678-onu-with-a-long-id"]


def _ulps(value: float, steps: int) -> list[float]:
    """value and its neighbours up to `steps` ulps away on either side."""
    out = [value]
    for toward in (math.inf, -math.inf):
        x = value
        for _ in range(steps):
            x = math.nextafter(x, toward)
            out.append(x)
    return out


def _text_doubles(rng: random.Random, count: int) -> array:
    """`count` doubles from the classes a %.17g or %.12g formatter can get
    wrong: the edges of the exact fast path, powers of ten, zeros, subnormals,
    infinities and NaN, random bit patterns, uniform and log-uniform draws, and
    exact decimal ties at 12 and 17 significant digits, shuffled."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
              2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    for edge in (1e-6, 1e-4, 2.0**53, 1e11, 1e12, 1e16, 1e17, 0.5, 1.0, 600.0):
        values += _ulps(edge, 4)
    for exponent in range(-12, 23):
        values += _ulps(10.0**exponent, 2)
    values += [rng.uniform(0.0, 5e-308) for _ in range(2000)]  # subnormals and tiny normals
    # ties: m / 2^s with m odd and as many significant digits as the precision
    # plus one, so that the exact value ends in a 5 right after the last digit kept
    for precision in (12, 17):
        for digits in range(-6, 16):
            shift = precision - digits
            if shift < 0:
                continue
            low = math.ceil(10.0**digits * 2.0**shift)
            high = min(math.floor(10.0**(digits + 1) * 2.0**shift), 2**53)
            for _ in range(1500):
                values.append(math.ldexp(rng.randrange(low, high) | 1, -shift))
    rest = count - len(values)
    values += array("d", rng.randbytes(8 * (rest // 4)))  # random bit patterns
    values += [10.0 ** rng.uniform(-7.0, 17.0) for _ in range(rest // 4)]
    values += [rng.uniform(0.0, 600.0) for _ in range(rest // 4)]
    values += [rng.random() for _ in range(count - len(values))]
    rng.shuffle(values)
    return array("d", values)


@pytest.fixture(scope="module")
def text_doubles():
    return _text_doubles(random.Random(20261018), TEXT_VALUES)


def _synthetic_trace(rng: random.Random, times: array) -> _kernel.Trace:
    """Trace rows of every kind at the given times, with random seqs, tasks and
    subjects, negative ones included."""
    n = len(times)
    kind = array("i", (draw % 6 for draw in rng.randbytes(n)))
    extra = array("i", array("H", rng.randbytes(2 * n)))
    for row, k in enumerate(kind):
        if k == _kernel.TR_TRANSFER_COMPLETE:
            extra[row] = (0, 1, 7)[extra[row] % 3]  # any leg but 0 is down
        elif k == _kernel.TR_SIMULATION_END:
            extra[row] = -1
        else:  # an arrival's device, or the node of an execution or delivery
            extra[row] %= len(TEXT_NODES)
    seq = array("q", rng.randbytes(8 * n))
    for row in range(0, n, 2):
        seq[row] >>= 40
    return _kernel.Trace(times, seq, kind, array("i", rng.randbytes(4 * n)), extra)


def _synthetic_tasks(rng: random.Random, values: array):
    """(generated_at, outputs) of len(values) // 5 tasks: the values fill the
    five timestamp columns; a third of the tasks are unfinished, some with
    phases never reached, and some were never placed."""
    n = len(values) // 5
    columns = [values[i * n:(i + 1) * n] for i in range(5)]
    created, uplink, start, end, delivered = columns
    for task in range(n):
        if rng.random() < 1 / 3:
            delivered[task] = math.nan
            for column in (uplink, start, end):
                if rng.random() < 0.3:
                    column[task] = math.nan
    node_of = array("i", (rng.randrange(-1, len(TEXT_NODES)) for _ in range(n)))
    out = SimpleNamespace(node_of=node_of, uplink_done=uplink, exec_start=start,
                          exec_end=end, delivered_at=delivered)
    return created, out


def _written(write, *args, **kwargs) -> tuple[bytes, list[int]]:
    """The bytes `write` writes, and the size of each write."""
    sink = io.BytesIO()
    sizes = []

    def record(data):
        sizes.append(len(data))
        return sink.write(data)

    write(SimpleNamespace(write=record), *args, **kwargs)
    return sink.getvalue(), sizes


def _one_line_capacity(text: bytes, terminator: bytes) -> int:
    return max(len(line) for line in text.split(terminator)) + len(terminator)


@needs_c
def test_c_trace_text_matches_reference(text_doubles, monkeypatch):
    trace = _synthetic_trace(random.Random(1), text_doubles)
    reference, compiled = library("python").write_trace, library("c").write_trace
    step = 100_000
    for start in range(0, len(text_doubles), step):
        chunk = _kernel.Trace(*(column[start:start + step] for column in trace))
        expected = _written(reference, chunk, TEXT_NODES)[0]
        assert _written(compiled, chunk, TEXT_NODES)[0] == expected
    # a buffer that fits the longest line once: every write is whole lines
    chunk = _kernel.Trace(*(column[:3000] for column in trace))
    expected = _written(reference, chunk, TEXT_NODES)[0]
    capacity = _one_line_capacity(expected, b"\n")
    monkeypatch.setattr(ckernel, "TEXT_CAPACITY", capacity)
    text, sizes = _written(compiled, chunk, TEXT_NODES)
    assert text == expected
    assert len(sizes) > 1500 and max(sizes) <= capacity


@needs_c
def test_c_tasks_text_matches_reference(text_doubles, monkeypatch):
    generated_at, out = _synthetic_tasks(random.Random(2), text_doubles)
    cell = _csv_line(["a,b", 'say "hi"', "Zürich – 1", 7])
    node_cells = [_csv_line([node_id]) for node_id in TEXT_NODES]
    reference, compiled = library("python").write_tasks, library("c").write_tasks
    expected = _written(reference, generated_at, out, node_cells, 0.5, cell)[0]
    text, _ = _written(compiled, generated_at, out, node_cells, 0.5, cell)
    assert text == expected
    assert b",7,," in text and b",,,Unfinished" in text  # never placed; phases not reached
    assert "Zürich – 1".encode() in text
    # a buffer that fits the longest line once
    head = SimpleNamespace(**{name: getattr(out, name)[:3000] for name in vars(out)})
    expected = _written(reference, generated_at[:3000], head, node_cells, 0.5, cell)[0]
    capacity = _one_line_capacity(expected, b"\r\n")
    monkeypatch.setattr(ckernel, "TEXT_CAPACITY", capacity)
    text, sizes = _written(compiled, generated_at[:3000], head, node_cells, 0.5, cell)
    assert text == expected
    assert len(sizes) > 1500 and max(sizes) <= capacity


@needs_compiler
def test_c_text_writers_without_int128_match_reference(text_doubles, tmp_path):
    # where the compiler has no __int128, put_g formats every value with
    # snprintf alone
    built = tmp_path / "kernel.so"
    subprocess.run([*compiler_argv(), "-U__SIZEOF_INT128__", "-o", str(built), _kernel.SOURCE],
                   check=True)
    compiled = ckernel.load(str(built))
    trace = _synthetic_trace(random.Random(1), text_doubles)
    assert (_written(compiled.write_trace, trace, TEXT_NODES)[0]
            == _written(pykernel.write_trace, trace, TEXT_NODES)[0])
    generated_at, out = _synthetic_tasks(random.Random(2), text_doubles)
    cell = _csv_line(["a,b", 'say "hi"', "Zürich – 1", 7])
    node_cells = [_csv_line([node_id]) for node_id in TEXT_NODES]
    assert (_written(compiled.write_tasks, generated_at, out, node_cells, 0.5, cell)[0]
            == _written(pykernel.write_tasks, generated_at, out, node_cells, 0.5, cell)[0])


@needs_c
def test_c_write_trace_holds_one_buffer_of_text(monkeypatch):
    # the largest trace among the contention-heavy cells, about 4.4 MB of text
    params = _params(("smart-building", "baseline", 440_000.0), dict(duration_s=600.0))
    result = _run_on("c", monkeypatch, params, collect_trace=True)
    sizes = []  # of each write; the bytes themselves are discarded
    sink = SimpleNamespace(write=lambda data: sizes.append(len(data)))
    tracemalloc.start()
    try:
        library("c").write_trace(sink, result.outputs.trace, result.node_ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sizes) > 60 and max(sizes) <= ckernel.TEXT_CAPACITY
    assert peak < 2 * ckernel.TEXT_CAPACITY


def _placed_on(node: int) -> SimpleNamespace:
    """The outputs of one task delivered on `node`."""
    return SimpleNamespace(node_of=array("i", [node]), uplink_done=array("d", [1.0]),
                           exec_start=array("d", [1.0]), exec_end=array("d", [1.0]),
                           delivered_at=array("d", [1.0]))


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
def test_text_writers_reject_rows_with_no_text(backend):
    writers = library(backend)
    no_text = "^a text row has a kind or node index with no text$"
    for kind, extra in ((6, 0), (-1, 0), (_kernel.TR_EXECUTION_START, len(TEXT_NODES)),
                        (_kernel.TR_EXECUTION_START, -1), (_kernel.TR_RESULT_DELIVERED, -1),
                        (_kernel.TR_TASK_ARRIVAL, -1), (_kernel.TR_TASK_ARRIVAL, -2),
                        (_kernel.TR_TASK_ARRIVAL, len(TEXT_NODES))):
        trace = _kernel.Trace(array("d", [1.0]), array("q", [1]), array("i", [kind]),
                               array("i", [0]), array("i", [extra]))
        with pytest.raises(ValueError, match=no_text):
            writers.write_trace(io.BytesIO(), trace, ["n0"] * len(TEXT_NODES))
    for node in (-2, 1):
        with pytest.raises(ValueError, match=no_text):
            writers.write_tasks(io.BytesIO(), array("d", [0.5]), _placed_on(node), ["n0"], 1.0,
                                "c")


def test_c_text_writers_reject_columns_of_another_type():
    # the C writers read each column in place, as the C type its type code
    # names, and as many entries as the first column has; both backends'
    # writers refuse, before writing, what the C ones could not read
    trace = _kernel.Trace(array("d", [1.0, 2.0]), array("q", [1, 2]),
                          array("i", [_kernel.TR_TASK_ARRIVAL] * 2), array("i", [0, 1]),
                          array("i", [0]))
    two = SimpleNamespace(**{name: column * 2 for name, column in vars(_placed_on(0)).items()})
    short = SimpleNamespace(**vars(two) | {"node_of": array("i", [0])})
    rows = [
        ("write_tasks", (array("d", [0.5]) * 2, short, ["n0"], 1.0, "c"),
         ValueError, "text column node_of has 1 entries, not 2"),
        ("write_trace", (trace, ["n0", "n1"]),
         ValueError, "text column extra has 1 entries, not 2"),
        ("write_tasks", ([0.5, 0.5], two, ["n0"], 1.0, "c"),
         TypeError, "text column created must be an array of type code 'd'"),
    ]
    for backend in available_backends():
        for write, args, error, text in rows:
            sink = io.BytesIO()
            with pytest.raises(error, match=f"^{re.escape(text)}$"):
                getattr(library(backend), write)(sink, *args)
            assert sink.getvalue() == b"", (backend, write)


AWKWARD_LABELS = os.path.join(os.path.dirname(__file__), "experiments", "awkward-labels.json")


@needs_c
def test_tasks_csv_identical_on_both_backends_with_awkward_labels(tmp_path, monkeypatch):
    # a CPU label with a comma, a double quote and non-ASCII text, and edge
    # servers with room for two tasks: some tasks are never placed and some
    # are unfinished
    written = {}
    for backend in ("python", "c"):
        monkeypatch.setenv("PONEDGE_BACKEND", backend)
        trace = tmp_path / f"{backend}.tsv"
        assert main(["run", "--config", AWKWARD_LABELS, "--trace", str(trace),
                     "--out-dir", str(tmp_path / backend)]) == 0
        cell = tmp_path / backend / "smart-building" / "baseline" / "440000" / "5"
        written[backend] = (cell / "tasks.csv").read_bytes(), trace.read_bytes()
    assert written["python"] == written["c"]
    with open(cell / "tasks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["cpu"] for row in rows} == {'Lab rig, "Zürich" – 440k'}
    unfinished = [row for row in rows if row["status"] == "Unfinished"]
    assert any(row["node_id"] == "" for row in unfinished)
    assert any(row["node_id"] and row["delivered_at"] == "" for row in unfinished)


# seeds 0, negative and past 2**64, whose stream states Python reduces mod 2**64
ARRIVAL_SEEDS = (0, -5, 2**70)
ARRIVAL_SCENARIOS = [*(scenario_preset(name) for name in sorted(SCENARIOS)),
                     ScenarioSpec("custom", users=3, rate_per_min=7.5, deadline_s=0.1,
                                  length_mi=10, request_kb=1, result_kb=1)]


@needs_c
@pytest.mark.parametrize("scenario", ARRIVAL_SCENARIOS, ids=lambda spec: spec.name)
def test_c_arrivals_match_generate_arrivals(scenario):
    # 1e-6 s is before every device's first arrival, so that draw has no task
    for duration_s, mode, seed in itertools.product((600.0, 37.3, 1e-6), ("poisson", "fixed"),
                                                    ARRIVAL_SEEDS):
        times, devices = library("python").arrivals(scenario, duration_s, seed, mode)
        c_times, c_devices = library("c").arrivals(scenario, duration_s, seed, mode)
        typecodes = (times.typecode, devices.typecode)
        assert typecodes == (c_times.typecode, c_devices.typecode) == ("d", "i")
        assert c_times.tobytes() == times.tobytes(), (duration_s, mode, seed)
        assert c_devices == devices, (duration_s, mode, seed)
        # the pure-Python backend's draw is the reference's
        assert (tuple(times), tuple(devices)) == generate_arrivals(scenario, duration_s, seed,
                                                                   mode)
        assert bool(times) == (duration_s > 1e-6)


@needs_c
@pytest.mark.parametrize("backend", ["python", "c"])
def test_kernel_inputs_draw_arrivals_on_the_kernel_this_process_resolved(backend, monkeypatch):
    # the kernel PONEDGE_BACKEND picks draws a cell's arrivals, as it runs the
    # cell; the inputs used to draw them with pykernel whatever the kernel
    draws = []

    def recording(name, draw):
        def arrivals(*args):
            draws.append(name)
            return draw(*args)
        return arrivals

    clib = library("c")
    monkeypatch.setattr(_kernel, "_clib", clib._replace(arrivals=recording("c", clib.arrivals)))
    monkeypatch.setattr(pykernel, "arrivals", recording("python", pykernel.arrivals))
    monkeypatch.setenv("PONEDGE_BACKEND", backend)
    _cached_arrivals.cache_clear()
    build_kernel_inputs(RunParams(scenario_preset("e-health"), "genio", 220_000.0, seed=1,
                                  duration_s=1.0), collect_trace=False)
    assert draws == [backend]


@pytest.mark.parametrize("duration_s,mode", [(0.0, "poisson"), (-1.0, "fixed"),
                                             (10.0, "bursty")])
def test_c_arrivals_raise_what_generate_arrivals_raises(duration_s, mode):
    # the C library draws a cell's arrivals once its RunParams has checked them
    scenario = scenario_preset("e-health")
    with pytest.raises(ConfigurationError) as reference:
        generate_arrivals(scenario, duration_s, 1, mode)
    with pytest.raises(ConfigurationError, match=re.escape(str(reference.value))):
        RunParams(scenario, "genio", 220_000.0, 1, duration_s=duration_s, arrivals=mode)


@needs_c
def test_c_arrivals_refuse_more_tasks_than_the_kernel_counts(monkeypatch):
    # the bound is lowered to keep the draw small: 10 devices at one task a
    # second for 10 s draw about 100 arrivals
    scenario = scenario_preset("e-health")
    times, _ = library("c").arrivals(scenario, 10.0, 1, "poisson")
    monkeypatch.setattr(ckernel, "MAX_TASKS", len(times) - 1)
    with pytest.raises(ConfigurationError, match=f"{len(times)} arrivals exceed the limit"):
        library("c").arrivals(scenario, 10.0, 1, "poisson")


@pytest.mark.parametrize("name", ["genio", "baseline"])
def test_cached_preset_shape_equals_a_fresh_build(name):
    scenario = scenario_preset("e-health")
    for far_edge in (False, True):
        calibration = replace(DEFAULT_CALIBRATION, far_edge_execution=far_edge)
        preset_shape.cache_clear()
        fresh = preset_shape(name, scenario.users, calibration)
        inputs = {mips: build_kernel_inputs(RunParams(scenario, name, mips, seed=1,
                                                      duration_s=1.0, calibration=calibration),
                                            collect_trace=False)
                  for mips in (220_000.0, 620_000.0)}
        cached = preset_shape(name, scenario.users, calibration)
        assert preset_shape.cache_info().hits == 3
        assert cached is fresh
        assert preset_shape.__wrapped__(name, scenario.users, calibration) == fresh
        # each cell's edge server is its own; the shared shape keeps none
        assert [run.mips_per_core[21] for run in inputs.values()] == [220_000.0, 620_000.0]
        assert fresh.columns["mips_per_core"][21:].tolist() == [0.0, 1e6]


def test_bad_shapes_raise_on_every_call():
    # lru_cache does not cache exceptions, and the edge server's MIPS is
    # checked per run, after its shape is cached
    scenario = scenario_preset("e-health")
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="fiber_bandwidth_bps must be > 0"):
            replace(DEFAULT_CALIBRATION, fiber_bandwidth_bps=0)
        with pytest.raises(ConfigurationError, match="unknown topology preset 'mesh'"):
            preset_shape("mesh", scenario.users, DEFAULT_CALIBRATION)
        params = RunParams(scenario, "genio", 220_000.0, seed=1, duration_s=1.0)
        build_kernel_inputs(params, collect_trace=False)
        for mips in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigurationError, match="cpu_mips must be > 0"):
                replace(params, cpu_mips=mips)


@pytest.mark.parametrize("scenario", ["smart-city", "aigc"])
def test_cached_route_columns_equal_freshly_built_ones(scenario):
    shape_columns = ("cores", "weight", "ram_capacity", "storage_capacity", "candidate_nodes",
                     "link_bandwidth", "link_hop_delay", "route_start", "route_hops")
    for far_edge, name in itertools.product((False, True), ("genio", "baseline")):
        params = RunParams(scenario=scenario_preset(scenario), topology=name,
                           cpu_mips=300_000.0, seed=1, duration_s=1.0,
                           calibration=replace(DEFAULT_CALIBRATION,
                                               far_edge_execution=far_edge))
        inputs = [build_kernel_inputs(replace(params, cpu_mips=mips), False)
                  for mips in (300_000.0, 800_000.0)]
        preset_shape.cache_clear()
        fresh = preset_shape.__wrapped__(name, params.scenario.users, params.calibration)
        for column in shape_columns:
            assert getattr(inputs[0], column) is getattr(inputs[1], column)  # shared
            assert getattr(inputs[0], column) == fresh.columns[column], (far_edge, name, column)
        edge = 2 * params.scenario.users + 1
        for run, mips in zip(inputs, (300_000.0, 800_000.0)):  # each run's own copy
            assert run.mips_per_core is not fresh.columns["mips_per_core"]
            assert run.mips_per_core[edge] == mips
            assert run.mips_per_core[:edge] + run.mips_per_core[edge + 1:] == (
                fresh.columns["mips_per_core"][:edge] + fresh.columns["mips_per_core"][edge + 1:])
        assert len(fresh.columns["candidate_nodes"]) == (
            2 + 1 + params.scenario.users if far_edge else 2)


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
def test_empty_run_exits_1_and_leaves_no_files(backend, tmp_path, monkeypatch, capsys):
    # no aigc device draws an arrival in its first millisecond
    monkeypatch.setenv("PONEDGE_BACKEND", backend)
    assert main(["run", "--scenario", "aigc", "--topology", "genio", "--cpu-mips", "700000",
                 "--duration", "0.001", "--seed", "1", "--out-dir", str(tmp_path / "out"),
                 "--trace", str(tmp_path / "trace.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("empty run: zero tasks generated") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
