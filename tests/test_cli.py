"""CLI surfaces: flags, exit codes, file layout, determinism, env override."""

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from ponedge import sweep
from ponedge.cli import main
from ponedge.config import preset_shape
from ponedge.engine import SimulationError
from ponedge.metrics import read_summary_csv
from ponedge.network import ConfigurationError
from ponedge.simulation import RunParams, _cached_arrivals
from ponedge.workload import scenario_preset

from fresh_process import (SRC, cap_address_space, needs_compiler, path_finds_compiler,
                           ponedge_env, run_cli, run_python)

RUN_FLAGS = ["run", "--scenario", "e-health", "--topology", "genio",
             "--cpu-mips", "220000", "--seed", "1", "--duration", "20"]


def test_run_writes_cell_files(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(RUN_FLAGS + ["--out-dir", str(out)]) == 0
    cell = out / "e-health" / "genio" / "220000" / "1"
    assert (cell / "tasks.csv").is_file()
    assert (cell / "summary.csv").is_file()
    assert (cell / "config.json").is_file()
    stdout = capsys.readouterr().out
    assert "tsr" in stdout and "latency" in stdout
    config = json.loads((cell / "config.json").read_text())
    assert config["calibration"]["wan_fixed_latency_s"] == 0.01
    assert config["duration_s"] == 20.0


def test_run_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(RUN_FLAGS + ["--out-dir", str(out_a)]) == 0
    assert main(RUN_FLAGS + ["--out-dir", str(out_b)]) == 0
    for name in ("tasks.csv", "summary.csv"):
        a = (out_a / "e-health" / "genio" / "220000" / "1" / name).read_bytes()
        b = (out_b / "e-health" / "genio" / "220000" / "1" / name).read_bytes()
        assert a == b


def test_run_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", "bogus", "--cpu-mips", "1000",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_run_requires_cpu(tmp_path, capsys):
    code = main(["run", "--scenario", "e-health", "--out-dir", str(tmp_path)])
    assert code == 2


def test_run_unknown_backend_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PONEDGE_BACKEND", "qpu")
    assert main(RUN_FLAGS + ["--out-dir", str(tmp_path)]) == 2
    assert "qpu" in capsys.readouterr().err


@path_finds_compiler
def test_run_unbuilt_c_backend_exits_2(tmp_path):
    # no compiler on PATH and no library in the cache: auto runs on pure
    # Python, and asking for the C kernel is a configuration error
    argv = RUN_FLAGS + ["--out-dir", str(tmp_path / "out")]
    auto = run_cli(argv, ponedge_env(tmp_path, compiler=False))
    assert (auto.returncode, auto.stderr) == (0, "")
    c = run_cli(argv, ponedge_env(tmp_path, compiler=False, backend="c"))
    assert c.returncode == 2
    assert "no C compiler" in c.stderr
    assert not (tmp_path / "cache").exists()


def test_bad_backend_exits_2_when_every_cell_is_cached(tmp_path, monkeypatch, capsys):
    argv = ["compare", "--scenario", "aigc", "--duration", "1", "--seeds", "1",
            "--out-dir", str(tmp_path), "--jobs", "1"]
    assert main(argv) == 0
    files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    monkeypatch.setenv("PONEDGE_BACKEND", "qpu")
    assert main(argv) == 2
    assert "qpu" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files


def test_run_trace_dump(tmp_path):
    trace = tmp_path / "events.tsv"
    assert main(RUN_FLAGS + ["--out-dir", str(tmp_path / "r"),
                             "--trace", str(trace)]) == 0
    lines = trace.read_text().strip().split("\n")
    assert lines, "trace must not be empty"
    for line in lines:
        time, seq, kind, subject = line.split("\t")
        float(time), int(seq)
        assert kind in {"TaskArrival", "TransferComplete", "ExecutionStart",
                        "ExecutionComplete", "ResultDelivered", "SimulationEnd"}


def test_run_trace_is_published_atomically(tmp_path, monkeypatch):
    # a trace of several writes, on the path of the kernel that ran, whose
    # second write fails
    params = RunParams(scenario_preset("e-health"), "genio", 220_000.0, 1, duration_s=120.0)
    trace = tmp_path / "events.tsv"
    trace.write_bytes(b"an earlier trace\n")
    library = sweep.library
    writes = []

    def failing_library(backend):
        write_trace = library(backend).write_trace

        def fail_on_second_write(fh, *args):
            def write(data):
                writes.append(len(data))
                if len(writes) == 2:
                    raise OSError("no space left on device")
                return fh.write(data)

            return write_trace(SimpleNamespace(write=write), *args)

        return SimpleNamespace(write_trace=fail_on_second_write)

    monkeypatch.setattr(sweep, "library", failing_library)
    with pytest.raises(OSError):
        sweep.run_cell(params, str(tmp_path / "out"), trace_path=str(trace), tasks_csv=True)
    assert len(writes) == 2
    assert trace.read_bytes() == b"an earlier trace\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["events.tsv", "out"]


def _files(root) -> dict:
    """Every file under root, by relative path, with its bytes; {} if root is missing."""
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*")
            if path.is_file()}


# --trace destinations that cannot be written, or that would overwrite a cell;
# the last three are refused in an out-dir holding this run's cell and another
TRACE_REFUSALS = ["empty", "directory", "missing-directory", "where-the-cell-goes",
                  "own-tasks-csv", "own-summary-csv", "another-published-cell"]


@pytest.mark.parametrize("where", TRACE_REFUSALS)
def test_run_refuses_a_trace_path_before_any_cell_work(tmp_path, capsys, where):
    out = tmp_path / "out"
    cell, other = (out / "e-health" / "genio" / mips / "1" for mips in ("220000", "300000"))
    trace = str({"empty": "", "directory": tmp_path,
                 "missing-directory": tmp_path / "missing" / "events.tsv",
                 "where-the-cell-goes": out / "e-health", "own-tasks-csv": cell / "tasks.csv",
                 "own-summary-csv": cell / "summary.csv",
                 "another-published-cell": other / "events.tsv"}[where])
    if where in TRACE_REFUSALS[-3:]:
        assert main(RUN_FLAGS + ["--out-dir", str(out)]) == 0
        assert main(RUN_FLAGS[:6] + ["300000"] + RUN_FLAGS[7:] + ["--out-dir", str(out)]) == 0
    else:
        out.mkdir()
    before = _files(out)
    capsys.readouterr()
    assert main(RUN_FLAGS + ["--out-dir", str(out), "--trace", trace]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: --trace {trace!r}: ") and err.count("\n") == 1
    assert _files(out) == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]


def test_run_writes_a_trace_at_the_root_of_an_out_dir_it_creates(tmp_path):
    out = tmp_path / "out"
    assert main(RUN_FLAGS + ["--out-dir", str(out), "--trace", str(out / "trace-1.tsv")]) == 0
    assert (out / "trace-1.tsv").read_bytes().endswith(b"\tSimulationEnd\t-\n")


def _without_column(data: bytes, name: str) -> bytes:
    rows = [line.split(b",") for line in data.split(b"\r\n")[:2]]
    drop = rows[0].index(name.encode())
    return b"".join(b",".join(row[:drop] + row[drop + 1:]) + b"\r\n" for row in rows)


SUMMARY_DAMAGE = {
    "truncated": lambda data: data[:-20],
    "empty": lambda data: b"",
    "missing-column": lambda data: _without_column(data, "tsr_pct"),
    "not-a-number": lambda data: data.replace(b",220000,", b",fast,", 1),
    # a cell has one summary, so a second row is not what the cell published
    "appended-row": lambda data: data + data.split(b"\r\n")[1] + b"\r\n",
}


@pytest.mark.parametrize("damage", SUMMARY_DAMAGE)
@pytest.mark.parametrize("argv", [
    RUN_FLAGS,
    ["sweep", "--scenario", "e-health", "--seeds", "1", "--duration", "5", "--jobs", "1"],
], ids=["run", "sweep"])
def test_a_cached_cell_that_does_not_read_back_is_recomputed(tmp_path, capsys, argv, damage):
    out = tmp_path / "out"
    summary = out / "e-health" / "genio" / "220000" / "1" / "summary.csv"
    assert main(argv + ["--out-dir", str(out)]) == 0
    published, stdout = _files(out), capsys.readouterr().out
    summary.write_bytes(SUMMARY_DAMAGE[damage](summary.read_bytes()))
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert _files(out) == published
    assert capsys.readouterr().out == stdout


def test_cli_import_starts_no_process_pool_machinery(tmp_path):
    # importing the CLI starts no compiler and loads no C kernel
    code = ("import sys, ponedge.cli; "
            "print(sorted({'ctypes', 'multiprocessing', 'subprocess'} & set(sys.modules)))")
    assert run_python(code, ponedge_env(tmp_path)).stdout == "[]\n"
    assert not (tmp_path / "cache").exists()


# Modules a run on the C kernel never needs: dataclasses, with inspect, which
# they import, and the pure-Python reference loop, which a Python run loads.
START_UP_MODULES = ("dataclasses", "inspect", "ponedge._kernel.pykernel")


@needs_compiler
@pytest.mark.parametrize("backend,loaded", [("c", []), ("python", ["ponedge._kernel.pykernel"])])
def test_a_run_loads_only_the_kernel_it_runs(tmp_path, backend, loaded):
    # the session's kernel cache, so that the C kernel is not compiled again
    env = dict(ponedge_env(tmp_path, backend=backend), XDG_CACHE_HOME=os.environ["XDG_CACHE_HOME"])
    code = (f"import sys, ponedge, ponedge.cli; modules = {START_UP_MODULES!r}; "
            "print(ponedge.resolve_backend(), sorted(set(modules) & set(sys.modules))); "
            f"code = ponedge.cli.main({RUN_FLAGS + ['--out-dir', str(tmp_path / 'out')]!r}); "
            "print(code, sorted(set(modules) & set(sys.modules)))")
    done = run_python(code, env)
    assert done.stderr == ""
    assert done.stdout.splitlines()[0] == f"{backend} []"
    assert done.stdout.splitlines()[-1] == f"0 {loaded}"


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PONEDGE_SEED", "9")
    out = tmp_path / "res"
    assert main(["run", "--scenario", "e-health", "--topology", "genio",
                 "--cpu-mips", "220000", "--duration", "10",
                 "--out-dir", str(out)]) == 0
    summary = read_summary_csv(out / "e-health" / "genio" / "220000" / "9" / "summary.csv")
    assert summary.seed == 9


def test_env_seed_is_ignored_under_a_config(tmp_path, monkeypatch):
    # a document that lists no seeds keeps the default ones, and run takes the first
    monkeypatch.setenv("PONEDGE_SEED", "9")
    config = tmp_path / "exp.json"
    config.write_text('{"scenario": "e-health", "cpus": [220000], "duration": 5}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--topology", "genio",
                 "--out-dir", str(out)]) == 0
    assert [cell.name for cell in (out / "e-health" / "genio" / "220000").iterdir()] == ["1"]


# `run` has no --seeds: its --seed is an integer argparse checks
@pytest.mark.parametrize("command,flag,env", [
    ("run", None, "x"),
    *((command, flag, env) for command in ("sweep", "compare")
      for flag, env in ((None, "x"), ("abc", None), ("1,,2", None))),
])
def test_bad_seed_text_exits_2(tmp_path, monkeypatch, capsys, command, flag, env):
    if env is not None:
        monkeypatch.setenv("PONEDGE_SEED", env)
    argv = [command, "--scenario", "e-health", "--duration", "1", "--out-dir", str(tmp_path)]
    if command == "run":
        argv += ["--topology", "genio", "--cpu-mips", "220000"]
    if flag is not None:
        argv += ["--seeds", flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and repr(flag or env) in err
    assert list(tmp_path.iterdir()) == []


EHEALTH_DOCUMENT = '{"scenario": %s, "cpus": [220000], "seeds": %s, "duration": 5%s}'
CROWD = (', "custom_scenarios": [{"name": "crowd", "users": 1000, "rate_per_min": 6e7, '
         '"deadline_s": 0.1, "length_mi": 800, "request_kb": 20, "result_kb": 5}]')


# a repeated seed or scenario would count a cell twice, a bool seed is no
# seed, a strategy typo used to run round-robin, and an experiment past the
# task limit is refused before any of its cells runs, whichever scenario holds it
@pytest.mark.parametrize("argv,env,document,message", [
    (["sweep", "--scenario", "e-health", "--seeds", "2,2,3"], None, None,
     "seeds: [2, 2, 3] lists a seed twice"),
    (["sweep", "--scenario", "e-health"], "1,1", None, "seeds: [1, 1] lists a seed twice"),
    (["compare"], None, EHEALTH_DOCUMENT % ('["e-health", "e-health"]', "[1]", ""),
     "scenario: ['e-health', 'e-health'] lists a name twice"),
    (["run"], None, EHEALTH_DOCUMENT % ('"e-health"', "[true]", ""),
     "seeds must be a non-empty list of integers"),
    (["sweep"], None, EHEALTH_DOCUMENT % ('"e-health"', "[1]", ', "strategy": "tradeoff"'),
     "unknown strategy 'tradeoff'"),
    (["compare"], None, EHEALTH_DOCUMENT % ('["e-health", "crowd"]', "[1]", CROWD),
     "scenario crowd: 5e+09 expected tasks"),
], ids=["seeds-twice", "env-seeds-twice", "scenario-twice", "seed-bool", "strategy-typo",
        "task-limit-in-a-later-scenario"])
def test_repeats_and_values_no_cell_can_have_exit_2(tmp_path, monkeypatch, capsys, argv, env,
                                                    document, message):
    if env is not None:
        monkeypatch.setenv("PONEDGE_SEED", env)
    if document is not None:
        config = tmp_path / "exp.json"
        config.write_text(document)
        argv = argv + ["--config", str(config)]
    assert main(argv + ["--jobs", "1", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_sweep_config_takes_the_documents_one_scenario(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(EHEALTH_DOCUMENT % ('"e-health"', "[1, 2]", ""))
    aggregates = []
    for flags in ([], ["--scenario", "e-health"]):
        out = tmp_path / f"out{len(flags)}"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out),
                     "--jobs", "1"] + flags) == 0
        aggregate = out / "e-health" / "aggregate.csv"
        assert capsys.readouterr().out == f"swept e-health: 4 runs -> {aggregate}\n"
        aggregates.append(aggregate.read_bytes())
    assert aggregates[0] == aggregates[1]
    config.write_text(EHEALTH_DOCUMENT % ('["e-health", "aigc"]', "[1]", ""))
    assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path / "two")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: this command needs exactly one scenario, got 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2


NON_FINITE_DOCUMENT = ('{"scenario": "e-health", "cpus": [220000], "seeds": [1], '
                       '"duration": %s}')
NON_FINITE_SCENARIO = ('{"scenario": "lab", "cpus": [220000], "seeds": [1], "duration": 20, '
                       '"custom_scenarios": [{"name": "lab", "users": 2, "rate_per_min": %s, '
                       '"deadline_s": 0.1, "length_mi": 800, "request_kb": 20, '
                       '"result_kb": 5}]}')


# a non-finite horizon or rate never ends the arrival draw; a non-finite
# MIPS rating breaks the kernel's arithmetic
@pytest.mark.parametrize("flags,document", [
    (["--duration", "inf"], None),
    (["--duration", "nan"], None),
    (["--cpu-mips", "inf"], None),
    (["--cpu-mips", "nan"], None),
    (None, NON_FINITE_DOCUMENT % "Infinity"),
    (None, NON_FINITE_DOCUMENT % "1e999"),
    (None, NON_FINITE_DOCUMENT % "NaN"),
    (None, NON_FINITE_DOCUMENT.replace("220000", "1e999") % "20"),
    (None, NON_FINITE_SCENARIO % "1e999"),
], ids=["duration-inf", "duration-nan", "mips-inf", "mips-nan", "json-duration-infinity",
        "json-duration-1e999", "json-duration-nan", "json-mips-1e999", "json-rate-1e999"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, flags, document):
    out = tmp_path / "out"
    out.mkdir()
    if document is None:
        argv = RUN_FLAGS + flags
    else:
        config = tmp_path / "exp.json"
        config.write_text(document)
        argv = ["run", "--config", str(config)]
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_custom_scenario_without_cpus_exits_2(tmp_path, capsys, command):
    # only the presets have a CPU grid of their own
    config = tmp_path / "exp.json"
    config.write_text(NON_FINITE_SCENARIO.replace('"cpus": [220000], ', "") % "30")
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("configuration error: custom scenario 'lab' has no CPU "
                                       "grid, so the document must list cpus\n")
    assert list(out.iterdir()) == []


def _custom(name):
    return ('{"scenario": %s, "cpus": [220000], "seeds": [1], "duration": 20, '
            '"custom_scenarios": [{"name": %s, "users": 2, "rate_per_min": 30, '
            '"deadline_s": 0.1, "length_mi": 800, "request_kb": 20, "result_kb": 5}]}'
            % (json.dumps(name), json.dumps(name)))


# a scenario name is a directory of its cells, and a cell directory is named
# by its MIPS: neither may leave --out-dir or land on another cell's
@pytest.mark.parametrize("command,scenario,document", [
    *(("run", name, _custom(name)) for name in ("../../x", "a/b", ".x", "", "aigc")),
    ("sweep", "aigc", '{"scenario": "aigc", "cpus": [700000, {"label": "again", "mips": 7e5}], '
                      '"seeds": [1], "duration": 1}'),
], ids=["parent-dirs", "separator", "leading-dot", "empty", "preset-name", "mips-twice"])
def test_names_that_are_not_a_cell_of_their_own_exit_2(tmp_path, capsys, command, scenario,
                                                        document):
    config = tmp_path / "exp.json"
    config.write_text(document)
    assert main([command, "--scenario", scenario, "--config", str(config), "--jobs", "1",
                 "--out-dir", str(tmp_path / "out" / "a" / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [config]


CALIBRATED = ('{"scenario": "e-health", "cpus": [220000], "seeds": [1], "duration": 5, '
              '"calibration": {"%s": %s}}')
CPU_ENTRY = '{"scenario": "e-health", "cpus": [%s], "seeds": [1], "duration": 5}'


# each calibration value of the wrong type or out of range (cores past a C
# int included), each custom scenario that cannot be one, and each `cpus`
# object whose MIPS is not a number or whose label is not a string; every one
# names its key
@pytest.mark.parametrize("key,document", [
    *((key, CALIBRATED % (key, value)) for key, value in (
        ("edge_cores", "1.5"), ("edge_ram_mb", '"big"'), ("pon_length_m", "NaN"),
        ("cloud_weight", "-1"), ("control_plane_delay_s", "-1"), ("task_ram_mb", "-1"),
        ("wan_fixed_latency_s", "NaN"), ("fiber_bandwidth_bps", "Infinity"),
        ("edge_cores", "true"), ("far_edge_execution", '"no"'), ("edge_cores", "0"),
        ("cloud_mips", "0"), ("edge_cores", "10000000000"), ("cloud_cores", "2147483648"))),
    ("users", _custom("lab").replace('"users": 2', '"users": 2.5')),
    ("rate_per_min", _custom("lab").replace('"rate_per_min": 30', '"rate_per_min": "30"')),
    ("'lab' is defined twice", _custom("lab").replace(
        '"result_kb": 5}', '"result_kb": 5}, {"name": "lab", "users": 9, "rate_per_min": 600, '
                           '"deadline_s": 0.1, "length_mi": 800, "request_kb": 20, '
                           '"result_kb": 5}')),
    ("cpus: mips", CPU_ENTRY % '{"mips": "big"}'),
    ("cpus: mips", CPU_ENTRY % '{"mips": "220000"}'),
    ("cpus: label", CPU_ENTRY % '{"label": 7, "mips": 220000}'),
], ids=["cores-fraction", "ram-text", "length-nan", "weight-negative", "control-negative",
        "footprint-negative", "latency-nan", "bandwidth-infinity", "cores-bool",
        "far-edge-text", "cores-zero", "cloud-mips-zero", "cores-past-c-int",
        "cloud-cores-past-c-int", "users-fraction", "rate-text", "scenario-twice",
        "cpu-mips-text", "cpu-mips-numeric-text", "cpu-label-number"])
def test_bad_calibration_and_scenarios_exit_2(tmp_path, capsys, key, document):
    config = tmp_path / "exp.json"
    config.write_text(document)
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert key in err
    assert list(tmp_path.iterdir()) == [config]


HUGE ="1" + "0" * 400  # a JSON integer past the float range, though below math.inf


# such an integer ended in an OverflowError traceback (exit 1) where it first
# met float arithmetic
@pytest.mark.parametrize("key,document", [
    ("cpus: mips", CPU_ENTRY % HUGE),
    ("calibration: pon_length_m", CALIBRATED % ("pon_length_m", HUGE)),
    ("duration", NON_FINITE_DOCUMENT % HUGE),
], ids=["cpu-mips", "pon-length", "duration"])
def test_integers_past_the_float_range_exit_2(tmp_path, capsys, key, document):
    config = tmp_path / "exp.json"
    config.write_text(document)
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {key} must be at most 1.7976931348623157e+308\n")
    assert not (tmp_path / "out").exists()
    assert list(tmp_path.iterdir()) == [config]


def test_distinct_mips_get_distinct_cells_and_labels(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text('{"scenario": "aigc", "topology": "genio", '
                      '"cpus": [2350000, 2350001], "seeds": [1], "duration": 1}')
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", "aigc", "--config", str(config), "--out-dir", str(out),
                 "--jobs", "1"]) == 0
    labels = {}
    for directory in ("2.35e+06", "2350001"):
        summary = read_summary_csv(out / "aigc" / "genio" / directory / "1" / "summary.csv")
        labels[directory] = (summary.cpu, summary.mips)
    assert labels == {"2.35e+06": ("AMD Ryzen 3990X", 2_350_000.0),
                      "2350001": ("custom-2350001", 2_350_001.0)}


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_compiler)])
def test_huge_horizon_exits_2_before_any_draw(tmp_path, backend):
    # 10 devices at one task a second for 1e12 s expect 1e13 tasks, past the
    # kernels' 32-bit task count; the draw alone would run for hours. The
    # child's address space is capped, so a draw that does start fails on
    # memory instead of filling it.
    argv = RUN_FLAGS[:-1] + ["1e12", "--out-dir", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-m", "ponedge.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC, PONEDGE_BACKEND=backend),
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=cap_address_space)
    assert done.returncode == 2
    assert done.stderr.startswith("configuration error: scenario e-health: 1e+13 expected tasks")
    assert done.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


MAX_CORES_DOCUMENT = ('{"scenario": "e-health", "calibration": '
                      '{"edge_cores": 2147483647, "cloud_cores": 2147483647}}')


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_compiler)])
def test_core_counts_past_an_int_exit_1(tmp_path, backend):
    # each count is allowed, but the run's 4294967315 cores are more than the
    # kernels index; the child's address space is capped
    config = tmp_path / "exp.json"
    config.write_text(MAX_CORES_DOCUMENT)
    argv = RUN_FLAGS[:-2] + ["--duration", "5", "--config", str(config),
                             "--out-dir", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-m", "ponedge.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC, PONEDGE_BACKEND=backend),
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_address_space)
    assert done.returncode == 1
    assert done.stderr.startswith("out of memory: ") and done.stderr.count("\n") == 1
    assert not (tmp_path / "out" / "e-health").exists()


def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("the C kernel could not allocate the arrivals")

    monkeypatch.setattr(sweep, "run_simulation", exhausted)
    assert main(RUN_FLAGS + ["--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "out of memory: the C kernel could not allocate the arrivals\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_grid_and_aggregate(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", "smart-city", "--seeds", "1..5",
                 "--duration", "2", "--out-dir", str(out), "--jobs", "2"])
    assert code == 0
    # 2 topologies x 5 CPUs x 5 seeds
    cells = [p for p in out.rglob("summary.csv") if p.parent.name in "12345"]
    assert len(cells) == 50
    aggregate = (out / "smart-city" / "aggregate.csv").read_text().strip().split("\n")
    assert len(aggregate) == 1 + 10  # header + one row per (topology, cpu)


def test_sweep_single_seed_zero_std(tmp_path):
    out = tmp_path / "s1"
    assert main(["sweep", "--scenario", "e-health", "--seeds", "3",
                 "--duration", "5", "--out-dir", str(out), "--jobs", "1"]) == 0
    rows = (out / "e-health" / "aggregate.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    std_columns = [i for i, name in enumerate(header) if name.endswith("_std")]
    for row in rows[1:]:
        values = row.split(",")
        assert all(float(values[i]) == 0.0 for i in std_columns)


def test_sweep_reuses_cached_cells(tmp_path):
    out = tmp_path / "cache"
    argv = ["sweep", "--scenario", "e-health", "--seeds", "1",
            "--duration", "5", "--out-dir", str(out), "--jobs", "1"]
    assert main(argv) == 0
    stamp = (out / "e-health" / "genio" / "220000" / "1" / "summary.csv").stat().st_mtime_ns
    assert main(argv) == 0
    assert (out / "e-health" / "genio" / "220000" / "1" / "summary.csv").stat().st_mtime_ns == stamp


def test_run_recomputes_cell_published_with_other_settings(tmp_path):
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert main(RUN_FLAGS[:-1] + ["5", "--out-dir", str(shared)]) == 0
    assert main(RUN_FLAGS[:-1] + ["7", "--out-dir", str(shared)]) == 0
    assert main(RUN_FLAGS[:-1] + ["7", "--out-dir", str(fresh)]) == 0
    cell = ("e-health", "genio", "220000", "1")
    config = json.loads(shared.joinpath(*cell, "config.json").read_text())
    assert config["duration_s"] == 7.0
    for name in ("tasks.csv", "summary.csv", "config.json"):
        assert shared.joinpath(*cell, name).read_bytes() == fresh.joinpath(*cell, name).read_bytes()


def test_run_recomputes_cell_published_by_an_earlier_model(tmp_path):
    out = tmp_path / "results"
    assert main(RUN_FLAGS + ["--out-dir", str(out)]) == 0
    cell = out / "e-health" / "genio" / "220000" / "1"
    published = {name: (cell / name).read_bytes()
                 for name in ("tasks.csv", "summary.csv", "config.json")}
    config = json.loads(published["config.json"])
    assert config["model_revision"] == sweep.MODEL_REVISION
    config["model_revision"] = 0
    (cell / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    (cell / "summary.csv").write_text("left by the earlier model\n")
    assert main(RUN_FLAGS + ["--out-dir", str(out)]) == 0
    for name, data in published.items():
        assert (cell / name).read_bytes() == data


def test_compare_scenario_outputs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--scenario", "e-health", "--seeds", "1,2",
                 "--duration", "5", "--out-dir", str(out), "--jobs", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "average latency reduction" in stdout
    assert (out / "comparison.csv").is_file()
    plot = (out / "plot_data.csv").read_text().strip().split("\n")
    assert plot[0] == "scenario,cpu,mips,topology,tsr_pct,mean_latency_s,deadline_s"
    assert len(plot) == 1 + 5 * 2  # 5 CPUs x 2 topologies


def test_compare_reuses_existing_sweep(tmp_path, capsys):
    out = tmp_path / "reuse"
    assert main(["sweep", "--scenario", "e-health", "--seeds", "1",
                 "--duration", "5", "--out-dir", str(out), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["compare", "--scenario", "e-health", "--seeds", "1",
                 "--duration", "5", "--out-dir", str(out), "--jobs", "1"]) == 0
    assert "average latency reduction" in capsys.readouterr().out


def test_run_republishes_compare_cell_with_tasks(tmp_path, capsys):
    # compare cells hold summaries only; `run` on one of them must recompute
    # it for tasks.csv instead of reusing it, and leave the summary as it was
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert main(["compare", "--scenario", "e-health", "--seeds", "1", "--duration", "5",
                 "--out-dir", str(shared), "--jobs", "1"]) == 0
    cells = list(shared.glob("e-health/*/*/1"))
    assert len(cells) == 2 * 5
    for cell in cells:
        assert sorted(path.name for path in cell.iterdir()) == ["config.json", "summary.csv"]
    cell = shared / "e-health" / "genio" / "220000" / "1"
    published = {name: (cell / name).read_bytes() for name in ("summary.csv", "config.json")}
    run_flags = RUN_FLAGS[:-1] + ["5"]
    assert main(run_flags + ["--out-dir", str(shared)]) == 0
    assert main(run_flags + ["--out-dir", str(fresh)]) == 0
    fresh_cell = fresh / "e-health" / "genio" / "220000" / "1"
    assert (cell / "tasks.csv").read_bytes() == (fresh_cell / "tasks.csv").read_bytes()
    for name, data in published.items():
        assert (cell / name).read_bytes() == data


@pytest.mark.parametrize("argv", [
    ["compare", "--all", "--seeds", "1", "--duration", "30"],
    ["sweep", "--scenario", "aigc", "--seeds", "1..2", "--duration", "30"],
], ids=["compare", "sweep"])
def test_cached_cells_report_what_fresh_ones_do(tmp_path, capsys, argv):
    # aggregates computed from fresh cells, cached cells and a mix of both
    # must be the same bytes: every path reads the summaries as published
    out = tmp_path / "out"

    def outputs():
        assert main(argv + ["--out-dir", str(out), "--jobs", "1"]) == 0
        tables = {path.relative_to(out): path.read_bytes() for path in out.rglob("*.csv")
                  if path.name in ("aggregate.csv", "comparison.csv", "plot_data.csv")}
        return capsys.readouterr().out, tables

    fresh = outputs()
    assert fresh[1]
    assert outputs() == fresh
    for cell in sorted(out.glob("*/*/*/*"))[::2]:
        shutil.rmtree(cell)
    assert outputs() == fresh


def test_compare_all_in_one_pool_matches_serial(tmp_path, capsys):
    # every scenario's cells share one set of workers, threads on the C kernel
    # and processes on pure Python; files and tables must not depend on how
    # many workers ran them
    trees = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["compare", "--all", "--seeds", "1", "--duration", "3",
                     "--out-dir", str(out), "--jobs", jobs]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        files = {path.relative_to(out).as_posix(): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        trees[jobs] = (stdout, files)
    assert len(trees["1"][1]) == 4 * 2 * 5 * 2 + 4 + 2  # cells x files, aggregates, tables
    assert trees["2"] == trees["1"]


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_compiler)])
def test_cells_run_in_this_process_on_c_only(tmp_path, monkeypatch, backend):
    # the C kernel releases the GIL, so its cells run on threads of this
    # process, which then holds each shape and arrival draw once; the
    # pure-Python kernel's cells run in worker processes
    monkeypatch.setenv("PONEDGE_BACKEND", backend)
    # forked workers keep the recording patch below
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    pids = tmp_path / "pids"
    run_simulation = sweep.run_simulation

    def recording(*args, **kwargs):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_simulation(*args, **kwargs)

    monkeypatch.setattr(sweep, "run_simulation", recording)
    preset_shape.cache_clear()
    _cached_arrivals.cache_clear()
    assert main(["compare", "--all", "--seeds", "1", "--duration", "5", "--jobs", "2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    cell_pids = pids.read_text().split()
    assert len(cell_pids) == 4 * 2 * 5
    held = preset_shape.cache_info().currsize, _cached_arrivals.cache_info().currsize
    if backend == "c":
        assert set(cell_pids) == {str(os.getpid())}
        assert held == (8, 4)
    else:
        assert str(os.getpid()) not in cell_pids
        assert held == (0, 0)


# e-health/baseline/440000, the 18th of 40 cells, fails; `compare` takes the
# command line, and forked pool workers keep the patch
FAILING_CELL = """
import multiprocessing, sys
from ponedge import sweep
from ponedge.cli import main
from ponedge.engine import SimulationError

run_simulation = sweep.run_simulation

def failing(params, **kwargs):
    if (params.scenario.name, params.topology, params.cpu_mips) == ("e-health", "baseline",
                                                                    440000.0):
        raise SimulationError("conservation violated")
    return run_simulation(params, **kwargs)

sweep.run_simulation = failing
multiprocessing.set_start_method("fork")
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_compiler)])
def test_failed_cell_under_two_jobs_exits_1_with_one_line(tmp_path, backend):
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-c", FAILING_CELL, "compare", "--all", "--seeds", "1",
                           "--duration", "60", "--jobs", "2", "--out-dir", str(out)],
                          env=dict(os.environ, PYTHONPATH=SRC, PONEDGE_BACKEND=backend),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "simulation failure: conservation violated\n")
    assert list(out.rglob("*.tmp-*")) == []
    assert not (out / "e-health" / "baseline" / "440000").exists()


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_compiler)])
def test_interrupt_exits_130_with_one_line(tmp_path, backend):
    # SIGINT to the whole process group, as a terminal's Ctrl-C sends it, once
    # the first cell is published; the grid takes far longer than that
    out = tmp_path / "out"
    child = subprocess.Popen([sys.executable, "-m", "ponedge.cli", "compare", "--all",
                              "--seeds", "1..5", "--duration", "1200", "--jobs", "2",
                              "--out-dir", str(out)],
                             env=dict(os.environ, PYTHONPATH=SRC, PONEDGE_BACKEND=backend),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not any(out.glob("*/*/*/*/summary.csv")):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        os.killpg(child.pid, signal.SIGINT)
        stdout, stderr = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    assert (child.returncode, stdout, stderr) == (130, "", "interrupted\n")
    assert list(out.rglob("*.tmp-*")) == []


def test_run_cells_refuses_a_repeated_cell(tmp_path, monkeypatch):
    # two workers would publish a cell listed twice; no experiment lists one
    cell = RunParams(scenario_preset("e-health"), "genio", 220_000.0, 1, duration_s=5.0)
    calls = []
    monkeypatch.setattr(sweep, "run_cell", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigurationError, match="^two cells would publish one directory$"):
        sweep.run_cells([cell, cell], str(tmp_path), 2)
    assert calls == []


def test_run_cells_threads_take_each_cell_once_and_raise_the_first_failure(tmp_path,
                                                                          monkeypatch):
    # more threads than cores, switching as often as the interpreter allows: a
    # lost update of the shared cell order would run a cell twice or skip one
    monkeypatch.setattr(sweep, "resolve_backend", lambda: "c")
    cells = [RunParams(scenario_preset("e-health"), "genio", 220_000.0, seed, duration_s=5.0)
             for seed in range(400)]
    calls = []

    def run_cell(params, out_dir, *, tasks_csv):
        calls.append(params.seed)
        if params.seed in failing:
            time.sleep(failing[params.seed])
            raise SimulationError(f"cell {params.seed}")
        return params.seed

    monkeypatch.setattr(sweep, "run_cell", run_cell)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        failing = {}
        assert sweep.run_cells(cells, str(tmp_path), 8) == list(range(400))
        assert sorted(calls) == list(range(400))
        # cell 101 fails first, but a serial run would have raised cell 100's
        failing = {100: 0.05, 101: 0.0}
        with pytest.raises(SimulationError, match="^cell 100$"):
            sweep.run_cells(cells, str(tmp_path), 8)
    finally:
        sys.setswitchinterval(interval)


def test_config_file_experiment(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "scenario": "e-health",
        "topology": "baseline",
        "cpus": [300000],
        "seeds": [4],
        "duration": 10,
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    summary = read_summary_csv(out / "e-health" / "baseline" / "300000" / "4" / "summary.csv")
    assert summary.topology == "baseline"
    assert summary.seed == 4


def test_run_multi_core_edge_completes(tmp_path):
    # a join at the same time as a member's serialization end used to drain
    # that member below zero bits and abort the run at t=33.023 s
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "scenario": "aigc", "topology": "baseline", "cpus": [800000],
        "seeds": [123457], "duration": 60, "calibration": {"edge_cores": 3},
    }))
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_compiler)])
def test_infinite_request_runs_and_delivers_nothing(tmp_path, monkeypatch, backend):
    # 1e305 KB is inf bits, which the kernel contract allows: every uplink
    # ends at inf, past the horizon
    monkeypatch.setenv("PONEDGE_BACKEND", backend)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "scenario": "huge-request", "topology": "genio", "cpus": [220000], "seeds": [1],
        "duration": 5, "custom_scenarios": [{
            "name": "huge-request", "users": 10, "rate_per_min": 60, "deadline_s": 0.1,
            "length_mi": 800, "request_kb": 1e305, "result_kb": 5}],
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    summary = read_summary_csv(out / "huge-request" / "genio" / "220000" / "1" / "summary.csv")
    assert (summary.tasks_generated, summary.tasks_delivered) == (54, 0)


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text('{"scenario": "e-health", "speeed": 1}')
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert "speeed" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_compare_config_compares_the_documents_scenarios(tmp_path, capsys):
    scenario = {"users": 2, "rate_per_min": 30, "deadline_s": 0.1, "length_mi": 800,
                "request_kb": 20, "result_kb": 5}
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "scenario": ["lab", "office"], "cpus": [220000], "seeds": [1], "duration": 20,
        "custom_scenarios": [dict(scenario, name="lab"),
                             dict(scenario, name="office", users=3)]}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out-dir", str(out), "--jobs", "1"]) == 0
    stdout = capsys.readouterr().out
    assert "lab: average latency reduction" in stdout
    assert "office: average latency reduction" in stdout
    with open(out / "comparison.csv", newline="") as fh:
        assert [row.split(",")[0] for row in fh.read().splitlines()[1:]] == ["lab", "office"]
    for name, users in (("lab", 2), ("office", 3)):
        config_json = json.loads((out / name / "genio" / "220000" / "1" / "config.json")
                                 .read_text())
        assert config_json["scenario"]["users"] == users


def test_compare_rejects_missing_selection(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare"])
    assert exc.value.code == 2
