"""CLI surfaces: flags, exit codes, file layout, determinism, env override."""

import json
import shutil

import pytest

from ponedge import simulation, sweep
from ponedge.cli import main
from ponedge.config import DEFAULT_CALIBRATION
from ponedge.metrics import read_summary_csv
from ponedge.workload import scenario_preset

from fresh_process import path_finds_compiler, ponedge_env, run_cli, run_python

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
    # a trace of several chunks whose second chunk fails to format
    cell = sweep.CellSpec(scenario_preset("e-health"), "genio", "", 220_000.0, 1, 120.0,
                          "trade-off", "poisson", DEFAULT_CALIBRATION, str(tmp_path / "out"))
    trace = tmp_path / "events.tsv"
    trace.write_bytes(b"an earlier trace\n")
    format_chunk = simulation._trace_lines
    calls = []

    def fail_on_second_chunk(topo, rows):
        rows = list(rows)
        calls.append(len(rows))
        if len(calls) == 2:
            raise OSError("no space left on device")
        return format_chunk(topo, rows)

    monkeypatch.setattr(simulation, "_trace_lines", fail_on_second_chunk)
    with pytest.raises(OSError):
        sweep.run_cell(cell, trace_path=str(trace), tasks_csv=True)
    assert len(calls) == 2 and calls[0] == simulation.TRACE_CHUNK
    assert trace.read_bytes() == b"an earlier trace\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["events.tsv", "out"]


def test_cli_import_starts_no_process_pool_machinery(tmp_path):
    # importing the CLI starts no compiler and loads no C kernel
    code = ("import sys, ponedge.cli; "
            "print(sorted({'ctypes', 'multiprocessing', 'subprocess'} & set(sys.modules)))")
    assert run_python(code, ponedge_env(tmp_path)).stdout == "[]\n"
    assert not (tmp_path / "cache").exists()


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PONEDGE_SEED", "9")
    out = tmp_path / "res"
    assert main(["run", "--scenario", "e-health", "--topology", "genio",
                 "--cpu-mips", "220000", "--duration", "10",
                 "--out-dir", str(out)]) == 0
    (summary,) = read_summary_csv(out / "e-health" / "genio" / "220000" / "9" / "summary.csv")
    assert summary.seed == 9


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
    # every scenario's cells share one worker pool; files and tables must not
    # depend on how many workers ran them
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


def test_run_cells_runs_a_repeated_cell_once(tmp_path, monkeypatch):
    # a cell listed twice (e.g. --seeds 1,1) must not be published by two workers
    cell = sweep.CellSpec(scenario_preset("e-health"), "genio", "", 220_000.0, 1, 5.0,
                          "trade-off", "poisson", DEFAULT_CALIBRATION, str(tmp_path))
    calls = []
    monkeypatch.setattr(sweep, "run_cell",
                        lambda c, *, tasks_csv: calls.append((c, tasks_csv)) or c.seed)
    assert sweep.run_cells([cell, cell], jobs=2) == [1, 1]
    assert calls == [(cell, False)]


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
    (summary,) = read_summary_csv(out / "e-health" / "baseline" / "300000" / "4" / "summary.csv")
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


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text('{"scenario": "e-health", "speeed": 1}')
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert "speeed" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_compare_rejects_missing_selection(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare"])
    assert exc.value.code == 2
