"""Command-line front end: run one cell, sweep the CPU grid, compare topologies."""

from __future__ import annotations

import argparse
import os
import sys

from . import _kernel
from .config import (DEFAULT_ARRIVALS, DEFAULT_DURATION_S, DEFAULT_STRATEGY, STRATEGIES,
                     ExperimentSpec, parse_experiment, parse_seeds)
from .engine import SimulationError
from .metrics import EmptyRunError, format_number
from .network import ConfigurationError, replace
from .simulation import RunParams
from .sweep import (cell_directory, compare_scenarios, run_cell, sweep_scenarios,
                    write_comparison)
from .workload import ARRIVAL_MODES, SCENARIOS

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process it interrupted


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default="results", help="results root (default: results)")
    parser.add_argument("--duration", type=float, default=None,
                        help=f"simulated seconds (default {DEFAULT_DURATION_S:g})")
    parser.add_argument("--strategy", choices=STRATEGIES, default=None,
                        help=f"scheduler strategy (default {DEFAULT_STRATEGY})")
    parser.add_argument("--arrivals", choices=ARRIVAL_MODES, default=None,
                        help=f"arrival process (default {DEFAULT_ARRIVALS})")
    parser.add_argument("--config", default=None,
                        help="JSON experiment document; explicit flags override it")
    parser.add_argument("--jobs", type=int, default=0,
                        help="cells run at once: threads on the C kernel, worker "
                             "processes on pure Python (default: cpu count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ponedge",
        description="Discrete-event simulator comparing in-office PON edge "
                    "computing against a remote edge server.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single simulation cell")
    run_p.add_argument("--scenario", default=None)
    run_p.add_argument("--topology", choices=("genio", "baseline"), default=None)
    run_p.add_argument("--cpu-mips", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trace", default=None, help="write the event trace to this file")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="run both topologies x CPU grid x seeds")
    sweep_p.add_argument("--scenario", default=None)  # optional with --config
    sweep_p.add_argument("--seeds", default=None, help='e.g. "1..5" or "1,2,3"')
    _add_common(sweep_p)

    cmp_p = sub.add_parser("compare", help="compare genio vs baseline per scenario")
    # both optional with --config, which then names the scenarios
    group = cmp_p.add_mutually_exclusive_group()
    group.add_argument("--scenario", default=None)
    group.add_argument("--all", action="store_true", help="all four scenario presets")
    cmp_p.add_argument("--seeds", default=None)
    _add_common(cmp_p)
    return parser


def _seeds_from_text(raw: str) -> tuple[int, ...]:
    text = raw.strip()
    if ".." in text and "," not in text:
        return parse_seeds(text)
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"seeds: cannot parse {raw!r} (use e.g. \"1..5\" or \"1,2,3\")") from None
    return parse_seeds(seeds)


def _experiment(args) -> ExperimentSpec:
    """Resolve the experiment: explicit flags over the config file, or over the
    defaults without one. PONEDGE_SEED replaces the default seeds only when no
    --config is given: a document's seeds, or the defaults it leaves, stand."""
    if args.config:
        try:
            with open(args.config) as fh:
                spec = parse_experiment(fh.read())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {args.config}") from None
    else:
        spec = ExperimentSpec(scenarios=tuple(sorted(SCENARIOS)))
    overrides = {}
    if getattr(args, "scenario", None):
        overrides["scenarios"] = (args.scenario,)
    if getattr(args, "all", False):
        overrides["scenarios"] = tuple(sorted(SCENARIOS))
    if getattr(args, "topology", None):
        overrides["topologies"] = (args.topology,)
    if getattr(args, "cpu_mips", None) is not None:
        overrides["cpus"] = (("", args.cpu_mips),)  # the cell names the CPU
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    elif getattr(args, "seeds", None):
        overrides["seeds"] = _seeds_from_text(args.seeds)
    elif not args.config and os.environ.get("PONEDGE_SEED"):
        overrides["seeds"] = _seeds_from_text(os.environ["PONEDGE_SEED"])
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.strategy:
        overrides["strategy"] = args.strategy
    if args.arrivals:
        overrides["arrivals"] = args.arrivals
    return replace(spec, **overrides) if overrides else spec


def _single(values, what: str):
    if len(values) != 1:
        raise ConfigurationError(f"this command needs exactly one {what}, got {len(values)}")
    return values[0]


def _check_trace_path(trace: str, out_dir: str, cell_dir: str) -> None:
    """Refuse a --trace path that cannot be written, or that lies in this run's
    cell, on its path, or in any cell published under out_dir."""
    path, root, cell = (os.path.realpath(name) for name in (trace, out_dir, cell_dir))
    parent = os.path.dirname(path)
    why = None
    if not trace or os.path.isdir(trace):
        why = "a directory" if trace else "an empty path"
    elif not os.path.isdir(parent) and parent != root:  # the run creates the out-dir
        why = "its directory does not exist"
    elif os.path.commonpath([path, cell]) in (path, cell):
        why = "inside this run's cell directory, or on its path"
    while why is None and parent != root and os.path.commonpath([parent, root]) == root:
        if os.path.isfile(os.path.join(parent, "config.json")):
            why = f"inside the published cell {parent}"
        parent = os.path.dirname(parent)
    if why is not None:
        raise ConfigurationError(f"--trace {trace!r}: {why}")


def cmd_run(args) -> int:
    if not args.config and not args.scenario:
        raise ConfigurationError("run needs --scenario (or --config)")
    spec = _experiment(args)
    scenario = spec.scenario_spec(_single(spec.scenarios, "scenario"))
    topology = _single(spec.topologies, "topology")
    if spec.cpus is None:
        raise ConfigurationError("run needs --cpu-mips (or cpus in --config)")
    cpu, mips = _single(spec.cpus, "cpu")
    params = RunParams(scenario, topology, mips, spec.seeds[0], cpu=cpu,
                       duration_s=spec.duration_s, strategy=spec.strategy,
                       arrivals=spec.arrivals, calibration=spec.calibration)
    if args.trace is not None:
        _check_trace_path(args.trace, args.out_dir, cell_directory(args.out_dir, params))
    summary = run_cell(params, args.out_dir, trace_path=args.trace, tasks_csv=True)
    print(f"scenario={summary.scenario} topology={summary.topology} cpu={summary.cpu!r} "
          f"mips={summary.mips:g} seed={summary.seed}")
    print(f"  tasks: {summary.tasks_generated} generated, {summary.tasks_delivered} delivered, "
          f"tsr {format_number(summary.tsr_pct)}%")
    print(f"  latency: mean {format_number(summary.mean_latency_s)} s, "
          f"p95 {format_number(summary.p95_latency_s)} s, "
          f"deadline hit {format_number(summary.deadline_hit_pct)}%")
    print(f"  results: {cell_directory(args.out_dir, params)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = _experiment(args)
    scenario = _single(spec.scenarios, "scenario")
    (summaries,) = sweep_scenarios(spec, out_dir=args.out_dir, jobs=args.jobs)
    print(f"swept {scenario}: {len(summaries)} runs "
          f"-> {os.path.join(args.out_dir, scenario, 'aggregate.csv')}")
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _experiment(args)
    comparisons = compare_scenarios(spec, out_dir=args.out_dir, jobs=args.jobs)
    deadlines = {name: spec.scenario_spec(name).deadline_s for name in spec.scenarios}
    comparison_path, plot_path = write_comparison(args.out_dir, comparisons, deadlines)
    print(f"{'scenario':<15} {'cpu':<22} {'genio lat (s)':>14} "
          f"{'baseline lat (s)':>17} {'reduction':>10} {'genio tsr':>10} "
          f"{'baseline tsr':>13}")
    for comp in comparisons:
        for row in comp.rows:
            print(f"{row.scenario:<15} {row.cpu:<22} {row.genio_mean_latency_s:>14.6g} "
                  f"{row.baseline_mean_latency_s:>17.6g} {row.reduction_pct:>9.1f}% "
                  f"{row.genio_tsr_pct:>9.2f}% {row.baseline_tsr_pct:>12.2f}%")
    for comp in comparisons:
        print(f"{comp.scenario}: average latency reduction {comp.average_reduction_pct:.1f}% "
              f"(over {len(comp.rows)} CPUs, seeds {','.join(map(str, comp.seeds))})")
    print(f"wrote {comparison_path} and {plot_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and not (args.scenario or args.all or args.config):
        parser.error("compare needs --scenario, --all or --config")
    if args.command == "sweep" and not (args.scenario or args.config):
        parser.error("sweep needs --scenario or --config")
    handler = {"run": cmd_run, "sweep": cmd_sweep, "compare": cmd_compare}[args.command]
    try:
        # checked before any cell is reused, so that a bad PONEDGE_BACKEND is
        # refused even when every cell the command needs is cached
        _kernel.resolve_backend()
        return handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except EmptyRunError as exc:
        print(f"empty run: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print("out of memory", *exc.args[:1], sep=": ", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
