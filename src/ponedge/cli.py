"""Command-line front end: run one cell, sweep the CPU grid, compare topologies."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import (DEFAULT_ARRIVALS, DEFAULT_CALIBRATION, DEFAULT_DURATION_S,
                     DEFAULT_SEEDS, DEFAULT_STRATEGY, STRATEGIES, ExperimentSpec,
                     cpu_label, parse_experiment, parse_seeds)
from .engine import SimulationError
from .metrics import format_number
from .network import ConfigurationError
from .sweep import CellSpec, compare_scenarios, run_cell, sweep_scenario, write_comparison
from .workload import ARRIVAL_MODES, SCENARIOS

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default="results", help="results root (default: results)")
    parser.add_argument("--duration", type=float, default=None,
                        help=f"simulated seconds (default {DEFAULT_DURATION_S:g})")
    parser.add_argument("--strategy", choices=STRATEGIES, default=None,
                        help="scheduler strategy (default trade-off)")
    parser.add_argument("--arrivals", choices=ARRIVAL_MODES, default=None,
                        help="arrival process (default poisson)")
    parser.add_argument("--config", default=None,
                        help="JSON experiment document; explicit flags override it")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel worker processes (default: cpu count)")


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
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--seeds", default=None, help='e.g. "1..5" or "1,2,3"')
    _add_common(sweep_p)

    cmp_p = sub.add_parser("compare", help="compare genio vs baseline per scenario")
    group = cmp_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", default=None)
    group.add_argument("--all", action="store_true", help="all four scenario presets")
    cmp_p.add_argument("--seeds", default=None)
    _add_common(cmp_p)
    return parser


def _seeds_from_text(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if "," in raw:
        return tuple(int(part) for part in raw.split(","))
    if ".." in raw:
        return parse_seeds(raw)
    return (int(raw),)


def _experiment(args) -> ExperimentSpec:
    """Resolve the experiment: config file < PONEDGE_SEED < explicit flags."""
    if args.config:
        try:
            with open(args.config) as fh:
                spec = parse_experiment(fh.read())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {args.config}") from None
    else:
        scenario = getattr(args, "scenario", None)
        if getattr(args, "all", False) or scenario is None:
            names = sorted(SCENARIOS)
        else:
            names = [scenario]
        spec = ExperimentSpec(
            scenarios=tuple(names), topologies=("genio",), cpus=None,
            seeds=DEFAULT_SEEDS, duration_s=DEFAULT_DURATION_S,
            strategy=DEFAULT_STRATEGY, arrivals=DEFAULT_ARRIVALS,
            calibration=DEFAULT_CALIBRATION,
        )
    overrides = {}
    if getattr(args, "scenario", None):
        overrides["scenarios"] = (args.scenario,)
    if getattr(args, "all", False):
        overrides["scenarios"] = tuple(sorted(SCENARIOS))
    if getattr(args, "topology", None):
        overrides["topologies"] = (args.topology,)
    if getattr(args, "cpu_mips", None) is not None:
        if args.cpu_mips <= 0:
            raise ConfigurationError("cpu-mips must be positive")
        overrides["cpus"] = ((cpu_label(args.cpu_mips), args.cpu_mips),)
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    elif getattr(args, "seeds", None):
        overrides["seeds"] = _seeds_from_text(args.seeds)
    elif not args.config and os.environ.get("PONEDGE_SEED"):
        overrides["seeds"] = _seeds_from_text(os.environ["PONEDGE_SEED"])
    if args.duration is not None:
        if args.duration <= 0:
            raise ConfigurationError("duration must be positive")
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


def cmd_run(args) -> int:
    if not args.config and not args.scenario:
        raise ConfigurationError("run needs --scenario (or --config)")
    spec = _experiment(args)
    scenario = spec.scenario_spec(_single(spec.scenarios, "scenario"))
    topology = _single(spec.topologies, "topology")
    if spec.cpus is None:
        raise ConfigurationError("run needs --cpu-mips (or cpus in --config)")
    cpu, mips = _single(spec.cpus, "cpu")
    seed = spec.seeds[0]
    cell = CellSpec(scenario, topology, cpu, mips, seed, spec.duration_s,
                    spec.strategy, spec.arrivals, spec.calibration, args.out_dir)
    summary = run_cell(cell, trace_path=args.trace, tasks_csv=True)
    print(f"scenario={summary.scenario} topology={summary.topology} cpu={summary.cpu!r} "
          f"mips={summary.mips:g} seed={summary.seed}")
    print(f"  tasks: {summary.tasks_generated} generated, {summary.tasks_delivered} delivered, "
          f"tsr {format_number(summary.tsr_pct)}%")
    print(f"  latency: mean {format_number(summary.mean_latency_s)} s, "
          f"p95 {format_number(summary.p95_latency_s)} s, "
          f"deadline hit {format_number(summary.deadline_hit_pct)}%")
    print(f"  results: {cell.directory()}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = _experiment(args)
    scenario = spec.scenario_spec(_single(spec.scenarios, "scenario"))
    summaries = sweep_scenario(
        scenario, out_dir=args.out_dir, jobs=args.jobs,
        topologies=("genio", "baseline"), cpus=spec.cpus, seeds=spec.seeds,
        duration_s=spec.duration_s, strategy=spec.strategy, arrivals=spec.arrivals,
        calibration=spec.calibration,
    )
    print(f"swept {scenario.name}: {len(summaries)} runs "
          f"-> {os.path.join(args.out_dir, scenario.name, 'aggregate.csv')}")
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _experiment(args)
    scenarios = [spec.scenario_spec(name) for name in spec.scenarios]
    deadlines = {scenario.name: scenario.deadline_s for scenario in scenarios}
    comparisons = compare_scenarios(
        scenarios, out_dir=args.out_dir, jobs=args.jobs,
        topologies=("genio", "baseline"), cpus=spec.cpus, seeds=spec.seeds,
        duration_s=spec.duration_s, strategy=spec.strategy,
        arrivals=spec.arrivals, calibration=spec.calibration,
    )
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
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep, "compare": cmd_compare}[args.command]
    try:
        return handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
