"""Command line front end.

Subcommands: ``gen`` (random scenario), ``schedule`` (partition plus load
report), ``simulate`` (trace plus revisit statistics), ``compare`` (policies
side by side, optionally against the exact solver), ``report`` (batch of
seeds aggregated).  Exit codes: 0 success, 1 validation or usage error,
2 infeasible scenario.  All randomness flows through ``--seed``; a command's
outputs are a function of its flags and input files alone.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
from pathlib import Path

from . import io
from .equalize import equalize
from .errors import (InfeasibleScenarioError, InvalidInputError, LimitsExceededError,
                     SectorSchedError)
from .exact import exact_min_passes
from .generate import GenParams, generate
from .loads import SchedulePartition, broadside_baseline, build_partition, load_report
from .model import Scenario, check_count
from .simulate import POLICY_EDF, POLICY_PARTITION, SimulationTrace, revisit_stats, simulate

_POLICIES = ("greedy", "broadside", "edf")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, 2 is reserved
        self.exit(1, f"{self.prog}: error: {message}\n")


def _derived_path(out: str, tag: str) -> Path:
    return Path(out).with_suffix(f".{tag}.csv")


def _need_revisit_cycles(cycles: int) -> None:
    if cycles < 2:  # a compare / report row holds revisit intervals
        raise InvalidInputError(f"--cycles {cycles}: revisit intervals need >= 2 completed cycles")


def _gen_params(args, seed: int, fov: int) -> GenParams:
    """Generator knobs of ``gen`` and ``report`` (which has no ``--hotspot``)."""
    hotspots = tuple(
        (int(sector) if sector.is_integer() else sector, rmult, tmult)
        for sector, rmult, tmult in (getattr(args, "hotspot", None) or [])
    )
    return GenParams(
        n_sectors=args.sectors,
        fov_half_width=fov,
        dt=args.dt,
        tasks_per_sector=tuple(args.tasks),
        duration=tuple(args.duration),
        resources=tuple(args.resources),
        hotspots=hotspots,
        seed=seed,
    )


def _partition_for(scenario: Scenario, policy: str) -> SchedulePartition | None:
    """The partition a policy runs: greedy the equalized one, broadside the
    home-sector one, edf none."""
    if policy == "greedy":
        return equalize(scenario)
    return broadside_baseline(scenario) if policy == "broadside" else None


def _trace(scenario: Scenario, partition: SchedulePartition | None,
           cycles: int) -> SimulationTrace:
    policy = POLICY_EDF if partition is None else POLICY_PARTITION
    return simulate(scenario, policy, partition, cycles=cycles)


def _row(policy: str, scenario: Scenario, trace: SimulationTrace, completion_pass: int) -> dict:
    """A ``compare`` / ``report`` row, loads on each task's first executing
    sector: under the partition policy, the partition the trace ran."""
    sector_of_task = {rec.task_id: rec.sector for rec in reversed(trace.records)}
    partition = build_partition(scenario.n_sectors, sector_of_task)
    return {
        "policy": policy,
        "max_relative_load": load_report(scenario, partition).max_relative_load,
        "worst_revisit_rotations": revisit_stats(trace, scenario).max_interval_rot,
        "completion_pass": completion_pass,
    }


def _policy_row(scenario: Scenario, policy: str, cycles: int) -> dict:
    trace = _trace(scenario, _partition_for(scenario, policy), cycles)
    return _row(policy, scenario, trace, trace.completion_pass)


def _cmd_gen(args) -> int:
    scenario = generate(_gen_params(args, args.seed, args.fov))
    io.write_scenario(scenario, args.out)
    print(f"wrote scenario with {len(scenario.tasks)} tasks to {args.out}")
    return 0


def _cmd_schedule(args) -> int:
    scenario = io.read_scenario(args.scenario)
    partition = _partition_for(scenario, args.policy)
    io.write_partition(partition, args.out)
    report = load_report(scenario, partition)
    loads_path = _derived_path(args.out, "loads")
    io.write_load_report(report, loads_path)
    print(f"wrote partition to {args.out} and load report to {loads_path}")
    print(f"max relative load {report.max_relative_load:.6g}, "
          f"rotations bound {report.rotations_to_complete_bound:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    scenario = io.read_scenario(args.scenario)
    trace = _trace(scenario, _partition_for(scenario, args.policy), args.cycles)
    io.write_trace(trace, scenario, args.out)
    print(f"wrote trace ({len(trace.records)} executions, "
          f"completion pass {trace.completion_pass}) to {args.out}")
    for note in trace.warnings:
        print(f"warning: {note.detail}", file=sys.stderr)
    if args.cycles >= 2:
        stats = revisit_stats(trace, scenario)
        revisit_path = _derived_path(args.out, "revisit")
        io.write_revisit_stats(stats, revisit_path)
        print(f"wrote revisit stats (worst {stats.max_interval_rot:.6g} rotations) "
              f"to {revisit_path}")
    else:
        print("note: revisit stats need --cycles >= 2, skipped", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    _need_revisit_cycles(args.cycles)
    scenario = io.read_scenario(args.scenario)
    rows = [_policy_row(scenario, policy, args.cycles) for policy in _POLICIES]
    if args.exact:
        try:
            solution = exact_min_passes(scenario)
        except (LimitsExceededError, InfeasibleScenarioError) as exc:
            print(f"note: {exc}, skipping exact row", file=sys.stderr)
        else:
            partition = build_partition(scenario.n_sectors, {
                tid: sector for tid, (sector, _) in solution.assignments.items()})
            trace = _trace(scenario, partition, args.cycles)
            rows.append(_row("exact" if solution.optimal else "exact(limit)",
                             scenario, trace, solution.objective))
    io.write_comparison(rows, args.out, fmt=args.format)
    for row in rows:
        print(f"{row['policy']}: max relative load {row['max_relative_load']:.6g}, "
              f"worst revisit {row['worst_revisit_rotations']:.6g} rotations, "
              f"completion pass {row['completion_pass']}")
    print(f"wrote comparison to {args.out}")
    return 0


def _cmd_report(args) -> int:
    _need_revisit_cycles(args.cycles)
    check_count(args.runs, "--runs", least=0)
    for i, fov in enumerate(args.fov):
        if fov in args.fov[:i]:
            raise InvalidInputError(f"--fov {fov} given twice")
    detail: list[dict] = []
    for offset in range(args.runs):
        seed = args.seed + offset
        for fov in args.fov:
            scenario = generate(_gen_params(args, seed, fov))
            for policy in _POLICIES:
                row = {"seed": seed, "fov": fov}
                row.update(_policy_row(scenario, policy, args.cycles))
                detail.append(row)
    io.write_comparison(detail, args.out, fmt=args.format, fields=(
        "seed", "fov", "policy", "max_relative_load", "worst_revisit_rotations",
        "completion_pass"))

    groups: dict[tuple[int, str], list[dict]] = {}
    for row in detail:
        groups.setdefault((row["fov"], row["policy"]), []).append(row)
    fields = ("fov", "policy", "runs", "mean_max_relative_load",
              "mean_worst_revisit_rotations", "mean_completion_pass")
    summary = []
    for (fov, policy), rows in sorted(groups.items()):
        # Plain left-to-right sums: sum() compensates float error from Python
        # 3.12 on, which would make the summary bytes depend on the version.
        means = [functools.reduce(operator.add, (r[key] for r in rows), 0) / len(rows)
                 for key in ("max_relative_load", "worst_revisit_rotations",
                             "completion_pass")]
        summary.append(dict(zip(fields, (fov, policy, len(rows), *means))))
    summary_path = _derived_path(args.out, "summary")
    io.write_comparison(summary, summary_path, fields=fields)
    print(f"wrote {len(detail)} rows to {args.out}, summary to {summary_path}")
    return 0


def _add_gen_knobs(parser, with_hotspots: bool) -> None:
    parser.add_argument("--sectors", type=int, default=GenParams.n_sectors,
                        help="sector count")
    parser.add_argument("--dt", type=float, default=GenParams.dt,
                        help="seconds per sector pass")
    parser.add_argument("--tasks", type=int, nargs=2, default=GenParams.tasks_per_sector,
                        metavar=("LO", "HI"), help="tasks per sector, inclusive range")
    parser.add_argument("--duration", type=float, nargs=2, default=GenParams.duration,
                        metavar=("LO", "HI"), help="task duration range, seconds")
    parser.add_argument("--resources", type=float, nargs=2, default=GenParams.resources,
                        metavar=("LO", "HI"), help="per-sector resources range, seconds")
    if with_hotspots:
        parser.add_argument("--hotspot", type=float, nargs=3, action="append",
                            metavar=("SECTOR", "RMULT", "TMULT"),
                            help="scale one sector's resources and task count")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, and no action changes a default in place."""
    parser = _Parser(prog="sectorsched",
                     description="Surveillance scheduling for rotating radars")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random scenario")
    p.add_argument("--seed", type=int, default=GenParams.seed, help="generator seed")
    p.add_argument("--out", required=True, help="scenario JSON path")
    p.add_argument("--fov", type=int, default=GenParams.fov_half_width,
                   help="field-of-view half width")
    _add_gen_knobs(p, with_hotspots=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("schedule", help="partition a scenario and report loads")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="partition JSON path "
                   "(load report lands next to it as <out>.loads.csv)")
    p.add_argument("--policy", choices=_POLICIES[:2], default="greedy")
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("simulate", help="run rotations and record revisits")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="trace CSV path "
                   "(revisit stats land next to it as <out>.revisit.csv)")
    p.add_argument("--policy", choices=_POLICIES, default="greedy")
    p.add_argument("--cycles", type=int, default=3,
                   help="complete update cycles to simulate")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("compare", help="greedy vs broadside vs edf (vs exact)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--exact", action="store_true",
                   help="add the exact solver when within its limits")
    p.add_argument("--cycles", type=int, default=4)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("report", help="aggregate a batch of seeds")
    p.add_argument("--seed", type=int, default=GenParams.seed, help="first seed of the batch")
    p.add_argument("--runs", type=int, default=20, help="number of seeds")
    p.add_argument("--fov", type=int, nargs="+", default=[GenParams.fov_half_width],
                   help="field-of-view half widths to benchmark")
    p.add_argument("--out", required=True, help="detail CSV path "
                   "(summary lands next to it as <out>.summary.csv)")
    p.add_argument("--cycles", type=int, default=4)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_gen_knobs(p, with_hotspots=False)
    p.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except InfeasibleScenarioError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (SectorSchedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
