"""Command-line entry point: simulate, casestudy, plan, validate.

Exit codes are fixed for scripting: 0 success, 2 invalid input (parse,
validation, infeasible requirement, bad flags), 1 I/O or internal error.
The default output directory can be set with the SOCIO_GRID_SIM_OUT
environment variable. Given identical inputs (and seed, for planning) every
subcommand writes byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from .core_types import DIGEST_FORMAT, ModelParams, PiecewiseSchedule, Scenario, ValidationError, _distinct
from .dynamics import _simulate_block, simulate
from .planner import plan_shedding
from .plans import plan_to_dict
from .scenario_io import _create, _write_json, builtin_case_study, load_scenario, write_results

_OUT_ENV = "SOCIO_GRID_SIM_OUT"


def _with_horizon(schedule: PiecewiseSchedule, horizon: float) -> PiecewiseSchedule:
    points = tuple(p for p in schedule.breakpoints if p[0] < horizon)
    return PiecewiseSchedule(points, horizon)


def _apply_overrides(scenario: Scenario, overrides: dict[str, float]) -> Scenario:
    """Re-validate parameter overrides and rebuild the scenario around them."""
    if not overrides:
        return scenario
    params = replace(scenario.params, **overrides)
    if params.horizon_hours == scenario.params.horizon_hours:
        electricity = scenario.electricity
        media = scenario.media_access
    else:
        # Each distinct schedule is cut once, so agents keep sharing.
        distinct, index = _distinct(scenario.electricity + scenario.media_access)
        cut = [_with_horizon(s, params.horizon_hours) for s in distinct]
        picked = [cut[k] for k in index.tolist()]
        electricity, media = picked[: scenario.n_agents], picked[scenario.n_agents :]
    return Scenario(
        params=params,
        network=scenario.network,
        electricity=electricity,
        media_access=media,
        initial_dissatisfaction=scenario.initial_dissatisfaction,
        label=scenario.label,
    )


def _collect_overrides(args: argparse.Namespace) -> dict[str, float]:
    """The override flags given, by the ModelParams field each one sets (its ``dest``)."""
    given = {f.name: getattr(args, f.name, None) for f in fields(ModelParams)}
    return {name: value for name, value in given.items() if value is not None}


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out if args.out is not None else os.environ.get(_OUT_ENV)
    if out is None:
        raise ValidationError(["--out is required (or set SOCIO_GRID_SIM_OUT)"])
    return Path(out)


def run_simulate(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    overrides = _collect_overrides(args)
    scenario = _apply_overrides(load_scenario(args.scenario), overrides)
    result = simulate(scenario)
    paths = write_results(result, out, extra_manifest={"cli_overrides": overrides})
    print(f"wrote {len(paths)} files to {out}")
    return 0


def run_casestudy(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    overrides = _collect_overrides(args)
    variants = {"full": ["full"], "limited": ["limited"], "both": ["full", "limited"]}[args.variant]
    # The variants share the network and the params, so one kernel block advances them all.
    scenarios = [_apply_overrides(builtin_case_study(f"{short}_access"), overrides) for short in variants]
    results = dict(zip(variants, _simulate_block(scenarios)))
    for short, result in results.items():
        write_results(result, out / short, extra_manifest={"cli_overrides": overrides})
    if len(results) == 2:
        comparison = out / "comparison.csv"
        full = results["full"]
        columns = zip(
            full.times.tolist(),
            full.global_mean_satisfaction().tolist(),
            results["limited"].global_mean_satisfaction().tolist(),
        )
        with _create(comparison) as fh:
            fh.write("t_hours,mean_s_full,mean_s_limited\n")
            fh.write("".join(f"{t:.9g},{sf:.9g},{sl:.9g}\n" for t, sf, sl in columns))
        print(f"wrote {comparison}")
    print(f"case study variants {', '.join(variants)} written to {out}")
    return 0


def run_plan(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    overrides = _collect_overrides(args)
    base = _apply_overrides(load_scenario(args.scenario), overrides)
    try:
        levels = [float(part) for part in args.levels.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError([f"--levels must be comma-separated numbers (got {args.levels!r})"])
    search: dict = {}
    plan, objective = plan_shedding(
        base,
        required_energy=args.required_energy,
        granularity_hours=args.granularity,
        shed_levels=levels,
        strategy=args.strategy,
        seed=args.seed,
        fairness_weight=args.fairness_weight,
        stats=search,
    )
    out.mkdir(parents=True, exist_ok=True)
    plan_path = out / "plan.json"
    _write_json(plan_to_dict(plan), plan_path)
    report = {
        **asdict(objective),
        "required_energy": args.required_energy,
        "granularity_hours": args.granularity,
        "shed_levels": sorted(set(levels) | {0.0}),
        "strategy": args.strategy,
        "seed": args.seed,
        "plan_encoding": plan.encoding(),
        "scenario_digest": base.content_digest(),
        "digest_format": DIGEST_FORMAT,
        "cli_overrides": overrides,
        "search": search,
    }
    report_path = out / "objective.json"
    _write_json(report, report_path)
    print(f"wrote {plan_path} and {report_path}")
    return 0


def run_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(f"OK: {scenario.label or args.scenario} ({scenario.n_agents} agents, "
          f"{scenario.network.n_groups} groups, horizon {scenario.params.horizon_hours} h)")
    return 0


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega1", type=float, default=None, help="deprivation weight override")
    parser.add_argument("--omega2", type=float, default=None, help="contagion weight override")
    parser.add_argument("--dt", type=float, default=None, dest="dt_hours", metavar="DT",
                        help="step size override, hours")
    parser.add_argument("--rate-floor", type=float, default=None, dest="rate_floor",
                        help="minimum response rate override")
    parser.add_argument("--horizon", type=float, default=None, dest="horizon_hours", metavar="HORIZON",
                        help="horizon override, hours")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. Argparse objects reference each
    other, so a parser built per call is garbage that only a full collection
    frees, and repeated calls in one process pile it up."""
    parser = argparse.ArgumentParser(
        prog="socio-grid-sim",
        description="Simulate electricity-driven dissatisfaction with media contagion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file and write CSVs + manifest")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", default=None, help=f"output directory (default ${_OUT_ENV})")
    _add_override_flags(p_sim)
    p_sim.set_defaults(run=run_simulate)

    p_case = sub.add_parser("casestudy", help="run the built-in 48 h case study")
    p_case.add_argument("--variant", choices=("full", "limited", "both"), default="both")
    p_case.add_argument("--out", default=None, help=f"output directory (default ${_OUT_ENV})")
    _add_override_flags(p_case)
    p_case.set_defaults(run=run_casestudy)

    p_plan = sub.add_parser("plan", help="search shedding plans against a base scenario")
    p_plan.add_argument("--scenario", required=True, help="base scenario JSON file")
    p_plan.add_argument("--out", default=None, help=f"output directory (default ${_OUT_ENV})")
    p_plan.add_argument("--required-energy", type=float, required=True, dest="required_energy",
                        help="shed energy requirement (level x hours x agents)")
    p_plan.add_argument("--granularity", type=float, required=True, help="slot length, hours")
    p_plan.add_argument("--levels", default="0,0.5", help="comma-separated shed levels")
    p_plan.add_argument("--strategy", choices=("exhaustive", "greedy_restarts"), default="exhaustive")
    p_plan.add_argument("--seed", type=int, default=0, help="seed for greedy restarts")
    p_plan.add_argument("--lambda", type=float, default=1.0, dest="fairness_weight",
                        help="fairness weight in the combined objective")
    _add_override_flags(p_plan)
    p_plan.set_defaults(run=run_plan)

    p_val = sub.add_parser("validate", help="check a scenario file; writes nothing")
    p_val.add_argument("--scenario", required=True, help="scenario JSON file")
    p_val.set_defaults(run=run_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
