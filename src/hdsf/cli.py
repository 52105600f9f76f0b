"""Command-line entry points.

Commands:
  run          one surrogate trial, printing the configuration and result
  run-full     one full-model trial (mid-mission entry or a whole mission)
  fuzz         falsification campaign with summary / violation log / margins CSV
  conformance  full-vs-surrogate verdict agreement over sampled configurations
  margins      margin-space export for sampled configurations
  timing       full-model vs surrogate wall-clock comparison

Exit codes: 0 success / property satisfied, 1 property violated or
agreement below 100%, 2 usage or configuration error, 3 simulation
faults during conformance.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from pathlib import Path

from .config import Configuration, ConfigSpace
from .drone import (ControllerVariant, DroneParams, build_full_system,
                    build_surrogate_system, check_space, conformance_check,
                    default_config_space, default_configuration, phi_for,
                    timing_comparison)
from .errors import ConfigurationError, HdsfError
from .falsify import campaign, generate, run_trial, trial_rng
from .margins import compute_margins, decision_index, write_margins_csv
from .stl import Outcome


# Flag groups: a subcommand takes only the groups whose flags its _cmd_* reads.
def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=[v.value for v in ControllerVariant],
                        default="buggy", help="controller variant")
    parser.add_argument("--dt", type=float, default=None,
                        help="integration / trace step in seconds (default 0.05)")
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulation horizon in seconds (default 120.0)")
    parser.add_argument("--scenario", type=str, default=None,
                        help="JSON file of model and run settings (DroneParams fields)")


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--battery", type=float, default=100.0,
                        help="initial battery percentage")
    parser.add_argument("--altitude", type=float, default=70.0,
                        help="initial altitude in meters")
    # the band, threshold and delay default to default_configuration's values
    reference = inspect.signature(default_configuration).parameters
    for flag, dest, what in (
            ("--min-deploy-alt", "min_deploy_alt", "minimum allowed deployment altitude"),
            ("--max-deploy-alt", "max_deploy_alt", "maximum allowed deployment altitude"),
            ("--batt-threshold", "low_batt_threshold", "low battery threshold percent"),
            ("--delta", "delta", "allowed deployment delay in seconds")):
        parser.add_argument(flag, dest=dest, type=float, default=reference[dest].default,
                            help=f"{what} (default %(default)s)")


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    # a string default goes through the type, so a bad HDSF_SEED is a usage error
    parser.add_argument("--seed", type=_count,
                        default=os.environ.get("HDSF_SEED", "0"),
                        help="random seed (HDSF_SEED overrides the default)")


def _count(text: str) -> int:
    """The argparse type of --runs, --n-configs and --seed."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", type=_count, default=200, help="number of runs")
    parser.add_argument("--out-dir", type=str, default="hdsf-out",
                        help="output directory for campaign artifacts")


def _like(default, value, where: str):
    """``value`` checked against the shape of ``default``: a finite number,
    or a tuple of a fixed length (given as a JSON list) of such values."""
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise ConfigurationError(
                f"{where} must be a list of {len(default)} entries, got {value!r}")
        return tuple(_like(d, v, where) for d, v in zip(default, value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    # math.isfinite would overflow on an integer past the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return value


def _load_scenario(path: str) -> dict:
    """Scenario parameters from a JSON object whose keys are DroneParams fields;
    any other key, such as a trial value like ``delta``, is an error."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read scenario {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"scenario {path} must hold a JSON object")
    defaults = DroneParams()
    known = sorted(f.name for f in dataclasses.fields(DroneParams))
    values = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigurationError(
                f"scenario {path}: unknown key {key!r}; known keys: {known}")
        values[key] = _like(getattr(defaults, key), value, f"scenario {path}: {key}")
    return values


def _make_out_dir(path: str) -> Path:
    """Create the output directory before any trial runs, so a path that
    cannot hold one is a usage error, not a failure after the work."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {path}: {exc.strerror or exc}") from None
    return out_dir


def _resolve_params(args) -> DroneParams:
    """Defaults, overridden by the scenario file, overridden by those of the
    command's flags that name a DroneParams field (--dt and --horizon)."""
    values = _load_scenario(args.scenario) if args.scenario else {}
    for f in dataclasses.fields(DroneParams):
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    return DroneParams(**values)


def _print_run_report(trace, config: Configuration, verdict) -> None:
    i = decision_index(trace, config["low_batt_threshold"])
    battery = float(trace.signals["battery"][i])
    altitude = float(trace.signals["altitude"][i])
    deployed = bool(trace.signals["deployed_flag"].max() >= 0.5)
    crossed = battery <= config["low_batt_threshold"]

    print("Configuration:")
    print(f"- Min deploy altitude: {config['min_deploy_alt']}m")
    print(f"- Max deploy altitude: {config['max_deploy_alt']}m")
    print(f"- Low battery threshold: {config['low_batt_threshold']}%")
    print("Result:")
    print(f"Battery: {battery}")
    print(f"Altitude: {altitude}m")
    print(f"Parachute: {'DEPLOYED' if deployed else 'NOT DEPLOYED'}")
    if deployed and verdict.outcome is Outcome.SATISFIED:
        status = "DEPLOYED - Critical battery, parachute deployed"
    elif deployed:
        status = "VIOLATED - Parachute deployed outside the allowed delay"
    elif verdict.outcome is Outcome.VIOLATED:
        status = "BLOCKED - Critical battery but altitude out of deployment range"
    elif crossed:
        status = "GROUNDED - Critical battery while not airborne"
    else:
        status = "NOMINAL - Battery above threshold throughout flight"
    print(f"Status: {status}")


def _cmd_run(args) -> int:
    params = _resolve_params(args)
    config = default_configuration(args.battery, args.altitude, args.min_deploy_alt,
                                   args.max_deploy_alt, args.low_batt_threshold, args.delta)
    surrogate = build_surrogate_system(params, ControllerVariant(args.variant))
    verdict, trace = run_trial(surrogate, config, phi_for, params.dt, params.horizon)
    _print_run_report(trace, config, verdict)
    return 0 if verdict.outcome is Outcome.SATISFIED else 1


def _cmd_run_full(args) -> int:
    params = _resolve_params(args)
    config = default_configuration(args.battery, args.altitude, args.min_deploy_alt,
                                   args.max_deploy_alt, args.low_batt_threshold, args.delta)
    system = build_full_system(params, ControllerVariant(args.variant))
    if args.entry == "goto":
        system = system.with_entry("GOTO")
    else:
        # whole mission from the ground: start grounded and trigger takeoff
        config = Configuration(config, altitude_init=0.0, mission_start=1.0)
    dt = params.full_model_dt if args.full_dt else params.dt
    verdict, trace = run_trial(system, config, phi_for, dt, params.horizon)
    _print_run_report(trace, config, verdict)
    if trace.events:
        print("Mode transitions:")
        for ev in trace.events:
            print(f"  t={ev.time:9.3f}s  {ev.source} -> {ev.target}  ({ev.guard})")
    return 0 if verdict.outcome is Outcome.SATISFIED else 1


def _cmd_fuzz(args) -> int:
    params = _resolve_params(args)
    surrogate = build_surrogate_system(params, ControllerVariant(args.variant))
    if args.space_file:
        try:
            text = Path(args.space_file).read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read space file {args.space_file}: {exc}") from None
        space = ConfigSpace.from_json(text)
        check_space(space, params)
    else:
        space = surrogate.parameter_space
    out_dir = _make_out_dir(args.out_dir)
    summary, violations = campaign(
        surrogate, phi_for, space, args.runs,
        dt=params.dt, horizon=params.horizon, seed=args.seed, out_dir=out_dir)
    print(f"Total Runs: {summary.total_runs}")
    print(f"Violations: {summary.raw_violations}")
    print(f"Unique Violations: {summary.unique_violations}")
    print(f"Violation Rate: {100.0 * summary.violation_rate:.1f}%")
    print(f"Artifacts written to {args.out_dir}/ "
          "(summary.json, violations.jsonl, margins.csv, traces/)")
    return 0


def _cmd_conformance(args) -> int:
    params = _resolve_params(args)
    space = default_config_space(params)
    configs = [generate(space, trial_rng(args.seed, t)) for t in range(args.n_configs)]
    report = conformance_check(params, ControllerVariant(args.variant), configs,
                               params.dt, params.horizon)
    for k, pair in enumerate(report.pairs):
        marker = "agree" if pair.agree else "DISAGREE"
        print(f"[{k:4d}] full={pair.full.value:9s} surrogate={pair.surrogate.value:9s} {marker}")
    for config, message in report.faults:
        print(f"fault: {message}")
    agreeing = sum(p.agree for p in report.pairs)
    print(f"Agreement: {agreeing}/{len(report.pairs)} ({100.0 * report.agreement:.1f}%)")
    if report.faults:
        return 3
    return 0 if report.agreement == 1.0 else 1


def _cmd_margins(args) -> int:
    params = _resolve_params(args)
    surrogate = build_surrogate_system(params, ControllerVariant(args.variant))
    space = surrogate.parameter_space
    out_dir = _make_out_dir(args.out_dir)

    def margin_row(trial: int):
        config = generate(space, trial_rng(args.seed, trial))
        verdict, trace = run_trial(surrogate, config, phi_for, params.dt, params.horizon)
        return trial, config, compute_margins(trace, config, verdict=verdict.outcome)

    rows = [margin_row(trial) for trial in range(args.runs)]
    counts: dict[str, int] = {}
    for _, _, point in rows:
        key = f"{point.quadrant}/{point.verdict.value}"
        counts[key] = counts.get(key, 0) + 1
    write_margins_csv(out_dir / "margins.csv", rows, space)
    print(f"Margin rows written to {out_dir / 'margins.csv'}")
    for key in sorted(counts):
        print(f"  {key}: {counts[key]}")
    return 0


def _cmd_timing(args) -> int:
    params = _resolve_params(args)
    space = default_config_space(params)
    configs = [generate(space, trial_rng(args.seed, t)) for t in range(args.n_configs)]
    report = timing_comparison(params, configs, params.dt, params.horizon,
                               ControllerVariant(args.variant))
    print(f"Median full-model trial:  {1000.0 * report.full_seconds:8.2f} ms "
          f"(dt={params.full_model_dt})")
    print(f"Median surrogate trial:   {1000.0 * report.surrogate_seconds:8.2f} ms "
          f"(dt={params.dt})")
    print(f"Speedup: {report.speedup:.1f}x (median of the per-configuration ratios)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdsf",
        description="Reduce a hybrid system to a property-specific surrogate "
                    "and falsify its safety property.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flag_groups):
        p = sub.add_parser(name, help=summary)
        for add_flags in (_add_model_flags, *flag_groups):
            add_flags(p)
        p.set_defaults(func=func)
        return p

    command("run", _cmd_run, "one surrogate trial", _add_trial_flags)

    p_full = command("run-full", _cmd_run_full, "one full-model trial", _add_trial_flags)
    p_full.add_argument("--entry", choices=["goto", "idle"], default="goto",
                        help="start mid-mission (goto) or fly the whole mission (idle)")
    p_full.add_argument("--full-dt", action="store_true",
                        help="integrate at the full model's fidelity step")

    p_fuzz = command("fuzz", _cmd_fuzz, "falsification campaign",
                     _add_seed_flag, _add_batch_flags)
    p_fuzz.add_argument("--space-file", type=str, default=None,
                        help="JSON configuration-space file (bounds/orderings)")

    p_conf = command("conformance", _cmd_conformance,
                     "full-vs-surrogate verdict agreement", _add_seed_flag)
    p_conf.add_argument("--n-configs", type=_count, default=100,
                        help="number of sampled configurations")

    command("margins", _cmd_margins, "margin-space export", _add_seed_flag, _add_batch_flags)

    p_time = command("timing", _cmd_timing, "full-vs-surrogate wall-clock comparison",
                     _add_seed_flag)
    p_time.add_argument("--n-configs", type=_count, default=50,
                        help="number of sampled configurations")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HdsfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
