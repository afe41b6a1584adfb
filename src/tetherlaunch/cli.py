"""Command line entry points for the three workflows.

spring-compare   sizing runs for a list of spring travels, trace CSV each
sweep            feasibility grid over travel x stiffness, summary CSV
takeoff          one closed-loop take-off, trace CSV plus JSON summary
validate         deterministic property suite, one line per check

Everything is deterministic: no randomness is involved anywhere beyond
fixed-seed property inputs, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from .config import AppConfig, ConfigError, load_config
from .csvio import write_design_trace, write_sweep_csv, write_takeoff_trace
from .integrator import IntegrationError
from .model import SpringParams
from .properties import run_property_suite
from .spring_design import (
    REFERENCE_TRAVELS,
    SweepPoint,
    assess_trace,
    simulate_design,
    sweep,
)
from .takeoff import TakeoffError, check_takeoff, run_takeoff


def _common_arguments(parser: argparse.ArgumentParser,
                      writes: bool = True) -> None:
    """--config and --dt; --out and --quiet too if the command `writes`."""
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file (defaults for missing fields)")
    parser.add_argument("--dt", type=float, default=None,
                        help="set simulation.dt, the integration step [s]")
    if writes:
        parser.add_argument("--out", metavar="DIR", default=".",
                            help="output directory (created if missing)")
        parser.add_argument("--quiet", action="store_true",
                            help="suppress progress output")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or not all(0.0 < v < math.inf for v in values):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite floats > 0: {text!r}")
    return values


def _travels_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--travels", type=_float_list,
                        default=REFERENCE_TRAVELS,
                        help="comma-separated spring travels [m]")


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1 (got {text!r})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetherlaunch",
        description="Tethered-aircraft take-off simulation workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spring-compare",
                       help="run the sizing test for a list of spring travels")
    _common_arguments(p)
    _travels_argument(p)
    p.set_defaults(run=cmd_spring_compare)

    p = sub.add_parser("sweep", help="feasibility grid over travel x stiffness")
    _common_arguments(p)
    _travels_argument(p)
    p.add_argument("--stiffness", type=_float_list, default=None,
                   help="comma-separated spring stiffness values [N/m]")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="worker processes for the grid (results identical)")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("takeoff", help="run one closed-loop take-off maneuver")
    _common_arguments(p)
    p.add_argument("--duration", type=float, default=None,
                   help="set simulation.duration, the simulated time span [s]")
    p.set_defaults(run=cmd_takeoff)

    p = sub.add_parser("validate", help="run the property suite")
    _common_arguments(p, writes=False)
    p.set_defaults(run=cmd_validate)
    return parser


def _load(args) -> AppConfig:
    """The run's config: --dt and --duration set their simulation keys."""
    flags = {"dt": args.dt, "duration": getattr(args, "duration", None)}
    given = {key: value for key, value in flags.items() if value is not None}
    return load_config(args.config, {"simulation": given} if given else None)


@contextmanager
def _creating(path: Path):
    """Report an OSError from creating or writing the output `path` as a
    config error on --out."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"--out: {path}: {exc.strerror or exc}") from exc


def _outdir(args) -> Path:
    out = Path(args.out)
    with _creating(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _trace_name(travel: float) -> str:
    """File name of a travel's spring-compare trace."""
    return f"spring_compare_travel_{travel:g}".replace(".", "p") + ".csv"


def cmd_spring_compare(args) -> int:
    config = _load(args)
    # Every travel is checked before any runs: %g names two travels alike
    # when they differ past six digits, and no travel may overwrite
    # another's trace.
    named: dict[str, SpringParams] = {}
    for travel in args.travels:
        name = _trace_name(travel)
        if name in named:
            raise ConfigError(f"--travels: {named[name].max_travel!r} and "
                              f"{travel!r} both write {name}")
        try:
            named[name] = replace(config.system.spring, max_travel=travel)
        except ValueError as exc:
            raise ConfigError(f"--travels: {exc}") from exc
    out = _outdir(args)
    points = []
    for name, spring in named.items():
        travel = spring.max_travel
        params = replace(config.system, spring=spring)
        trace = simulate_design(params, config.sizing)
        result = assess_trace(trace, params)
        path = out / name
        with _creating(path):
            write_design_trace(trace, path)
        points.append(SweepPoint(travel, spring.stiffness, result))
        if not args.quiet:
            t_star = "timeout" if result.t_star is None else f"{result.t_star:.4f} s"
            print(f"travel {travel:g} m: min speed {result.min_speed:.4f} m/s "
                  f"at {result.t_at_min:.4f} s, release at {t_star}, "
                  f"{result.compression_cycles} cycles, "
                  f"{'feasible' if result.feasible else 'NOT feasible'} "
                  f"-> {path}")

    summary_path = out / "spring_compare_summary.csv"
    with _creating(summary_path):
        write_sweep_csv(points, summary_path)
    if not args.quiet:
        print(f"summary -> {summary_path}")
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    out = _outdir(args)
    stiffness = args.stiffness or [config.system.spring.stiffness]
    points = list(sweep(config.system, config.sizing, args.travels,
                        stiffness, workers=args.workers).values())
    path = out / "sweep.csv"
    with _creating(path):
        write_sweep_csv(points, path)
    if not args.quiet:
        feasible = sum(1 for p in points if p.result and p.result.feasible)
        failed = sum(1 for p in points if p.error is not None)
        print(f"{len(points)} grid points: {feasible} feasible, "
              f"{failed} failed -> {path}")
    return 0


def cmd_takeoff(args) -> int:
    config = _load(args)
    cfg = config.takeoff
    # The take-off's rules are config errors, found before any file is
    # written.
    try:
        check_takeoff(cfg, config.system, config.control)
    except TakeoffError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    result = run_takeoff(cfg, config.system, config.control)

    trace_path = out / "takeoff_trace.csv"
    with _creating(trace_path):
        write_takeoff_trace(result.trace, trace_path)
    summary = {
        **{f.name: getattr(result, f.name) for f in fields(result)
           if f.name != "trace"},
        "duration": cfg.duration,
        "dt": cfg.dt,
        "sample_period": config.control.outer.sample_period,
    }
    summary_path = out / "takeoff_summary.json"
    with _creating(summary_path):
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2)
                                + "\n", encoding="utf-8")
    if not args.quiet:
        print(f"liftoff_time = {result.liftoff_time:.4f} s over "
              f"{result.liftoff_distance:.4f} m")
        print(f"peak powers: slide {result.peak_slide_power:.1f} W, "
              f"winch {result.peak_winch_power:.1f} W")
        print(f"max spring compression {result.max_spring_compression:.4f} m"
              f"{' (stall risk)' if result.stall_risk else ''}")
        print(f"trace -> {trace_path}")
        print(f"summary -> {summary_path}")
    return 0


def cmd_validate(args) -> int:
    config = _load(args)
    checks = run_property_suite(config)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    return 0 if all(c.passed for c in checks) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (TakeoffError, IntegrationError, ValueError) as exc:
        print(f"error: simulation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
