"""Command-line front end.

Verbs:
  run <scenario-file-or-preset>   evolve and write the CSV table
  sweep <sweep-file>              run a parameter grid, write the summary CSV
  presets                         list built-in presets
  dump <preset-name>              print a preset as a normalized scenario file

Exit codes: 0 ok; 1 invariant breach, failed sweep point (--check-strict) or
runtime failure; 2 usage error or a scenario, preset or sweep that fails to load
(a file that cannot be read or decoded as UTF-8 included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dynamics import PROPAGATOR_MAX_DIM, IntegratorConfig
from .errors import ParseError, SubradError, UnknownLabel, ValidationError
from .scenario import (
    Scenario,
    dump_scenario,
    format_csv,
    format_sweep_csv,
    list_presets,
    load_preset,
    parse_scenario,
    parse_sweep,
    run_scenario,
    run_sweep,
    scenario_from_dict,
)


def _read_input(path: Path) -> str:
    """The text of an input file; reading or decoding it is part of loading, so a failure is a `ParseError`."""
    try:
        return path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {str(path)!r}: {exc}") from exc


def _load_scenario(target: str) -> Scenario:
    path = Path(target)
    if path.exists():
        return parse_scenario(_read_input(path))
    try:
        return scenario_from_dict(load_preset(target))
    except UnknownLabel as exc:
        raise ParseError(f"{target!r} is not a readable file, and not a preset: {exc}") from exc


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, "utf-8")


def _plot_meta(scenario: Scenario, header: tuple[str, ...]) -> str:
    axis = "t (1/omega)" if scenario.time.unit == "omega" else "t (1/kappa)"
    meta = {
        "title": scenario.name,
        "x": {"column": "t", "label": axis},
        "series": [h for h in header if h != "t"],
    }
    return json.dumps(meta, indent=2) + "\n"


_FIXED_STEP_HELP = (
    "fixed Dormand-Prince step in the scenario's time unit, replacing the file's "
    "integrator.fixed_step (deterministic output); "
    "Dormand-Prince only runs on reachable blocks of more than "
    f"{PROPAGATOR_MAX_DIM} basis states, smaller blocks take the exact propagator"
)


def _fixed_step(text: str) -> float:
    """The ``--fixed-step`` value, checked by the rule of a file's ``integrator.fixed_step``."""
    try:
        return IntegratorConfig(fixed_step=float(text)).fixed_step
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="subrad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or preset")
    p_run.add_argument("target", help="scenario file path or preset name")
    p_run.add_argument("--out", default=None, help="CSV output path (default: scenario output or stdout)")
    p_run.add_argument("--fixed-step", type=_fixed_step, default=None, metavar="DT", help=_FIXED_STEP_HELP)
    p_run.add_argument("--check-strict", action="store_true",
                       help="abort on any invariant breach instead of flagging it")
    p_run.add_argument("--initial", default=None, metavar="LABEL",
                       help="run only the initial state with this label")
    p_run.add_argument("--plot-meta", default=None, metavar="PATH",
                       help="also write a JSON plot-description file")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep file")
    p_sweep.add_argument("target", help="sweep file path")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--fixed-step", type=_fixed_step, default=None, metavar="DT", help=_FIXED_STEP_HELP)
    p_sweep.add_argument("--check-strict", action="store_true")

    sub.add_parser("presets", help="list built-in presets")

    p_dump = sub.add_parser("dump", help="print a preset as a scenario file")
    p_dump.add_argument("name")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    loading = True
    try:
        if args.command == "presets":
            for name, desc in list_presets():
                sys.stdout.write(f"{name}\n    {desc}\n")
            return 0

        if args.command == "dump":
            scenario = scenario_from_dict(load_preset(args.name))
            sys.stdout.write(dump_scenario(scenario))
            return 0

        if args.command == "run":
            scenario = _load_scenario(args.target)
            loading = False
            result = run_scenario(
                scenario,
                fixed_step=args.fixed_step,
                check_strict=args.check_strict,
                initial=args.initial,
            )
            csv_text = format_csv(result.header, result.rows)
            _write(csv_text, args.out or scenario.output.path)
            if args.plot_meta:
                Path(args.plot_meta).write_text(_plot_meta(scenario, result.header), "utf-8")
            if result.breached:
                sys.stderr.write("subrad: invariant check tripped (see trace_error/checks columns)\n")
                return 1
            return 0

        if args.command == "sweep":
            sweep = parse_sweep(_read_input(Path(args.target)))
            loading = False
            result = run_sweep(sweep, fixed_step=args.fixed_step)
            _write(format_sweep_csv(result), args.out)
            if args.check_strict and result.failed:
                sys.stderr.write("subrad: one or more sweep points failed\n")
                return 1
            return 0
    except (ParseError, ValidationError, UnknownLabel) as exc:
        sys.stderr.write(f"subrad: {exc}\n")
        return 2
    except SubradError as exc:
        sys.stderr.write(f"subrad: {type(exc).__name__}: {exc}\n")
        return 2 if loading else 1
    except OSError as exc:
        sys.stderr.write(f"subrad: {exc}\n")
        return 1

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
