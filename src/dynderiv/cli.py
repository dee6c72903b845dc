"""Command-line interface.

Subcommands:
  simulate  run the configured plant over one oscillation case, emit a series
  identify  fit a saved or external series, emit a derivative table
  sweep     run the full scenario matrix, emit report.csv / report.txt and
            loops_<name>.csv of each flying incidence-mode run; a run that
            repeats the previous one bit for bit is written from the bytes
            already formatted
  validate  run the built-in oracle suite

Exit codes: 0 success, 1 domain failure (bad data, failed checks, or a
sweep with any FAILED scenario; its report files are still written),
2 usage error (bad arguments, unreadable or non-UTF-8 input files,
output paths that cannot be written).  All file output is
written atomically and deterministically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .config import _MODE_VALUES, _plan_doc, parse_case_config
from .errors import DomainError, DynDerivError, MonitorError
from .identify import extract, fit_series
from .io import (
    _alias_roles,
    _same_run,
    atomic_write,
    parse_monitor_table,
    write_derivative_table,
    write_loop_table,
    write_report,
    write_series,
)
from .kinematics import OscillationMode, OscillationSpec, make_schedule
from .plants import simulate as run_plant
from .scenarios import SweepStatus, run_sweep
from .validate import run_validation

USAGE_ERROR = 2
DOMAIN_ERROR = 1


class _Parser(argparse.ArgumentParser):
    """A parser that takes any negative float literal as a value.

    argparse reads only '-1' and '-1.5' as negative numbers, so '-1e-05' or
    '-inf' after a flag would be taken for an option.  No dynderiv option
    looks like a number; subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)


@functools.cache        # built on first use; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynderiv",
        description="Forced-oscillation identification of longitudinal dynamic derivatives.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a plant over one oscillation case")
    p_sim.set_defaults(run=_cmd_simulate)
    p_sim.add_argument("config", help="case-config JSON file")
    p_sim.add_argument("--out", help="output series file (default: stdout)")
    p_sim.add_argument(
        "--mode", choices=_MODE_VALUES,
        help="oscillation mode (default: first mode in the config)",
    )

    p_id = sub.add_parser("identify", help="fit a coefficient series, emit derivatives")
    p_id.set_defaults(run=_cmd_identify)
    p_id.add_argument("series", help="series/monitor file to fit")
    p_id.add_argument("--k", type=float, required=True, help="reduced frequency omega*c/(2V)")
    p_id.add_argument("--mode", choices=_MODE_VALUES, required=True)
    p_id.add_argument("--amplitude-deg", type=float, required=True, help="pitch amplitude, deg")
    p_id.add_argument("--mean-deg", type=float, default=0.0,
                      help="mean incidence, deg; range-checked, but the table does not depend "
                           "on it: the trim is the fitted mean")
    p_id.add_argument("--skip", type=int, default=0, help="start-up cycles to skip")
    p_id.add_argument(
        "--omega", type=float, default=None,
        help="angular frequency of the time column, rad/s "
             "(default: time is in oscillation periods, omega = 2*pi)",
    )
    p_id.add_argument("--chord", type=float, default=None, help="reference chord, m")
    p_id.add_argument("--speed", type=float, default=None,
                      help="freestream speed, m/s (with --chord: omega = 2*k*V/c)")
    p_id.add_argument(
        "--alias", action="append", default=[], metavar="HEADER=CHANNEL",
        help="extra monitor header alias, e.g. lift=CL (repeatable)",
    )
    p_id.add_argument("--out", help="output table file (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="run the scenario matrix from a config")
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument("config", help="case-config JSON file")
    p_sweep.add_argument("--out-dir", default=".", help="output directory (default: .)")

    sub.add_parser("validate", help="run the built-in oracle suite").set_defaults(
        run=lambda args: run_validation(sys.stdout))
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read '{path}': {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:       # offsets count from the start of the file
        raise _UsageError(f"cannot read '{path}': not UTF-8 text "
                          f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})") from exc


class _UsageError(Exception):
    pass


def _write(path: str | Path, data: bytes) -> None:
    try:
        atomic_write(path, data)
    except OSError as exc:
        raise _UsageError(f"cannot write '{path}': {exc.strerror or exc}") from exc


def _emit(data: bytes, out: str | None) -> None:
    """Write ``data`` to ``out``, or print it: decoded only for standard output."""
    if out is None:
        sys.stdout.write(data.decode())
    else:
        _write(out, data)


def _cmd_simulate(args: argparse.Namespace) -> int:
    plan = parse_case_config(_read_text(args.config))
    if args.mode is not None:
        mode = OscillationMode(args.mode)
        if mode not in plan.modes:
            raise _UsageError(f"mode '{args.mode}' is not listed in the config's modes")
    else:
        mode = plan.modes[0]
    spec = plan.oscillation.with_mode(mode)
    schedule = make_schedule(spec, plan.condition)
    series = run_plant(plan.plant, schedule, plan.condition)
    _emit(write_series(series), args.out)
    return 0


def _require_positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(f"{flag} must be a finite number > 0, got {value}")


def _identify_omega(args: argparse.Namespace) -> float:
    if args.omega is not None:
        if args.chord is not None or args.speed is not None:
            raise _UsageError("--omega cannot be given with --chord or --speed")
        _require_positive("--omega", args.omega)
        return args.omega
    if args.chord is not None or args.speed is not None:
        if args.chord is None or args.speed is None:
            raise _UsageError("--chord and --speed must be given together")
        _require_positive("--chord", args.chord)
        _require_positive("--speed", args.speed)
        omega = 2.0 * args.k * args.speed / args.chord
        _require_positive("omega = 2*k*V/c from --k, --speed and --chord", omega)
        return omega
    # default convention: the time column counts oscillation periods
    return 2.0 * math.pi


# OscillationSpec field -> the identify flag that sets it
_SPEC_FLAGS = {"reduced_frequency": "--k", "body_amplitude": "--amplitude-deg",
               "mean_incidence": "--mean-deg"}


def _identify_spec(args: argparse.Namespace) -> OscillationSpec:
    """The spec the flags describe; a broken range rule is reported under its flag."""
    try:
        return OscillationSpec.from_degrees(
            OscillationMode(args.mode), args.mean_deg, args.amplitude_deg, args.k)
    except DomainError as exc:
        flag = _SPEC_FLAGS[exc.field]
        value = getattr(args, flag[2:].replace("-", "_"))      # degrees stay degrees
        raise _UsageError(f"{flag} {exc.rule}, got {value!r}") from exc


def _cmd_identify(args: argparse.Namespace) -> int:
    aliases = {}
    for item in args.alias:
        header, eq, channel = item.partition("=")
        if not eq:
            raise _UsageError(f"--alias needs HEADER=CHANNEL, got '{item}'")
        try:
            aliases.update(_alias_roles({header: channel}))     # the last --alias wins
        except MonitorError as exc:
            raise _UsageError(f"--alias '{item}': {exc}") from exc
    spec = _identify_spec(args)
    if args.skip < 0:
        raise _UsageError("--skip must be >= 0")
    omega = _identify_omega(args)
    series = parse_monitor_table(_read_text(args.series), extra_aliases=aliases or None)
    dset = extract(fit_series(series, omega, args.skip), spec)
    _emit(write_derivative_table(dset).encode(), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    plan = parse_case_config(_read_text(args.config))
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot write '{out_dir}': {exc.strerror or exc}") from exc
    report = run_sweep(plan)
    machine, human = write_report(report)
    _write(out_dir / "report.csv", machine.encode())
    _write(out_dir / "report.txt", human.encode())
    # loop plot data per successful scenario, plus a run-metadata sidecar;
    # the data files themselves carry no run metadata (byte determinism).
    # A run that repeats the last one formatted bit for bit reuses its bytes.
    run = table = None
    for result in report.results:
        if result.incidence is None:
            continue
        if run is None or not _same_run(result.incidence, run):
            table = None        # released before the next is formatted: no higher peak memory
            run, table = result.incidence, write_loop_table(*result.incidence)
        _write(out_dir / f"loops_{result.scenario.name}.csv", table)
    meta = {
        "tool": "dynderiv",
        "version": __version__,
        "assumptions": {
            "altitude_unit": "m (assumed)",
            "speed_basis": plan.speed_basis,
            "angles": "degrees at this boundary, radians internally",
        },
        "scenarios": [{**entry, "status": r.status.value} for entry, r in
                      zip(_plan_doc(plan)["scenarios"], report.results)],
    }
    _write(out_dir / "run_meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
    sys.stdout.write(human)
    failed = any(r.status is SweepStatus.FAILED for r in report.results)
    return DOMAIN_ERROR if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DynDerivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
