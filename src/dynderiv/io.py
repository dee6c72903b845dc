"""Text interchange: monitor-table ingestion, series and report emission.

Series files are delimited text with header ``t,CL,CD,CM`` (absent
channels omitted) and values written in fixed decimal notation.
``format_value`` (numpy's Dragon4 with ``precision=17, unique=False``)
defines the bytes of every value; the bulk table writer is tested against
it.  A parse/write round trip is bit-exact and the files are diffable.
Monitor ingestion is deliberately tolerant about naming (solver exports
vary) and strict about values.

Nothing here embeds timestamps or other run-dependent state: identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import math
import os
import tempfile
from itertools import chain
from typing import Mapping

import numpy as np

from .errors import (
    MissingTimeColumn,
    MonitorError,
    NoCoefficientColumn,
    NonFiniteValue,
    NonMonotonicTime,
    check,
)
from .identify import ChannelDerivatives, validate_fit
from .scenarios import SweepReport, SweepStatus
from .series import CHANNELS, CoefficientSeries

# Case-insensitive header aliases for solver monitor exports.
TIME_ALIASES = ("t", "time", "flow-time", "flowtime")
CHANNEL_ALIASES: Mapping[str, tuple[str, ...]] = {
    "CL": ("cl", "c_l", "lift-coeff", "lift_coeff", "liftcoeff", "cl-coefficient"),
    "CD": ("cd", "c_d", "drag-coeff", "drag_coeff", "dragcoeff", "cd-coefficient"),
    "Cm": ("cm", "c_m", "pitch-mom-coeff", "pitch_mom_coeff", "cm-coefficient",
           "pitching-moment-coeff"),
}

_FILE_LABELS = {"CL": "CL", "CD": "CD", "Cm": "CM"}   # canonical header names


def format_value(x: float) -> str:
    """Fixed decimal notation that parses back bit-exactly: the bytes of every written value."""
    return np.format_float_positional(x, precision=17, unique=False, fractional=False)


def _split_row(line: str) -> list[str]:
    line = line.strip()
    if "," in line:
        return [cell.strip() for cell in line.split(",")]
    return line.split()


def _match_channel(header: str, extra_aliases: Mapping[str, str] | None) -> str | None:
    token = header.strip().lower()
    if extra_aliases and token in extra_aliases:
        return extra_aliases[token]
    if token in TIME_ALIASES:
        return "time"
    for channel, aliases in CHANNEL_ALIASES.items():
        if token == channel.lower() or token in aliases:
            return channel
    return None


def _parse_well_formed(
    body: list[str], width: int, columns: Mapping[str, int]
) -> CoefficientSeries | None:
    """The series in ``body`` if every row is well formed, else None.

    ``columns`` maps each ``CoefficientSeries`` field to its cell index in
    rows of ``width`` cells.  Cells convert with ``float()``, as in the row
    loop, but a whole column at a time.  Any fault (a short row, a bad or
    non-finite cell, a time that does not increase) gives None, and the row
    loop then reports it.
    """
    # A line holding a comma is comma-split (see _split_row), so whitespace
    # splitting is only the same when no line holds one.
    sep = "," if any("," in line for line in body) else None
    rows = [line.split(sep) for line in body]
    if not rows or any(len(row) != width for row in rows):
        return None
    cells = list(chain.from_iterable(rows))
    try:
        arrays = {
            name: np.fromiter(map(float, cells[idx::width]), np.float64, len(rows))
            for name, idx in columns.items()
        }
    except ValueError:
        return None
    if not all(np.isfinite(a).all() for a in arrays.values()):
        return None
    if not np.all(np.diff(arrays["times"]) > 0.0):
        return None
    return CoefficientSeries(**arrays)


def parse_monitor_table(
    text: str,
    extra_aliases: Mapping[str, str] | None = None,
) -> CoefficientSeries:
    """Parse a delimited coefficient-monitor export.

    The first non-comment line is the header; '#' starts a comment.  A
    time column plus at least one of the lift/drag/moment columns must be
    recognizable (``extra_aliases`` maps additional lowercase header names
    onto 'time', 'CL', 'CD' or 'Cm').  Unrecognized columns are ignored.
    Non-uniform time stamps are accepted.
    """
    if extra_aliases:
        extra_aliases = {k.lower(): v for k, v in extra_aliases.items()}
        for target in extra_aliases.values():
            if target not in ("time",) + CHANNELS:
                raise MonitorError(
                    f"alias target must be 'time' or one of {CHANNELS}, got {target!r}"
                )

    lines = [
        (i, line) for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise MissingTimeColumn("empty document: no header line found")

    header_no, header_line = lines[0]
    headers = _split_row(header_line)
    roles = [_match_channel(h, extra_aliases) for h in headers]
    if "time" not in roles:
        raise MissingTimeColumn(
            f"no time column among {headers!r} (line {header_no})"
        )
    time_idx = roles.index("time")
    channel_cols = {role: i for i, role in enumerate(roles) if role in CHANNELS}
    if not channel_cols:
        raise NoCoefficientColumn(
            f"no lift/drag/moment column among {headers!r} (line {header_no})"
        )

    columns = {"times": time_idx, **channel_cols}
    series = _parse_well_formed([line for _, line in lines[1:]], len(headers), columns)
    if series is not None:
        return series

    # The row loop finds the first fault and names its line.
    times: list[float] = []
    data: dict[str, list[float]] = {ch: [] for ch in channel_cols}
    for line_no, line in lines[1:]:
        cells = _split_row(line)
        if len(cells) != len(headers):
            raise NonFiniteValue(
                f"row at line {line_no} has {len(cells)} cells, header has {len(headers)}"
            )
        def cell_value(idx: int) -> float:
            try:
                value = float(cells[idx])
            except ValueError as exc:
                raise NonFiniteValue(
                    f"column '{headers[idx]}' at line {line_no}: {cells[idx]!r} is not a number"
                ) from exc
            if not math.isfinite(value):
                raise NonFiniteValue(
                    f"column '{headers[idx]}' at line {line_no}: non-finite value {value}"
                )
            return value

        t = cell_value(time_idx)
        if times and t <= times[-1]:
            raise NonMonotonicTime(
                f"time must be strictly increasing; row at line {line_no} "
                f"has t={t!r} after t={times[-1]!r}"
            )
        times.append(t)
        for channel, idx in channel_cols.items():
            data[channel].append(cell_value(idx))

    if not times:
        raise NonFiniteValue("no data rows after the header")

    return CoefficientSeries(times, **data)


def _csv(header, rows) -> str:
    """Comma-separated text: the header line, then one line per row of cells."""
    return "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"


# Rows per bulk format call.  The block bounds the transient text, argument
# tuple and index arrays, so peak memory does not grow with the table.
_BLOCK_ROWS = 1024
_ZERO, _MINUS, _COMMA = (ord(c) for c in "0-,")


def _format_cells(values: np.ndarray) -> list[str]:
    """``format_value`` of every element of a 1-D float64 array, in bulk.

    Each value in [1e-30, 1e16) is printed by one ``%.*f`` call at
    precision ``16 - floor(log10|x|)``: the same correctly rounded 17
    significant digits Dragon4 gives.  A cell falls back to ``format_value``
    when its text ends in ``0`` (Dragon4 sometimes drops such a zero and
    sometimes keeps it), has the wrong length, or has a ``0`` where its first
    significant digit belongs.  The last two catch a log10 that rounds across
    a power of ten: there the second digit is a ``0`` too.  Zeros,
    subnormals, huge and non-finite values always fall back.
    """
    n = values.size
    x = np.abs(values)
    bulk = (x >= 1e-30) & (x < 1e16)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(bulk, np.floor(np.log10(x)), 0.0).astype(np.int64)
    args = [None] * (2 * n)
    args[0::2] = (16 - e).tolist()
    args[1::2] = np.where(bulk, values, 0.0).tolist()
    text = ("%.*f," * n) % tuple(args)

    b = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero(b == _COMMA)
    starts = np.concatenate(([0], ends[:-1] + 1))
    digits = starts + (b[starts] == _MINUS)          # first byte after the sign
    lead = digits + np.where(e < 0, 1 - e, 0)        # 0.<-e-1 zeros><17 digits> when e < 0
    ok = (
        bulk
        & (ends - digits == 18 + np.maximum(-e, 0))
        & (b[ends - 1] != _ZERO)
        & (b[lead] != _ZERO)
    )
    cells = text.split(",")
    del cells[-1]
    for i in np.flatnonzero(~ok).tolist():
        cells[i] = format_value(values[i])
    return cells


def _numeric_table(first: str, column, series: CoefficientSeries) -> str:
    """``column`` under ``first`` beside every channel of ``series``, one row per sample."""
    channels = series.channels()
    header = [first] + [_FILE_LABELS[name] for name in channels]
    table = np.column_stack([column, *channels.values()])
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for i in range(0, len(table), _BLOCK_ROWS):
        block = table[i:i + _BLOCK_ROWS]
        parts.append((row * len(block)) % tuple(_format_cells(block.ravel())))
    return "".join(parts)


def write_series(series: CoefficientSeries) -> str:
    """Canonical series text; parse_monitor_table inverts it bit-exactly."""
    return _numeric_table("t", series.times, series)


# ---------------------------------------------------------------------------
# Sweep reports
# ---------------------------------------------------------------------------

REPORT_COLUMNS = (
    "scenario", "channel", "V", "k",
    "C_alpha", "C_q", "C_alphadot", "damping_sum", "trim", "loop_area", "status",
)

# derivative column -> ChannelDerivatives field, in derivative-table order
_DERIVATIVE_FIELDS = {"trim": "trim_value", "C_alpha": "static_slope", "C_q": "rate_derivative",
                      "C_alphadot": "aoa_rate_derivative", "damping_sum": "damping_sum",
                      "contamination": "contamination"}
# report.txt columns; its header shortens damping_sum to "damping"
_SUMMARY_COLUMNS = ("trim", "C_alpha", "C_q", "C_alphadot", "damping_sum")


def _fmt(value: float | None) -> str:
    """Empty cell for absent values; absence is not zero."""
    return "" if value is None else format_value(value)


def _derivative(ch: ChannelDerivatives | None, column: str) -> float | None:
    return None if ch is None else getattr(ch, _DERIVATIVE_FIELDS[column])


def _report_rows(report: SweepReport):
    k = report.plan.oscillation.reduced_frequency
    for result in report.results:
        reason = (result.failure_reason or "").replace("\n", " ").replace(",", ";")
        status = f"FAILED({reason})" if result.status is SweepStatus.FAILED else result.status.value
        speed = _fmt(report.plan.scenario_speed(result.scenario))
        for channel in CHANNELS:
            ch = result.derivatives.channels.get(channel) if result.derivatives else None
            loop = result.loops.get(channel) if result.loops else None
            cells = {
                "scenario": result.scenario.name,
                "channel": channel,
                "V": speed,
                "k": _fmt(k) if result.status is SweepStatus.OK else "",
                "loop_area": _fmt(loop.signed_area) if loop else "",
                "status": status,
            }
            yield [cells[c] if c in cells else _fmt(_derivative(ch, c)) for c in REPORT_COLUMNS]


def write_report(report: SweepReport) -> tuple[str, str]:
    """Render a sweep as (machine CSV, human-readable summary)."""
    machine = _csv(REPORT_COLUMNS, _report_rows(report))

    human_lines = [
        "Forced-oscillation sweep report",
        f"reduced frequency k = {report.plan.oscillation.reduced_frequency:g}, "
        f"modes = {'+'.join(m.value for m in report.plan.modes)}, "
        f"plant = {report.plan.plant.name}",
        "derivatives are per radian; empty cells mean 'not identifiable', never zero",
        "",
    ]
    labels = [c.removesuffix("_sum") for c in _SUMMARY_COLUMNS] + ["loop_area"]
    for result in report.results:
        human_lines.append(f"[{result.status.value}] {result.scenario.name}")
        s = result.scenario
        human_lines.append(
            f"  altitude {s.altitude:g} m (assumed meters), climb {s.vertical_velocity:g} m/s, "
            f"forward {s.forward_velocity:g} m/s"
        )
        if result.status is SweepStatus.FAILED:
            human_lines += [f"  reason: {result.failure_reason}", ""]
            continue
        if result.status is SweepStatus.STATIC_ONLY:
            human_lines.append("  hover: rate scales undefined, static trim values only")
        human_lines.append("  " + " ".join(["ch  "] + [f"{n:>12}" for n in labels] + ["flags"]))
        for channel in CHANNELS:
            ch = result.derivatives.channels.get(channel) if result.derivatives else None
            if ch is None:
                continue
            loop = result.loops.get(channel) if result.loops else None

            def cell(v: float | None) -> str:
                return f"{v:12.6g}" if v is not None else f"{'-':>12}"

            flags = ""
            if ch.fit is not None and result.derivatives.spec is not None:
                flags = ",".join(validate_fit(ch.fit, result.derivatives.spec)) or "-"
            values = [_derivative(ch, c) for c in _SUMMARY_COLUMNS]
            cells = [cell(v) for v in values + [loop.signed_area if loop else None]]
            human_lines.append("  " + " ".join([f"{channel:<4}"] + cells + [flags]))
        human_lines.append("")
    return machine, "\n".join(human_lines) + "\n"


def write_loop_table(incidence, series: CoefficientSeries) -> str:
    """Loop plot data: incidence (deg) against every coefficient channel.

    One row per sample; plotting any coefficient column against the first
    column reproduces the hysteresis loops.  Degrees, like every external
    surface.
    """
    incidence = np.asarray(incidence, dtype=float)
    check(incidence.shape == series.times.shape, "incidence",
          "must have the shape of the series times", incidence.shape)
    return _numeric_table("alpha_deg", np.degrees(incidence), series)


def write_derivative_table(dset) -> str:
    """Small CSV for a single identified derivative set (CLI identify)."""
    rows = (
        [channel] + [_fmt(_derivative(dset.channels[channel], c)) for c in _DERIVATIVE_FIELDS]
        for channel in CHANNELS if channel in dset.channels
    )
    return _csv(["channel", *_DERIVATIVE_FIELDS], rows)


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Write text to path atomically (temp file + rename, same directory)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
