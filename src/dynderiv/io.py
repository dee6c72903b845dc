"""Text interchange: monitor-table ingestion, series and report emission.

Series files are delimited text with header ``t,CL,CD,CM`` (absent
channels omitted) and values written in fixed decimal notation.
``format_value`` (numpy's Dragon4 with ``precision=17, unique=False``)
defines the bytes of every value.  The table writer computes the same
digits for a whole block with numpy arithmetic (``_format_block``), falls
back to ``format_value`` for the values it cannot settle exactly, and is
tested against it cell by cell.  A parse/write round trip is bit-exact and
the files are diffable.
Monitor ingestion is deliberately tolerant about naming (solver exports
vary) and strict about values: each column converts with ``float()`` in
one pass, and the first fault is reported with its line.

Nothing here embeds timestamps or other run-dependent state: identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import os
import stat
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


def parse_monitor_table(
    text: str,
    extra_aliases: Mapping[str, str] | None = None,
) -> CoefficientSeries:
    """Parse a delimited coefficient-monitor export.

    The first non-comment line is the header; '#' starts a comment.  A line
    holding a comma is comma-split, any other whitespace-split.  A time
    column plus at least one of the lift/drag/moment columns must be
    recognizable (``extra_aliases`` maps additional lowercase header names
    onto 'time', 'CL', 'CD' or 'Cm'), each role in one column only.
    Unrecognized columns are ignored; non-uniform time stamps are accepted.

    Cells convert with ``float()`` a column at a time.  The fault in the
    earliest row is raised, with its line; within a row the cell count goes
    first, then the time cell, the time order and the channels in header order.
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
        if (lead := line.lstrip()) and lead[0] != "#"
    ]
    if not lines:
        raise MissingTimeColumn("empty document: no header line found")

    header_no, header_line = lines[0]
    if "," in header_line:
        headers = [cell.strip() for cell in header_line.split(",")]
    else:
        headers = header_line.split()
    columns: dict[str, int] = {}          # role -> cell index, in header order
    for idx, header in enumerate(headers):
        role = _match_channel(header, extra_aliases)
        if role in columns:
            raise MonitorError(f"columns {headers[columns[role]]!r} and {header!r} both read "
                               f"as {role!r} (line {header_no})")
        if role is not None:
            columns[role] = idx
    if "time" not in columns:
        raise MissingTimeColumn(f"no time column among {headers!r} (line {header_no})")
    time_idx = columns.pop("time")
    if not columns:
        raise NoCoefficientColumn(
            f"no lift/drag/moment column among {headers!r} (line {header_no})")

    # Only rows before ``n`` can hold the first fault, which is ``error``.
    body = lines[1:]
    width = len(headers)
    rows = [line.split("," if "," in line else None) for _, line in body]
    widths = list(map(len, rows))
    n, error = len(rows), None
    if widths.count(width) < n:
        n = next(r for r, w in enumerate(widths) if w != width)
        error = NonFiniteValue(
            f"row at line {body[n][0]} has {widths[n]} cells, header has {width}")
    cells = list(chain.from_iterable(rows[:n]))
    arrays = {}
    for name, idx in [("times", time_idx), *columns.items()]:
        where = f"column '{headers[idx]}' at line"
        column = cells[idx:n * width:width]
        try:
            values = np.fromiter(map(float, column), np.float64, n)
        except ValueError:
            for r, cell in enumerate(column):
                try:
                    float(cell)
                except ValueError:
                    break
            n, error = r, NonFiniteValue(
                f"{where} {body[r][0]}: {cell.strip()!r} is not a number")
            values = np.fromiter(map(float, column[:n]), np.float64, n)
        finite = np.isfinite(values)
        if not finite.all():
            n = int(np.argmin(finite))
            error = NonFiniteValue(f"{where} {body[n][0]}: non-finite value {float(values[n])}")
        if name == "times":
            rises = values[1:n] > values[:n][:-1]
            if not rises.all():
                n = int(np.argmin(rises)) + 1
                error = NonMonotonicTime(
                    f"time must be strictly increasing; row at line {body[n][0]} "
                    f"has t={float(values[n])!r} after t={float(values[n - 1])!r}"
                )
        arrays[name] = values

    if error is not None:
        raise error
    if not n:
        raise NonFiniteValue("no data rows after the header")
    return CoefficientSeries(**arrays)


def _csv(header, rows) -> str:
    """Comma-separated text: the header line, then one line per row of cells."""
    return "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"


# Rows per bulk format call.  The block bounds the transient digit matrices,
# so peak memory does not grow with the table.
_BLOCK_ROWS = 1024
_ZERO, _POINT, _MINUS, _PERCENT, _S, _COMMA, _NEWLINE = (ord(c) for c in "0.-%s,\n")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into two halves of at most 26 bits each."""
    t = a * 134217729.0                                # 2**27 + 1
    high = t - (t - a)
    return high, a - high


# 10**p as an unevaluated sum hi + lo of doubles, for p in 0..47, with hi
# split, so that |x| * hi is formed exactly.
_POW10_HI = np.array([float(10**p) for p in range(48)])
_POW10_LO = np.array([float(10**p - int(h)) for p, h in enumerate(_POW10_HI.tolist())])
_POW10_HI_HI, _POW10_HI_LO = _split(_POW10_HI)
# ASCII of every four-digit group 0000..9999, one uint32 per group.
_DIGITS4 = np.ascontiguousarray(
    np.indices((10,) * 4, np.uint8).reshape(4, -1).T + _ZERO).view(np.uint32).ravel()
# The widest bulk cell: a sign, "0.", 30 zeros and 17 digits.
_WIDEST = 50


def _layouts() -> np.ndarray:
    """Cell templates, right-aligned in ``_WIDEST`` bytes and then a comma.

    Row ``2 * (31 + min(e, 0)) + negative`` holds NULs, the sign, "0.", the
    zeros before the first significant digit, and "0"s where the 17 digits
    of S go.
    """
    col = np.arange(_WIDEST + 1)
    lead = np.repeat(np.arange(-31, 1), 2)[:, None] + _WIDEST - 18   # column of the first 0
    negative = np.arange(64)[:, None] % 2 == 1
    return np.select(
        [col == _WIDEST, col == lead + 1, col >= lead, negative & (col == lead - 1)],
        [_COMMA, _POINT, _ZERO, _MINUS], 0,
    ).astype(np.uint8)


_LAYOUTS = _layouts()
_NEAR = 1e-9       # a fraction this close to a rounding boundary falls back


def _significand(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of ``x * 10**(16 - e)``, to within 1e-14.

    The product is formed in double-double arithmetic: ``x * hi`` exactly
    by Dekker's split, plus ``x * lo``.
    """
    p = 16 - e
    x_hi, x_lo = _split(x)
    hi_hi, hi_lo = _POW10_HI_HI[p], _POW10_HI_LO[p]
    y = x * _POW10_HI[p]
    err = ((x_hi * hi_hi - y) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
    whole = np.floor(y)
    rest = (y - whole) + (err + x * _POW10_LO[p])
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _format_block(block: np.ndarray) -> str:
    """CSV lines of a 2-D float64 block: ``format_value`` of every cell.

    A cell in [1e-30, 1e16) gets the 17 significant digits ``S`` that
    Dragon4 rounds to, from ``e = floor(log10|x|)`` and ``_significand``.
    Dragon4 prints ``S`` whole for ``|x| >= 1``.  Below 1 it drops the
    trailing zeros of ``S`` when it rounded up or the expansion was exact,
    keeps them when it rounded down, and pads to 16 fraction digits.  A cell
    falls back to ``format_value`` when its fraction lies within ``_NEAR``
    of a tie, or of an integer where that decides the trailing zeros; when
    ``S`` does not have 17 digits (a log10 that rounded across a power of
    ten, or a round-up that carried to 10**17); and when it is nonzero
    outside [1e-30, 1e16) or not finite.  Zeros go in bulk.
    """
    rows, cols = block.shape
    values = block.ravel()
    x = np.abs(values)
    bulk = (x >= 1e-30) & (x < 1e16)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(bulk, np.floor(np.log10(x)), 0.0).astype(np.int64)
    digits, frac = _significand(np.where(bulk, x, 0.0), e)
    ok = bulk & (digits >= 10**16) & (np.abs(frac - 0.5) > _NEAR)
    up = frac > 0.5
    digits += up
    ok &= digits < 10**17

    high = digits // 10**8
    low = digits - high * 10**8
    top = high // 10**8
    high -= top * 10**8
    groups = np.stack([top, high // 10**4, high % 10**4, low // 10**4, low % 10**4], 1)
    text = _DIGITS4[groups].view(np.uint8)[:, 3:]        # the 17 digits of S
    zero_end = text[:, 16] == _ZERO
    below_one = e < 0
    near_integer = (frac < _NEAR) | (frac > 1.0 - _NEAR)
    ok &= ~(below_one & zero_end & near_integer)
    ok |= x == 0.0
    e[~ok] = 0
    strip = np.flatnonzero(ok & below_one & up & zero_end)
    keep = np.arange(17) < 17 - np.minimum(
        np.argmax(text[strip, ::-1] != _ZERO, 1), -e[strip])[:, None]

    # Right-aligned cells w bytes wide, then a separator: the last digit of
    # S in column w - 1 and the point in column w - 17 + e; for e >= 0 the
    # integer digits 0..e stand one column left of their place in S.
    w = 19 - min(int(e.min()), 0)
    layout = 2 * (31 + np.minimum(e, 0)) + (np.signbit(values) & ok)
    out = np.ascontiguousarray(_LAYOUTS[:, _WIDEST - w:]).take(layout, 0)
    out[:, w - 17:w] = text
    out[strip, w - 17:w] *= keep
    above_one = np.flatnonzero(e >= 0)
    shift = above_one
    for k in range(int(e.max()) + 1):
        shift = shift[e[shift] >= k]
        out[shift, w - 18 + k] = text[shift, k]
    out[above_one, w - 17 + e[above_one]] = _POINT
    fallback = np.flatnonzero(~ok)
    out[fallback, :w] = 0
    out[fallback, w - 2] = _PERCENT
    out[fallback, w - 1] = _S
    out[cols - 1::cols, w] = _NEWLINE
    out = out.ravel()
    lines = out[out != 0].tobytes().decode("ascii")
    if fallback.size:
        lines %= tuple(format_value(v) for v in values[fallback])
    return lines


def _numeric_table(first: str, column, series: CoefficientSeries) -> str:
    """``column`` under ``first`` beside every channel of ``series``, one row per sample."""
    channels = series.channels()
    header = [first] + [_FILE_LABELS[name] for name in channels]
    table = np.column_stack([column, *channels.values()])
    parts = [",".join(header) + "\n"]
    for i in range(0, len(table), _BLOCK_ROWS):
        parts.append(_format_block(table[i:i + _BLOCK_ROWS]))
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


def _summary_cell(value: float | None) -> str:
    return f"{value:12.6g}" if value is not None else f"{'-':>12}"


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
            flags = ""
            if ch.fit is not None and result.derivatives.spec is not None:
                flags = ",".join(validate_fit(ch.fit, result.derivatives.spec)) or "-"
            values = [_derivative(ch, c) for c in _SUMMARY_COLUMNS]
            cells = [_summary_cell(v) for v in values + [loop.signed_area if loop else None]]
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
    """Write text to path atomically (temp file + rename, same directory).

    The file gets the mode ``open(path, "w")`` would leave: a new one gets
    0o666 less the umask, a replaced one keeps its own.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
