"""Text interchange: monitor-table ingestion, series and report emission.

Series files are delimited text with header ``t,CL,CD,CM`` (absent
channels omitted) and values written in fixed decimal notation.  The
table writers return ASCII bytes with LF line ends, which ``atomic_write``
writes as they are.
``format_value`` (numpy's Dragon4 with ``precision=17, unique=False``)
defines the bytes of every value.  The table writer computes the same
digits for a whole block with numpy arithmetic (``_cells``), falls back to
``format_value`` for the values it cannot settle exactly, and is tested
against it cell by cell.  A table's period is formatted once and its lines
repeated; within the period, a column that repeats sooner is formatted only
in the blocks that hold its first period and copied after them, in one
cell matrix of the period (``_table_lines``).
A sweep formats a loop table once for consecutive flying runs that
``_same_run`` finds equal bit for bit, and writes its bytes for each.
A parse/write round trip is bit-exact and the files are diffable.
Monitor ingestion is deliberately tolerant about naming (solver exports
vary) and strict about values: a clean body is read in bulk, a column at a
time, and any fault is found by one row loop in file order and reported
with its line.

Nothing here embeds timestamps or other run-dependent state: identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from itertools import islice
from typing import Mapping

import numpy as np

from .errors import (
    MissingTimeColumn,
    MonitorError,
    NoCoefficientColumn,
    NonFiniteData,
    NonFiniteValue,
    NonMonotonicTime,
    _choices,
    check,
)
from .identify import ChannelDerivatives
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

ALIAS_TARGETS = ("time",) + CHANNELS        # the roles a header alias may name
# header token -> role: the one vocabulary a header cell is looked up in
_ROLES = {token: role for role, names in [("time", TIME_ALIASES), *CHANNEL_ALIASES.items()]
          for token in names}

_FILE_LABELS = {"CL": "CL", "CD": "CD", "Cm": "CM"}   # canonical header names


def format_value(x: float) -> str:
    """Fixed decimal notation that parses back bit-exactly: the bytes of every written value."""
    return np.format_float_positional(x, precision=17, unique=False, fractional=False)


def _token(name: str) -> str:
    """A header cell or alias key as it is looked up: stripped, lower-case."""
    return name.strip().lower()


def _alias_roles(aliases: Mapping[str, str]) -> dict[str, str]:
    """Header token -> role by the alias rule: each header a non-blank string, looked up
    as a header cell is, and each target a string that, stripped, is in ``ALIAS_TARGETS``."""
    roles = {}
    for header, target in aliases.items():
        if not (isinstance(header, str) and header.strip()):
            raise MonitorError(f"alias header must be a non-blank string, got {header!r}")
        if not (isinstance(target, str) and target.strip() in ALIAS_TARGETS):
            raise MonitorError(f"alias target must be {_choices(ALIAS_TARGETS)}, got {target!r}")
        roles[_token(header)] = target.strip()
    return roles


def _lines(text: str) -> list[str]:
    """The lines of monitor tables and case configs alike: a leading byte-order mark dropped,
    broken at LF, CR LF and CR only (``str.splitlines`` would also break at form feed,
    vertical tab, 0x1c-0x1e, NEL, U+2028 and U+2029)."""
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _kept(lines: list[str]) -> list[str]:
    """The header and data rows: the lines neither blank nor a '#' comment."""
    return [line for line in lines if (lead := line.lstrip()) and lead[0] != "#"]


def _line_no(text: str, k: int) -> int:
    """The file line number of kept line ``k`` (the header is 0)."""
    kept = (i for i, line in enumerate(_lines(text), start=1) if _kept([line]))
    return next(islice(kept, k, None))


def _split_lines(data: list[str]) -> list[list[str]]:
    """Each line's cells: comma-split when it holds a comma, else whitespace-split."""
    return [line.split("," if "," in line else None) for line in data]


def _bulk_columns(text: str, data: list[str], width: int) -> list[list[str]] | None:
    """The columns of ``data`` from one split of the whole body, or None.

    Rows are joined around a NUL cell and split once: by commas when the
    first line holds one, else on whitespace (then no line may hold a
    comma).  With no NUL in ``text``, a NUL at every ``width + 1``-th cell
    proves that each line splits as ``_split_lines`` splits it, into
    ``width`` cells; a comma-free line is one cell here, fewer than the two
    a header has at least.  None sends mixed or ragged bodies line by line.
    """
    if not data or "\0" in text:
        return None
    if "," in data[0]:
        cells = ",\0,".join(data).split(",")
    else:
        body = " \0 ".join(data)
        if "," in body:
            return None
        cells = body.split()
    step = width + 1
    if len(cells) != len(data) * step - 1 or cells[width::step].count("\0") != len(data) - 1:
        return None
    return [cells[idx::step] for idx in range(width)]


def parse_monitor_table(
    text: str,
    extra_aliases: Mapping[str, str] | None = None,
) -> CoefficientSeries:
    """Parse a delimited coefficient-monitor export.

    Lines are read by ``_lines``.  The first non-comment line is the
    header; '#' starts a comment.  A line holding a comma is comma-split,
    any other whitespace-split.  A time column plus at least one of the
    lift/drag/moment columns must be recognizable (``extra_aliases`` maps
    additional header names onto 'time', 'CL', 'CD' or 'Cm' by the rule of
    ``_alias_roles``), each role in one column only.
    Unrecognized columns are ignored; non-uniform time stamps are accepted.

    A clean body is read in bulk: split in one pass over the whole body when
    every data line splits the same way (else line by line), and converted
    with ``float()`` a column at a time.  Any fault is found by one row loop
    in file order, ``_first_fault``, and the earliest is raised with its line.
    Line numbers are worked out only when a fault is reported.
    """
    roles = {**_ROLES, **_alias_roles(extra_aliases or {})}
    lines = _kept(_lines(text))
    if not lines:
        raise MissingTimeColumn("empty document: no header line found")

    header_line = lines[0]
    if "," in header_line:
        headers = [cell.strip() for cell in header_line.split(",")]
    else:
        headers = header_line.split()
    columns: dict[str, int] = {}          # role -> cell index, in header order
    for idx, header in enumerate(headers):
        role = roles.get(_token(header))
        if role in columns:
            raise MonitorError(f"columns {headers[columns[role]]!r} and {header!r} both read "
                               f"as {role!r} (line {_line_no(text, 0)})")
        if role is not None:
            columns[role] = idx
    if "time" not in columns:
        raise MissingTimeColumn(f"no time column among {headers!r} (line {_line_no(text, 0)})")
    time_idx = columns.pop("time")
    if not columns:
        raise NoCoefficientColumn(
            f"no lift/drag/moment column among {headers!r} (line {_line_no(text, 0)})")

    width, data = len(headers), lines[1:]
    if not data:
        raise NonFiniteValue("no data rows after the header")
    fields = [("times", time_idx), *columns.items()]     # series field -> cell index
    cells = _bulk_columns(text, data, width)             # cells[idx] is column idx
    if cells is None:
        rows = _split_lines(data)
        if any(len(row) != width for row in rows):
            raise _first_fault(text, headers, fields, rows)
        cells = list(zip(*rows))
    with contextlib.suppress(ValueError):   # float() or CoefficientSeries refuses the body
        return CoefficientSeries(**{name: np.fromiter(map(float, cells[idx]), np.float64, len(data))
                                    for name, idx in fields})
    raise _first_fault(text, headers, fields, _split_lines(data))


def _first_fault(text: str, headers: list[str], fields: list[tuple[str, int]],
                 rows: list[list[str]]) -> MonitorError:
    """The first fault of ``rows`` in file order, with its line.  Within a row the cell count
    goes first, then the time cell (a number, finite), the time order, and the channel cells
    in header order."""
    before = -math.inf
    for r, row in enumerate(rows, start=1):             # row r is kept line r
        if len(row) != len(headers):
            return NonFiniteValue(f"row at line {_line_no(text, r)} has {len(row)} cells, "
                                  f"header has {len(headers)}")
        for name, idx in fields:
            where = f"column '{headers[idx]}' at line"
            try:
                value = float(row[idx])
            except ValueError:
                return NonFiniteValue(
                    f"{where} {_line_no(text, r)}: {row[idx].strip()!r} is not a number")
            if not math.isfinite(value):
                return NonFiniteValue(f"{where} {_line_no(text, r)}: non-finite value {value}")
            if name == "times":
                if value <= before:
                    return NonMonotonicTime(
                        f"time must be strictly increasing; row at line {_line_no(text, r)} "
                        f"has t={value!r} after t={before!r}")
                before = value


def _csv(header, rows) -> str:
    """Comma-separated text: the header line, then one line per row of cells."""
    return "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"


# Rows per bulk format call.  The block bounds the transient digit matrices
# of each call; the cell matrix of a spliced period grows with the period.
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


def _cells(block: np.ndarray) -> np.ndarray:
    """``format_value`` of every cell of a 2-D float64 block, as a (rows, cols, w + 1) uint8
    matrix: each cell right-aligned in ``w`` NUL-padded bytes, then a comma.

    A cell in [1e-30, 1e16) gets the 17 significant digits ``S`` that
    Dragon4 rounds to, from ``e = floor(log10|x|)`` and ``_significand``.
    Dragon4 prints ``S`` whole for ``|x| >= 1``.  Below 1 it drops the
    trailing zeros of ``S`` when it rounded up or the expansion was exact,
    keeps them when it rounded down, and pads to 16 fraction digits.  A cell
    falls back to ``format_value`` (it reads "%s", for ``_text`` to fill)
    when its fraction lies within ``_NEAR`` of a tie, or of an integer where
    that decides the trailing zeros; when ``S`` does not have 17 digits (a
    log10 that rounded across a power of ten, or a round-up that carried to
    10**17); and when it is nonzero outside [1e-30, 1e16) or not finite.
    Zeros go in bulk.
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

    groups = np.empty((len(values), 5), np.int64)       # S in groups of 1, 4, 4, 4, 4 digits
    high, low = np.divmod(digits, 10**8)
    np.divmod(high, 10**8, out=(groups[:, 0], high))
    np.divmod(high, 10**4, out=(groups[:, 1], groups[:, 2]))
    np.divmod(low, 10**4, out=(groups[:, 3], groups[:, 4]))
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
    return out.reshape(rows, cols, w + 1)


def _text(cells: np.ndarray, block: np.ndarray) -> bytes:
    """ASCII CSV lines of the cells of ``block``: NULs dropped, a line end after each row,
    and each "%s" filled with ``format_value`` of its cell, in row-major order."""
    cells[:, -1, -1] = _NEWLINE
    lines = cells.tobytes().translate(None, b"\0")
    fallback = np.flatnonzero(cells[:, :, -3] == _PERCENT)
    if fallback.size:
        lines %= tuple(format_value(v).encode() for v in block.ravel()[fallback])
    return lines


def _periods(table: np.ndarray) -> list[int]:
    """Each column's period: the fewest leading values it repeats bit for bit to its end, a
    divisor of the row count (the row count when it repeats none).

    Values compare as bits, so -0.0 and 0.0 differ.  A period is a row at
    which the column's first value recurs, so a column without one costs one
    comparison against that value.  The table's own period is the lcm.
    """
    n = len(table)
    bits = np.ascontiguousarray(table.T).view(np.uint64)
    periods = []
    for column, same in zip(bits, bits == bits[:, :1]):
        recurs = np.flatnonzero(same[1:]) + 1
        periods.append(next((p for p in recurs[n % recurs == 0].tolist()
                             if same[::p].all() and (column[p:] == column[:-p]).all()), n))
    return periods


def _same_run(run, other) -> bool:
    """Whether two (incidence, series) runs hold the same incidence and channels bit for bit,
    and so give the same ``write_loop_table`` bytes (it writes no times): the same channels,
    shapes and ``uint64`` views, so -0.0 and 0.0 differ, as in ``_periods``."""
    (alpha, series), (other_alpha, other_series) = run, other
    arrays = [np.asarray(alpha, dtype=float), *series.channels().values()]
    others = [np.asarray(other_alpha, dtype=float), *other_series.channels().values()]
    return list(series.channels()) == list(other_series.channels()) and all(
        a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()
        for a, b in zip(arrays, others))


def _table_lines(table: np.ndarray) -> list[bytes]:
    """The CSV lines of a 2-D float64 table, in blocks of at most ``_BLOCK_ROWS`` rows: the
    lines of its period (the lcm of ``_periods``), repeated to the row count.

    Within the period, the blocks that hold the shorter columns' first
    periods (the head) are formatted in full; past it, a call formats the
    period-long columns alone, a block's cells at a time.  Unless the head
    spans the period, the calls fill one cell matrix of it, every cell as
    wide as the widest, where each shorter column's first period repeats.
    """
    n, width = table.shape
    periods = _periods(table)
    period = math.lcm(*periods)
    table = table[:period]
    blocks = [table[i:i + _BLOCK_ROWS] for i in range(0, period, _BLOCK_ROWS)]
    shorter = [j for j in range(width) if periods[j] < period]
    head = math.ceil(max([periods[j] for j in shorter], default=period) / _BLOCK_ROWS) * _BLOCK_ROWS
    if head >= period:                    # every block formatted with all its columns
        return [_text(_cells(block), block) for block in blocks] * (n // period)
    others = [j for j in range(width) if periods[j] == period]
    step = _BLOCK_ROWS * width // max(len(others), 1)
    calls = [(slice(i, i + _BLOCK_ROWS), slice(None), _cells(block))
             for i, block in zip(range(0, head, _BLOCK_ROWS), blocks)]
    calls += [(slice(i, i + step), others, _cells(table[i:i + step, others]))
              for i in range(head, period, step) if others]
    w = max(c.shape[-1] for *_, c in calls)
    cells = np.zeros((period, width, w), np.uint8)
    while calls:                          # a cell copied as one element; a call freed
        rows, columns, c = calls.pop()
        cell = f"V{c.shape[-1]}"
        cells[..., w - c.shape[-1]:].view(cell)[rows, columns, 0] = c.view(cell)[..., 0]
    whole = cells.view(f"V{w}")[..., 0]
    for j in shorter:                     # its first period repeated in place
        whole[:, j].reshape(-1, periods[j])[1:] = whole[:periods[j], j]
    return [_text(cells[i:i + _BLOCK_ROWS], block)
            for i, block in zip(range(0, period, _BLOCK_ROWS), blocks)] * (n // period)


def _numeric_table(first: str, column, series: CoefficientSeries) -> bytes:
    """``column`` under ``first`` beside every channel of ``series``, one row per sample:
    ASCII with LF line ends, by ``_table_lines`` (``_cells`` is row- and column-local)."""
    channels = series.channels()
    header = [first] + [_FILE_LABELS[name] for name in channels]
    table = np.column_stack([column, *channels.values()])
    return b"".join([(",".join(header) + "\n").encode(), *_table_lines(table)])


def write_series(series: CoefficientSeries) -> bytes:
    """Canonical series text as ASCII bytes; parse_monitor_table inverts its decoding
    bit-exactly."""
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
                "loop_area": _fmt(loop),
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
            flags = "" if ch.flags is None else ",".join(ch.flags) or "-"
            values = [_derivative(ch, c) for c in _SUMMARY_COLUMNS]
            cells = [_summary_cell(v) for v in values + [loop]]
            human_lines.append("  " + " ".join([f"{channel:<4}"] + cells + [flags]))
        human_lines.append("")
    return machine, "\n".join(human_lines) + "\n"


def write_loop_table(incidence, series: CoefficientSeries) -> bytes:
    """Loop plot data as ASCII bytes: incidence (deg) against every coefficient channel.

    One row per sample; plotting any coefficient column against the first
    column reproduces the hysteresis loops.  Degrees, like every external
    surface: an incidence that is not finite in degrees raises ``NonFiniteData``.
    """
    incidence = np.asarray(incidence, dtype=float)
    check(incidence.shape == series.times.shape, "incidence",
          "must have the shape of the series times", incidence.shape)
    with np.errstate(over="ignore"):
        degrees = np.degrees(incidence)
    if not np.isfinite(degrees).all():
        raise NonFiniteData("incidence contains non-finite values in degrees")
    return _numeric_table("alpha_deg", degrees, series)


def write_derivative_table(dset) -> str:
    """Small CSV for a single identified derivative set (CLI identify)."""
    rows = (
        [channel] + [_fmt(_derivative(dset.channels[channel], c)) for c in _DERIVATIVE_FIELDS]
        for channel in CHANNELS if channel in dset.channels
    )
    return _csv(["channel", *_DERIVATIVE_FIELDS], rows)


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Write the bytes ``data`` to path unchanged, atomically (temp file + rename, same
    directory).  A ``str`` is refused with ``TypeError``: the caller encodes.

    The file gets the mode ``open(path, "w")`` would leave: a new one gets
    0o666 less the umask, a replaced one keeps its own.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
