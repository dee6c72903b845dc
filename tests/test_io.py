"""Monitor ingestion, canonical series text, report emission."""

import csv
import hashlib
import io
import math
import os
import re
import stat
import warnings
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynderiv import (
    CoefficientSeries,
    DomainError,
    FlatPlatePlant,
    FlightCondition,
    IndicialPlant,
    MissingTimeColumn,
    MonitorError,
    NoCoefficientColumn,
    NonFiniteData,
    NonFiniteValue,
    NonMonotonicTime,
    OscillationMode,
    QuasiSteadyPlant,
    SweepPlan,
    SweepStatus,
    TransitionScenario,
    agard_ct2_preset,
    atomic_write,
    builtin_scenarios,
    make_schedule,
    parse_monitor_table,
    run_sweep,
    simulate,
    write_loop_table,
    write_report,
    write_series,
)
from dynderiv import io as dio
from dynderiv.io import format_value


class TestParseMonitorTable:
    def test_basic_csv(self):
        text = "t,CL,CD,CM\n0.0,0.1,0.01,-0.02\n0.1,0.2,0.02,-0.03\n0.2,0.3,0.03,-0.04\n"
        series = parse_monitor_table(text)
        assert len(series) == 3
        np.testing.assert_array_equal(series.times, [0.0, 0.1, 0.2])
        np.testing.assert_array_equal(series.CL, [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(series.Cm, [-0.02, -0.03, -0.04])

    def test_aliases_and_missing_drag(self):
        text = "time, cl, cm\n0, 1, 2\n1, 3, 4\n"
        series = parse_monitor_table(text)
        assert series.CD is None
        np.testing.assert_array_equal(series.CL, [1.0, 3.0])
        np.testing.assert_array_equal(series.Cm, [2.0, 4.0])

    def test_whitespace_delimited_with_comments(self):
        text = "# solver export\nflow-time  lift-coeff\n# block 1\n0.0 0.5\n0.5 0.6\n"
        series = parse_monitor_table(text)
        assert len(series) == 2
        assert series.CD is None and series.Cm is None

    def test_extra_columns_ignored(self):
        text = "t,iter,CL\n0.0,1,0.5\n0.1,2,0.6\n"
        series = parse_monitor_table(text)
        np.testing.assert_array_equal(series.CL, [0.5, 0.6])

    def test_duplicate_timestamp(self):
        text = "t,CL\n0.0,1\n0.1,2\n0.1,3\n"
        with pytest.raises(NonMonotonicTime, match="line 4"):
            parse_monitor_table(text)

    def test_missing_time_column(self):
        with pytest.raises(MissingTimeColumn):
            parse_monitor_table("CL,CD\n1,2\n")

    def test_no_coefficient_column(self):
        with pytest.raises(NoCoefficientColumn):
            parse_monitor_table("t,pressure\n0,1\n")

    def test_non_numeric_cell_names_column_and_line(self):
        text = "t,CL\n0.0,1.0\n0.1,oops\n"
        with pytest.raises(NonFiniteValue, match="'CL' at line 3"):
            parse_monitor_table(text)

    def test_inf_rejected(self):
        text = "t,CL\n0.0,1.0\n0.1,inf\n"
        with pytest.raises(NonFiniteValue, match="line 3"):
            parse_monitor_table(text)

    def test_ragged_row(self):
        text = "t,CL\n0.0,1.0\n0.1\n"
        with pytest.raises(NonFiniteValue, match="line 3"):
            parse_monitor_table(text)

    def test_nonuniform_accepted(self):
        text = "t,CL\n0.0,1\n0.1,2\n0.35,3\n0.5,4\n"
        series = parse_monitor_table(text)
        np.testing.assert_array_equal(series.times, [0.0, 0.1, 0.35, 0.5])
        np.testing.assert_array_equal(series.CL, [1.0, 2.0, 3.0, 4.0])

    def test_custom_alias(self):
        text = "t,lift\n0,1\n1,2\n"
        series = parse_monitor_table(text, extra_aliases={"lift": "CL"})
        np.testing.assert_array_equal(series.CL, [1.0, 2.0])

    @pytest.mark.parametrize("key", [" lift", "LIFT ", "\tLift"])
    def test_alias_keys_match_as_header_cells_do(self, key):
        series = parse_monitor_table("time, Lift\n0,1\n1,2\n", extra_aliases={key: "CL"})
        np.testing.assert_array_equal(series.CL, [1.0, 2.0])

    def test_unknown_alias_target_is_a_monitor_error(self):
        with pytest.raises(MonitorError, match="bogus"):
            parse_monitor_table("t,CL\n0,1\n", extra_aliases={"t": "bogus"})

    @pytest.mark.parametrize("aliases, message", [
        ({1: "CL"}, "alias header must be a non-blank string, got 1"),
        ({None: "CL"}, "alias header must be a non-blank string, got None"),
        ({b"lift": "CL"}, "alias header must be a non-blank string, got b'lift'"),
        ({"lift": None}, "alias target must be 'time', 'CL', 'CD' or 'Cm', got None"),
        ({"lift": 1}, "alias target must be 'time', 'CL', 'CD' or 'Cm', got 1"),
        ({"lift": ["CL"]}, "alias target must be 'time', 'CL', 'CD' or 'Cm', got ['CL']"),
    ], ids=["int-header", "none-header", "bytes-header", "none-target", "int-target",
            "list-target"])
    def test_a_non_string_alias_is_a_monitor_error(self, aliases, message):
        with pytest.raises(MonitorError) as caught:
            parse_monitor_table("t,lift\n0,1\n", extra_aliases=aliases)
        assert type(caught.value) is MonitorError and str(caught.value) == message

    def test_times_across_the_float_range_give_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = parse_monitor_table("t,CL\n-1e308,1\n1e308,2\n")
        np.testing.assert_array_equal(series.times, [-1e308, 1e308])

    def test_each_line_picks_its_own_delimiter(self):
        series = parse_monitor_table("t,CL\n0 1\n1 2\n")
        np.testing.assert_array_equal(series.times, [0.0, 1.0])
        np.testing.assert_array_equal(series.CL, [1.0, 2.0])

    @pytest.mark.parametrize("text, aliases, message", [
        ("t,CL,lift-coeff\n0,1,2\n", None,
         "columns 'CL' and 'lift-coeff' both read as 'CL' (line 1)"),
        ("# export\ntime CL flow-time\n0 1 2\n", None,
         "columns 'time' and 'flow-time' both read as 'time' (line 2)"),
        ("t,CL,lift\n0,1,2\n", {"lift": "CL"},
         "columns 'CL' and 'lift' both read as 'CL' (line 1)"),
    ], ids=["channel", "time", "alias"])
    def test_a_role_read_from_two_columns_is_an_error(self, text, aliases, message):
        with pytest.raises(MonitorError) as caught:
            parse_monitor_table(text, extra_aliases=aliases)
        assert type(caught.value) is MonitorError
        assert str(caught.value) == message


_CELL_FORMATS = ("%r", "%.17g", "%.6e", "%.3f", "%d")


@st.composite
def monitor_tables(draw):
    """A well-formed export: its text and the line number of each data row."""
    comma = draw(st.booleans())
    n_rows = draw(st.integers(1, 30))
    time_name = draw(st.sampled_from(["t", "time", "flow-time", "Time"]))
    columns = [time_name] + draw(st.sampled_from(
        [["CL"], ["cl", "cd", "cm"], ["lift-coeff", "pitch-mom-coeff"], ["C_L", "Drag-Coeff"]]))
    columns = draw(st.permutations(columns + draw(st.sampled_from([[], ["iter"], ["iter", "label"]]))))
    steps = draw(st.lists(st.floats(1e-9, 10.0), min_size=n_rows, max_size=n_rows))
    times = (np.cumsum(steps) - steps[0]).tolist()
    fmt = draw(st.sampled_from(_CELL_FORMATS[:2]))           # keeps every time distinct
    lines, row_lines = ["# solver export"], []
    lines.append((", " if comma else "  ").join(columns))
    for i, t in enumerate(times):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["# comment", "   # indented", ""])))
        cells = []
        for name in columns:
            if name == time_name:
                cells.append(fmt % t)
            elif name == "iter":
                cells.append(str(i))
            elif name == "label":
                cells.append("step")
            else:
                cells.append(draw(st.sampled_from(_CELL_FORMATS)) % draw(st.floats(-1e6, 1e6)))
        lines.append(("," if comma else " ").join(cells))
        row_lines.append(len(lines))
    return "\n".join(lines) + "\n", row_lines, columns, time_name


_CHANNEL_HEADERS = ["CL", "CD", "CM", *(a for names in dio.CHANNEL_ALIASES.values() for a in names)]
_FUZZ_HEADERS = [*dio.TIME_ALIASES, *_CHANNEL_HEADERS, "iter", "label", "", "x y", "#t"]
_FUZZ_CELLS = st.one_of(                                   # mostly numbers
    st.floats(-1e6, 1e6).map(repr), st.floats(-1e6, 1e6).map(repr), st.integers(-9, 9).map(str),
    st.floats().map(repr),                                   # nan, inf and huge ones too
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "oops", "", "1_0", "0x10", "--1", " "]),
    st.text(max_size=3),
)


@st.composite
def fuzzed_monitor_texts(draw):
    """Any text a solver export might hold, with the aliases to read it by.

    Each role (time, CL, CD, Cm) heads at most one column, except in one
    draw in 20, which keeps a repeated role on purpose; a ';' separator,
    which never splits a header, is also one draw in 20.  So most texts get
    past the header to their rows.  Each rare branch is keyed to a value
    from the middle of its range: Hypothesis draws 0 and the bounds far more
    often than their share.
    """
    header = draw(st.lists(st.sampled_from(_FUZZ_HEADERS), max_size=4))
    if draw(st.integers(0, 9)) != 5:          # mostly a time and a channel among them
        header += [draw(st.sampled_from(dio.TIME_ALIASES)), draw(st.sampled_from(_CHANNEL_HEADERS))]
    aliases = draw(st.none() | st.dictionaries(
        st.sampled_from(_FUZZ_HEADERS), st.sampled_from(["time", "CL", " CD", "Cm", "bogus"]),
        max_size=2))
    if draw(st.integers(0, 19)) != 11:        # else a role may repeat: a header fault
        try:
            vocabulary = reference_roles(aliases)
        except MonitorError:                  # the parse stops at the aliases
            vocabulary = _HEADER_ROLES
        roles = [vocabulary.get(name.strip().lower()) for name in header]
        header = [name for j, (name, role) in enumerate(zip(header, roles))
                  if role is None or role not in roles[:j]]
    case = draw(st.sampled_from([str.lower, str.upper, str.title]))
    header = [case(name) for name in draw(st.permutations(header))]
    if draw(st.integers(0, 19)) != 13:
        sep = draw(st.sampled_from([",", ", ", " ", "\t", " , "]))
    else:                                     # ';' keeps the header one unknown name
        sep = ";"
    lines = draw(st.lists(st.sampled_from(["# export", "  # a,b", ""]), max_size=2))
    lines.append(sep.join(header))
    for i in range(draw(st.integers(1, 12))):     # the body may still be all comments
        kind = draw(st.sampled_from(["clean", "clean", "fuzzed", "ragged", "comment", "blank"]))
        if kind in ("comment", "blank"):
            lines.append(draw(st.sampled_from(["# 1,2", "   #", "", " \t"])))
            continue
        width = len(header) if kind != "ragged" else draw(st.integers(0, len(header) + 2))
        if kind == "clean":       # every column increases, so whichever is time does
            cells = [repr(i + draw(st.floats(0.0, 0.5))) for _ in range(width)]
        else:
            cells = [draw(_FUZZ_CELLS) for _ in range(width)]
        lines.append(sep.join(cells))
    return "\n".join(lines), aliases


# the documented header vocabulary: lower-case header cell -> role
_HEADER_ROLES = {**dict.fromkeys(dio.TIME_ALIASES, "time"),
                 **{name: role for role, names in dio.CHANNEL_ALIASES.items() for name in names}}


def reference_roles(aliases):
    """The vocabulary with ``aliases`` laid over it by the documented alias rule.

    A header is a non-blank string, stripped and lower-cased as a header cell
    is; a target is a string that, stripped, is one of ``ALIAS_TARGETS``.
    """
    roles = dict(_HEADER_ROLES)
    for header, target in (aliases or {}).items():
        if not isinstance(header, str) or header.strip() == "":
            raise MonitorError(f"alias header must be a non-blank string, got {header!r}")
        if not isinstance(target, str) or target.strip() not in dio.ALIAS_TARGETS:
            raise MonitorError(
                f"alias target must be 'time', 'CL', 'CD' or 'Cm', got {target!r}")
        roles[header.strip().lower()] = target.strip()
    return roles


def reference_monitor_parse(text, extra_aliases=None):
    """parse_monitor_table one row and one cell at a time: the oracle.

    The column-at-a-time parser must give the same series as this row loop,
    or raise the same error type with the same message.
    """
    vocabulary = reference_roles(extra_aliases)

    def split(line):
        line = line.strip()
        return [cell.strip() for cell in line.split(",")] if "," in line else line.split()

    text = text[1:] if text.startswith("\ufeff") else text
    lines = [(i, line) for i, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1)
             if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise MissingTimeColumn("empty document: no header line found")
    header_no, header_line = lines[0]
    headers = split(header_line)
    roles = [vocabulary.get(h.lower()) for h in headers]
    for j, role in enumerate(roles):
        if role is not None and role in roles[:j]:
            raise MonitorError(f"columns {headers[roles.index(role)]!r} and {headers[j]!r} "
                               f"both read as {role!r} (line {header_no})")
    if "time" not in roles:
        raise MissingTimeColumn(f"no time column among {headers!r} (line {header_no})")
    time_idx = roles.index("time")
    channel_cols = {role: i for i, role in enumerate(roles) if role in ("CL", "CD", "Cm")}
    if not channel_cols:
        raise NoCoefficientColumn(
            f"no lift/drag/moment column among {headers!r} (line {header_no})")

    times, data = [], {ch: [] for ch in channel_cols}
    for line_no, line in lines[1:]:
        cells = split(line)
        if len(cells) != len(headers):
            raise NonFiniteValue(
                f"row at line {line_no} has {len(cells)} cells, header has {len(headers)}")

        def cell_value(idx):
            try:
                value = float(cells[idx])
            except ValueError:
                raise NonFiniteValue(
                    f"column '{headers[idx]}' at line {line_no}: {cells[idx]!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise NonFiniteValue(
                    f"column '{headers[idx]}' at line {line_no}: non-finite value {value}")
            return value

        t = cell_value(time_idx)
        if times and t <= times[-1]:
            raise NonMonotonicTime(f"time must be strictly increasing; row at line {line_no} "
                                   f"has t={t!r} after t={times[-1]!r}")
        times.append(t)
        for channel, idx in channel_cols.items():
            data[channel].append(cell_value(idx))
    if not times:
        raise NonFiniteValue("no data rows after the header")
    return CoefficientSeries(times, **data)


def _outcome(parse, text, aliases=None):
    """The series bytes, or the MonitorError's type and message; any other error escapes."""
    try:
        series = parse(text, extra_aliases=aliases)
    except MonitorError as exc:
        return type(exc), str(exc)
    return [(name, values.tobytes()) for name, values in [("t", series.times),
                                                          *series.channels().items()]]


class TestParseFuzzed:
    @given(fuzzed_monitor_texts())
    @settings(max_examples=300, deadline=None)
    def test_only_monitor_errors_and_the_reference_agrees(self, case):
        # any other exception escapes and fails the property
        text, aliases = case
        assert _outcome(parse_monitor_table, text, aliases) == \
            _outcome(reference_monitor_parse, text, aliases)


class TestParseBulkPath:
    """Whole tables against the reference row loop; single faults against their message."""

    @given(monitor_tables())
    @settings(max_examples=60, deadline=None)
    def test_well_formed_tables_parse_bit_identically(self, table):
        text = table[0]
        parsed = _outcome(parse_monitor_table, text)
        assert isinstance(parsed, list)
        assert parsed == _outcome(reference_monitor_parse, text)

    @given(monitor_tables(), st.sampled_from(["bad", "nan", "inf", "short", "time"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_a_fault_is_reported_at_its_line(self, table, fault, rnd):
        text, row_lines, columns, time_name = table
        assume(fault != "time" or len(row_lines) > 1)
        lines = text.splitlines()
        k = rnd.randrange(1 if fault == "time" else 0, len(row_lines))
        line_no = row_lines[k]
        sep = "," if "," in lines[line_no - 1] else None
        cells = lines[line_no - 1].split(sep)
        col = rnd.choice([i for i, name in enumerate(columns) if name not in ("iter", "label")])
        where = f"column '{columns[col]}' at line {line_no}"
        if fault == "bad":
            cells[col] = "oops"
            error, message = NonFiniteValue, f"{where}: 'oops' is not a number"
        elif fault in ("nan", "inf"):
            cells[col] = fault
            error, message = NonFiniteValue, f"{where}: non-finite value {fault}"
        elif fault == "short":
            del cells[-1]
            error = NonFiniteValue
            message = f"row at line {line_no} has {len(cells)} cells, header has {len(columns)}"
        else:
            ti = columns.index(time_name)
            before = float(lines[row_lines[k - 1] - 1].split(sep)[ti])
            cells[ti] = repr(before)
            error = NonMonotonicTime
            message = (f"time must be strictly increasing; row at line {line_no} "
                       f"has t={before!r} after t={before!r}")
        lines[line_no - 1] = ("," if sep else " ").join(cells)
        with pytest.raises(MonitorError) as caught:
            parse_monitor_table("\n".join(lines) + "\n")
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("text, message", [
        # whitespace-split, line 3 has three cells; comma-split, as the loop does, two
        ("t CL note\n0 1 a\n1 2 a,b\n", "row at line 3 has 2 cells, header has 3"),
        # a short row and a long one that add up to whole rows
        ("t,CL\n0,1\n1\n2,3,4\n", "row at line 3 has 1 cells, header has 2"),
    ])
    def test_rows_are_counted_one_by_one(self, text, message):
        with pytest.raises(NonFiniteValue) as caught:
            parse_monitor_table(text)
        assert str(caught.value) == message


# Comments, blank and whitespace-only lines before the header and between
# rows, so each kept line's file line number differs from its position.
_SPACED_EXPORT = [
    "# solver export", "", "   \t", "# columns follow",
    "time, CL, CD",                         # line 5
    "0.0, 1.0, 2.0",                        # line 6
    "  # between rows", "",
    "0.5, 1.5, 2.5",                        # line 9
    " \t ", "\t# a, b",
    "1.0, 2.0, 3.0",                        # line 12
    "", "# end",
]


class TestFaultLines:
    """One fault of each kind in a table spaced out by comments and blank lines."""

    @pytest.mark.parametrize("line_no, line, error, message", [
        (5, "time, CL, lift-coeff", MonitorError,
         "columns 'CL' and 'lift-coeff' both read as 'CL' (line 5)"),
        (5, "step, CL, CD", MissingTimeColumn,
         "no time column among ['step', 'CL', 'CD'] (line 5)"),
        (12, "1.0, 2.0", NonFiniteValue, "row at line 12 has 2 cells, header has 3"),
        (9, "0.5, 1.5, oops", NonFiniteValue, "column 'CD' at line 9: 'oops' is not a number"),
        (12, "1.0, inf, 3.0", NonFiniteValue, "column 'CL' at line 12: non-finite value inf"),
        (9, "0.0, 1.5, 2.5", NonMonotonicTime,
         "time must be strictly increasing; row at line 9 has t=0.0 after t=0.0"),
    ], ids=["repeated-role", "missing-time", "ragged", "not-a-number", "non-finite",
            "time-not-increasing"])
    def test_the_fault_names_its_file_line(self, line_no, line, error, message):
        lines = list(_SPACED_EXPORT)
        lines[line_no - 1] = line
        with pytest.raises(MonitorError) as caught:
            parse_monitor_table("\n".join(lines) + "\n")
        assert type(caught.value) is error
        assert str(caught.value) == message

    @staticmethod
    def _table(sep, rows):
        """A ``t``/``CL`` table split by ``sep``; a mixed table alternates commas and spaces."""
        seps = [",", " "] if sep == "mixed" else [sep]
        return "".join(seps[i % len(seps)].join(row) + "\n"
                       for i, row in enumerate([["t", "CL"], *rows]))

    @pytest.mark.parametrize("sep", [",", " ", "mixed"], ids=["comma", "whitespace", "mixed"])
    @pytest.mark.parametrize("rows, error, message", [
        ([["0", "1"], ["1", "2"], ["1", "x"]], NonMonotonicTime,
         "time must be strictly increasing; row at line 4 has t=1.0 after t=1.0"),
        ([["0", "1"], ["1", "inf"], ["2", "3"], ["x", "4"]], NonFiniteValue,
         "column 'CL' at line 3: non-finite value inf"),
        ([["0", "1"], ["1", "y"], ["2"]], NonFiniteValue,
         "column 'CL' at line 3: 'y' is not a number"),
        ([["0", "1"], ["nan", "2"], ["2", "3"]], NonFiniteValue,
         "column 't' at line 3: non-finite value nan"),
    ], ids=["time-order-before-channel", "earlier-row-first", "channel-before-short-row",
            "nan-time-is-non-finite"])
    def test_the_fault_order_within_and_across_rows(self, sep, rows, error, message):
        text = self._table(sep, rows)
        assert _outcome(parse_monitor_table, text) == (error, message)
        assert _outcome(reference_monitor_parse, text) == (error, message)

    @pytest.mark.parametrize("sep", [",", " ", "mixed"], ids=["comma", "whitespace", "mixed"])
    def test_only_a_faulty_body_reaches_the_row_loop(self, sep, monkeypatch):
        first_fault, calls = dio._first_fault, []
        monkeypatch.setattr(dio, "_first_fault",
                            lambda *args: calls.append(args) or first_fault(*args))
        rows = [[repr(t), repr(t * t)] for t in np.linspace(0.0, 1.0, 50).tolist()]
        series = parse_monitor_table(self._table(sep, rows))
        assert calls == [] and len(series.times) == 50
        rows[30][1] = "oops"
        assert _outcome(parse_monitor_table, self._table(sep, rows)) == (
            NonFiniteValue, "column 'CL' at line 32: 'oops' is not a number")
        assert len(calls) == 1

    @pytest.mark.parametrize("text", ["", "# solver export\n  # no columns\n", "\n \t\n\n"],
                             ids=["empty", "comments-only", "blank-only"])
    def test_a_document_without_a_header_is_empty(self, text):
        empty = (MissingTimeColumn, "empty document: no header line found")
        assert _outcome(parse_monitor_table, text) == empty
        assert _outcome(reference_monitor_parse, text) == empty

    def test_the_spaced_table_itself_parses(self):
        series = parse_monitor_table("\n".join(_SPACED_EXPORT) + "\n")
        np.testing.assert_array_equal(series.times, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(series.CD, [2.0, 2.5, 3.0])

    # str.splitlines breaks at each of these too; a monitor line keeps them
    _NOT_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    @pytest.mark.parametrize("text, message", [
        ("# run 1\x0cpage 2\nt,CL\n0,1\n1,x\n", "column 'CL' at line 4: 'x' is not a number"),
        ("t,CL\r0,1\r\r\n1,x\n", "column 'CL' at line 4: 'x' is not a number"),
        *((f"t,CL\n0,1{ch}2,3\n", "row at line 2 has 3 cells, header has 2")
          for ch in _NOT_BREAKS),
    ], ids=["form-feed-in-a-comment", "cr-and-crlf", *(f"U+{ord(ch):04X}" for ch in _NOT_BREAKS)])
    def test_lines_break_at_lf_crlf_and_cr_only(self, text, message):
        assert _outcome(parse_monitor_table, text) == (NonFiniteValue, message)
        assert _outcome(reference_monitor_parse, text) == (NonFiniteValue, message)

    def test_cr_and_crlf_read_as_lf(self):
        lf = _outcome(parse_monitor_table, "t,CL\n0,1\n\n1,2\n2,3")
        assert isinstance(lf, list)
        assert _outcome(parse_monitor_table, "t,CL\r\n0,1\r\r\n1,2\r2,3") == lf


class TestOneSplitGuards:
    """Bodies that one split of the whole text would misread go line by line."""

    @pytest.mark.parametrize("text", [
        "t,CL\n0,1\n1 2\n",                          # a comma body, then a line without one
        "t,CL\n0,1\n1\n",
        "t CL\n0 1\n1,2\n",                          # a whitespace body, then a comma line
        "t CL\n0 1\n1, 2\n",
        "t CL\n0 1\n1,2,3\n",
        "t,CL\n0\n1,2,3\n",                          # ragged rows adding up to whole rows
        "t CL\n0\n1 2 3\n",
        "t,CL,CD\n0,1\n1,2,3,4\n",
        "t,CL\n0,1\x00\n1,2\n",                      # a NUL inside a cell
        "t,CL\n0,1\n1,\x00\n",
        "t CL\n0 1 \x00\n2\n",                       # NUL cells where the row marks would be
        "t,CL\n0,1,\x00\n2\n",
        "t CL\n0\t1\n1\x1f2\n2\xa03\n3\u30004\n",    # whitespace other than spaces
        "t, CL\n0, 1\n1, 2\n",
        "t,CL\n0,1\n",                               # a single data row
        "t CL\n0 1\n",
    ])
    def test_the_reference_agrees(self, text):
        assert _outcome(parse_monitor_table, text) == _outcome(reference_monitor_parse, text)


class TestWriteSeries:
    def _series(self, n=2, channels=("CL", "CD", "Cm")):
        rng = np.random.default_rng(1)
        data = {ch: rng.uniform(-2, 2, size=n) for ch in channels}
        return CoefficientSeries(
            times=np.cumsum(rng.uniform(0.01, 0.2, size=n)),    # non-uniform stamps
            CL=data.get("CL"),
            CD=data.get("CD"),
            Cm=data.get("Cm"),
        )

    def test_line_count(self):
        text = write_series(self._series(n=2))
        assert text.count(b"\n") == 3
        assert text.splitlines()[0] == b"t,CL,CD,CM"

    def test_absent_channel_omitted_from_header(self):
        text = write_series(self._series(channels=("CL", "Cm")))
        assert text.splitlines()[0] == b"t,CL,CM"

    def test_round_trip_bit_exact(self):
        series = self._series(n=17)
        back = parse_monitor_table(write_series(series).decode())
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.CL, series.CL)
        np.testing.assert_array_equal(back.CD, series.CD)
        np.testing.assert_array_equal(back.Cm, series.Cm)

    def test_write_parse_write_byte_stable(self):
        text = write_series(self._series(n=9))
        assert write_series(parse_monitor_table(text.decode())) == text

    @given(
        st.lists(
            st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
            min_size=2, max_size=24,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, values):
        times = np.arange(len(values), dtype=float)
        series = CoefficientSeries(times=times, CL=np.asarray(values))
        text = write_series(series)
        back = parse_monitor_table(text.decode())
        np.testing.assert_array_equal(back.CL, series.CL)
        assert write_series(back) == text

    def test_seventeen_significant_digits(self):
        assert format_value(0.5) == "0.5000000000000000"
        assert format_value(-3.16) == "-3.1600000000000001"
        assert float(format_value(1.2345678901234567e-12)) == 1.2345678901234567e-12


def _per_cell_table(first, column, series):
    """The table writer written out one cell at a time: the reference for the bulk one."""
    channels = series.channels()
    header = [first] + [dio._FILE_LABELS[name] for name in channels]
    rows = (map(format_value, map(float, row)) for row in zip(column, *channels.values()))
    return "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"


def _from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _near_power_of_ten(args) -> float:
    k, step, negative = args
    bits = int(np.array([10.0 ** k]).view(np.uint64)[0]) + step
    return -_from_bits(bits) if negative else _from_bits(bits)


def _dyadic_below_one(args) -> float:
    bits, numerator = args
    return (numerator % 2**bits) / 2**bits


_WRITER_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),   # zeros and subnormals
    st.tuples(st.integers(-32, 17), st.integers(-64, 64), st.booleans()).map(_near_power_of_ten),
    st.tuples(st.floats(-1e6, 1e6), st.integers(1, 15)).map(lambda a: round(*a)),
    # exact expansions below 1, where Dragon4 drops the trailing zeros
    st.tuples(st.integers(1, 60), st.integers(0, 2**60)).map(_dyadic_below_one),
    # round-downs below 1, where it keeps them
    st.tuples(st.floats(-1.0, 1.0), st.integers(1, 15)).map(lambda a: round(*a)),
)

# y = |x| * 10**(16 - floor(log10|x|)) lies within 1e-9 of a tie, but not on
# it, for each of these; and within 1e-9 of an integer ending in 0, below 1,
# for the second six.  Both must fall back (checked with exact fractions).
_NEAR_TIES = [2.639689536635325e-07, 1.9698652846869435e-06, 1.0387132729207566e-06,
              3.2640823032274e-07, 2.9376644010027554e-08, 7.73695579240457e-06]
_NEAR_INTEGERS = [7.818691009755606e-06, 2.008353873727409e-06, 1.536435332410746e-05,
                  4.036741811194577e-06, 3.909345504877803e-06, 1.59065584799012e-05]


def _per_cell_block(block) -> str:
    return "".join(",".join(map(format_value, row)) + "\n" for row in block)


class TestBulkWriter:
    @given(st.lists(_WRITER_VALUES, min_size=1, max_size=200), st.integers(1, 4))
    @example([1e-29, 1e-30, 1e-31, 1e16, 9999999999999998.0, 1.5e16, 2.0**-25, 0.5,
              0.662004970148938, -1.321048632913019e-10, 9.999999999999999e-05,
              float("nan"), float("inf"), -float("inf"), 5e-324, -0.0], 4)
    @settings(max_examples=200, deadline=None)
    def test_cells_equal_format_value(self, values, cols):
        values = values + [0.0] * (-len(values) % cols)
        block = np.array(values, dtype=np.float64).reshape(-1, cols)
        assert dio._text(dio._cells(block), block) == _per_cell_block(block).encode()

    @pytest.mark.parametrize("shift", [-1e-9, 1e-9])
    def test_cells_do_not_depend_on_how_log10_rounds(self, monkeypatch, shift):
        # a log10 that rounds the other way next to a power of ten picks a
        # scale one too high or too low; those cells must fall back
        values = [_near_power_of_ten((k, step, negative)) for k in range(-30, 16)
                  for step in (-2, -1, 0, 1, 2) for negative in (False, True)]
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        block = np.array(values).reshape(-1, 2)
        assert dio._text(dio._cells(block), block) == _per_cell_block(block).encode()

    def test_a_block_of_fallbacks_leaves_no_placeholder(self, monkeypatch):
        for x in _NEAR_TIES + _NEAR_INTEGERS:
            e = math.floor(math.log10(x))
            y = Fraction(x) * Fraction(10) ** (16 - e)
            frac = y - math.floor(y)
            if x in _NEAR_TIES:
                assert 0 < abs(frac - Fraction(1, 2)) < Fraction(1, 10**9)
            else:
                assert 0 < min(frac, 1 - frac) < Fraction(1, 10**9)
                assert e < 0 and round(y) % 10 == 0
        values = [float("nan"), float("inf"), -float("inf"), 5e-324, -2.2250738585072014e-308,
                  1.5e16, -1e300, 2.0**-25, -3 * 2.0**-25, 123 + 2.0**-15,
                  *_NEAR_TIES, *[-x for x in _NEAR_INTEGERS]]
        block = np.array(values).reshape(-1, 2)
        calls = []
        monkeypatch.setattr(dio, "format_value", lambda v: calls.append(v) or format_value(v))
        text = dio._text(dio._cells(block), block)
        assert len(calls) == len(values)
        assert b"%" not in text
        assert text == _per_cell_block(block).encode()

    @pytest.mark.parametrize("rows", [1, dio._BLOCK_ROWS - 1, dio._BLOCK_ROWS, dio._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("channels", [("CL", "CD", "Cm"), ("Cm",)])
    def test_table_equals_the_per_cell_writer(self, rows, channels):
        rng = np.random.default_rng(rows)
        values = {ch: rng.normal(0.0, 10.0 ** rng.integers(-20, 8), rows) for ch in channels}
        values[channels[0]][::7] = np.round(values[channels[0]][::7], 3)   # trailing zeros
        values[channels[-1]][::5] = 0.0
        series = CoefficientSeries(times=np.arange(rows) * 0.01, **values)
        alpha = np.degrees(rng.uniform(-0.2, 0.2, rows))
        assert dio._numeric_table("t", series.times, series) == \
            _per_cell_table("t", series.times, series).encode()
        assert dio._numeric_table("alpha_deg", alpha, series) == \
            _per_cell_table("alpha_deg", alpha, series).encode()

    def test_golden_bytes(self):
        # the file contract: format_value applied cell by cell
        values = [0.5, 1.0, -0.0, 0.662004970148938, -1.321048632913019e-10,
                  8.253585688640879e-17, 1e-31, 5e-324, 1.5e16, 9.999999999999999e-05]
        series = CoefficientSeries(times=np.arange(10) * 0.1, CL=values, Cm=values[::-1])
        subnormal = "0." + "0" * 323 + "49406564584124654"
        assert write_series(series) == (
            "t,CL,CM\n"
            "0.0000000000000000,0.5000000000000000,0.000099999999999999991\n"
            "0.10000000000000001,1.0000000000000000,15000000000000000.\n"
            f"0.20000000000000001,-0.0000000000000000,{subnormal}\n"
            "0.30000000000000004,0.6620049701489380,0.00000000000000000000000000000010000000000000001\n"
            "0.40000000000000002,-0.0000000001321048632913019,0.000000000000000082535856886408790\n"
            "0.5000000000000000,0.000000000000000082535856886408790,-0.0000000001321048632913019\n"
            "0.60000000000000009,0.00000000000000000000000000000010000000000000001,0.6620049701489380\n"
            f"0.70000000000000007,{subnormal},-0.0000000000000000\n"
            "0.80000000000000004,15000000000000000.,1.0000000000000000\n"
            "0.90000000000000002,0.000099999999999999991,0.5000000000000000\n"
        ).encode()


def _loop_case(plant, spc=64, cycles=3):
    """``cycles`` x ``spc`` samples of ``plant`` in incidence mode: (incidence in deg, series)."""
    cond = FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238)
    spec = agard_ct2_preset(mode=OscillationMode.ALPHA, cycles=cycles, samples_per_cycle=spc)
    schedule = make_schedule(spec, cond)
    return np.degrees(schedule.relative_aoa), simulate(plant, schedule, cond)


_LINEAR = QuasiSteadyPlant(CL0=0.1, CL_alpha=5.0, CL_q=4.0, CL_alphadot=6.0, CD0=0.02,
                           CD_alpha=0.4, Cm_alpha=-0.5, Cm_q=-3.0, Cm_alphadot=-1.0)


class TestRepeatedRows:
    """A table that repeats a leading block of rows formats that block once."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        """The row count of every block handed to the cell formatter ``_cells``."""
        counts = []
        cells = dio._cells
        monkeypatch.setattr(dio, "_cells", lambda b: counts.append(len(b)) or cells(b))
        return counts

    @staticmethod
    def _table(column, series) -> bytes:
        table = dio._numeric_table("alpha_deg", column, series)
        assert table == _per_cell_table("alpha_deg", column, series).encode()
        return table

    @pytest.mark.parametrize("plant", [_LINEAR, FlatPlatePlant()], ids=lambda p: p.name)
    def test_a_loop_table_formats_one_cycle(self, plant, formatted):
        self._table(*_loop_case(plant, spc=720, cycles=3))
        assert formatted == [720]        # one cycle of three

    def test_a_cycle_longer_than_a_block_is_formatted_in_blocks(self, formatted):
        alpha, series = _loop_case(_LINEAR, spc=dio._BLOCK_ROWS + 1, cycles=2)
        self._table(alpha, series)
        assert formatted == [dio._BLOCK_ROWS, 1]

    def test_a_last_row_one_ulp_off_is_formatted_row_by_row(self, formatted):
        alpha, series = _loop_case(_LINEAR)
        alpha[-1] = np.nextafter(alpha[-1], np.inf)
        self._table(alpha, series)
        assert sum(formatted) == 3 * 64

    def test_a_negative_zero_is_not_a_repeat_of_zero(self, formatted):
        alpha, series = _loop_case(FlatPlatePlant())
        cd = series.CD.copy()
        assert not cd.any() and not np.signbit(cd).any()
        cd[64 + 5] = -0.0
        table = self._table(alpha, replace(series, CD=cd))
        assert sum(formatted) == 3 * 64
        assert table.count(b",-0.0000000000000000,") == 1

    def test_a_one_row_table(self, formatted):
        self._table(np.array([3.16]), CoefficientSeries(times=[0.0], CL=[0.5]))
        assert formatted == [1]

    @pytest.mark.parametrize("cl", [
        [0.5, 1.0, 2.0] * 3 + [0.5],                  # row 0 recurs at 3, 6, 9: none divides 10
        [0.5, 1.0, 2.0, 3.0, 4.0, 0.5, 1.0, 2.0, 3.0, 5.0],   # at 5, which does not repeat
    ], ids=["at-a-non-divisor", "at-a-divisor-that-does-not-repeat"])
    def test_a_row_zero_that_recurs_without_a_period(self, cl, formatted):
        self._table(np.zeros(10), CoefficientSeries(times=np.arange(10.0), CL=cl))
        assert formatted == [10]

    def test_a_constant_table_formats_one_row(self, formatted):
        self._table(np.full(7, 3.16), CoefficientSeries(times=np.arange(7.0), CL=np.full(7, 0.5)))
        assert formatted == [1]


# Row counts with a period longer than a block, a block boundary inside a period of 700, and
# (past the first block) more rows than one call formats for three of four columns.
_PERIOD_ROWS = [1, 12, 4 * 700, 2 * (dio._BLOCK_ROWS + 6)]
_TABLE_VALUES = st.one_of(_WRITER_VALUES.filter(math.isfinite),
                          st.sampled_from([*_NEAR_TIES, -0.0, 0.0]))


@st.composite
def periodic_columns(draw):
    """A row count and, for each of 2-4 columns, a period dividing it and a pool of values."""
    rows = draw(st.sampled_from(_PERIOD_ROWS))
    divisors = [p for p in range(1, rows + 1) if rows % p == 0]
    column = st.tuples(st.sampled_from(divisors), st.lists(_TABLE_VALUES, min_size=1, max_size=5))
    return rows, draw(st.lists(column, min_size=2, max_size=4))


class TestRepeatingColumns:
    """Within a table's period, a column that repeats sooner is formatted only in the blocks
    that hold its first period."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        """A copy of every block handed to the cell formatter ``_cells``."""
        blocks = []
        cells = dio._cells
        monkeypatch.setattr(dio, "_cells", lambda b: blocks.append(b.copy()) or cells(b))
        return blocks

    @staticmethod
    def _assert_formatted(blocks, columns, others):
        """``blocks`` are every column of the first block's rows, then every later row of the
        ``others`` columns alone, bit for bit."""
        head = blocks[0]
        assert head.shape == (dio._BLOCK_ROWS, columns.shape[1])
        assert head.tobytes() == columns[:dio._BLOCK_ROWS].tobytes()
        assert np.vstack(blocks[1:]).tobytes() == columns[dio._BLOCK_ROWS:, others].tobytes()

    @given(periodic_columns(), st.integers(0, 2**32 - 1))
    @example((2 * (dio._BLOCK_ROWS + 6), [(1, [0.5]), (dio._BLOCK_ROWS + 6, [_NEAR_TIES[0], -0.0, 1.0]),
                                          (2 * (dio._BLOCK_ROWS + 6), [1.0, 2.0]), (515, [-0.0, 0.0])]), 1)
    @example((4 * 700, [(4 * 700, [0.25, 3.0]), (700, [1.0, -0.0]), (4 * 700, [1.0, 2.0]),
                        (4 * 700, [_NEAR_TIES[2], 7.0])]), 2)                 # one repeating column
    @example((12, [(3, [1.0, 2.0]), (4, [0.5, -0.0, _NEAR_TIES[1]])]), 3)     # lcm 12: all repeat
    @example((4 * 700, [(700, [0.25, 3.0]), (350, [1.0, 2.0])]), 4)          # repeats as a whole
    # lcm 2 800 and no period-long column: rows 1 024-2 799 come from repeats alone
    @example((4 * 700, [(400, [0.25, _NEAR_TIES[2]]), (700, [1.0, -0.0])]), 7)
    @example((1, [(1, [0.1]), (1, [2.0])]), 5)
    # repeats as a whole, with a period above a block and one shorter column
    @example((3 * (dio._BLOCK_ROWS + 6), [(dio._BLOCK_ROWS + 6, [0.25, _NEAR_TIES[3], -0.0]),
                                          (1, [0.0]), (dio._BLOCK_ROWS + 6, [1.0, 2.0])]), 6)
    @settings(max_examples=40, deadline=None)
    def test_the_table_equals_the_per_cell_writer(self, case, seed):
        rows, columns = case
        rng = np.random.default_rng(seed)
        table = np.column_stack([np.tile(rng.choice(np.array(pool), period), rows // period)
                                 for period, pool in columns])
        series = CoefficientSeries(times=np.arange(rows, dtype=float),
                                   **dict(zip(("CL", "CD", "Cm"), table.T[1:])))
        assert dio._numeric_table("alpha_deg", table[:, 0], series) == \
            _per_cell_table("alpha_deg", table[:, 0], series).encode()

    @pytest.mark.parametrize("pitch_axis", [-0.5, 0.0, 0.25])
    def test_an_indicial_loop_table_formats_cl_in_every_row(self, pitch_axis, formatted):
        # alpha_deg and a drag polar without an induced term repeat each cycle; CL has the
        # start-up transient, and so has Cm unless (a + 0.5) * cl_circ vanishes at a = -0.5
        plant = IndicialPlant(pitch_axis=pitch_axis, CD0=0.02, CD_alpha=0.4)
        alpha, series = _loop_case(plant, spc=720, cycles=3)
        table = dio._numeric_table("alpha_deg", alpha, series)
        assert table == _per_cell_table("alpha_deg", alpha, series).encode()
        columns = np.column_stack([alpha, series.CL, series.CD, series.Cm])
        self._assert_formatted(formatted, columns, [1] if pitch_axis == -0.5 else [1, 3])

    def test_a_whole_repeating_table_splices_inside_its_period(self, formatted):
        # a flat plate's CD is zero, period 1; the other columns repeat each cycle, which is
        # longer than a block: past the first block only those three are formatted
        alpha, series = _loop_case(FlatPlatePlant(), spc=dio._BLOCK_ROWS + 6, cycles=3)
        assert not series.CD.any()
        table = dio._numeric_table("alpha_deg", alpha, series)
        assert table == _per_cell_table("alpha_deg", alpha, series).encode()
        assert [block.shape for block in formatted] == [(dio._BLOCK_ROWS, 4), (6, 3)]

    def test_a_head_that_holds_the_whole_period_is_formatted_in_full(self, formatted):
        # a flat plate's CD is zero, period 1; the one 720-row block holds it and the period
        alpha, series = _loop_case(FlatPlatePlant(), spc=720, cycles=3)
        table = dio._numeric_table("alpha_deg", alpha, series)
        assert table == _per_cell_table("alpha_deg", alpha, series).encode()
        assert [block.shape for block in formatted] == [(720, 4)]

    def test_a_series_formats_its_times_in_every_row(self, formatted):
        _, series = _loop_case(_LINEAR, spc=720, cycles=3)
        assert write_series(series) == _per_cell_table("t", series.times, series).encode()
        columns = np.column_stack([series.times, *series.channels().values()])
        self._assert_formatted(formatted, columns, [0])

    def test_a_call_formats_at_most_a_blocks_cells(self, formatted):
        # past the first block, the one other column is formatted four blocks' rows at a time
        _, series = _loop_case(_LINEAR, spc=720, cycles=8)
        assert write_series(series) == _per_cell_table("t", series.times, series).encode()
        assert [block.shape for block in formatted] == [
            (dio._BLOCK_ROWS, 4), (4 * dio._BLOCK_ROWS, 1), (8 * 720 - 5 * dio._BLOCK_ROWS, 1)]

    def test_fallbacks_are_filled_in_row_order_across_spliced_columns(self, monkeypatch):
        # one row falls back in an other column, a repeating column, and an other column again
        first = np.arange(2 * dio._BLOCK_ROWS, dtype=float)
        cl = np.tile([0.3, _NEAR_TIES[0]], dio._BLOCK_ROWS)
        cd = np.arange(2 * dio._BLOCK_ROWS, dtype=float)
        row = dio._BLOCK_ROWS + 1                 # past the first block: a spliced row
        first[row], cd[row] = 1e300, -1e300
        series = CoefficientSeries(times=np.arange(2.0 * dio._BLOCK_ROWS), CL=cl, CD=cd)
        calls = []
        monkeypatch.setattr(dio, "format_value", lambda v: calls.append(v) or format_value(v))
        table = dio._numeric_table("alpha_deg", first, series)
        assert calls[dio._BLOCK_ROWS // 2:dio._BLOCK_ROWS // 2 + 4] == [
            1e300, _NEAR_TIES[0], -1e300, _NEAR_TIES[0]]
        assert len(calls) == dio._BLOCK_ROWS + 2
        assert b"%" not in table
        assert table == _per_cell_table("alpha_deg", first, series).encode()


@pytest.fixture(scope="module")
def indicial_case():
    """6 cycles x 720 samples of the indicial plant at the AGARD CT2 point: (incidence, series)."""
    cond = FlightCondition(freestream_speed=100.0, density=1.225, ref_chord=0.2299,
                           ref_span=0.6096, ref_area=0.1238)
    spec = agard_ct2_preset(mode=OscillationMode.ALPHA, cycles=6)
    schedule = make_schedule(spec, cond)
    plant = IndicialPlant(pitch_axis=-0.5, CD0=0.02, CD_alpha=0.4)
    return schedule.relative_aoa, simulate(plant, schedule, cond)


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


class TestRealTables:
    # captured from the cell-by-cell writer; the inputs' own digest tells a
    # libm that samples the case differently from a change in the writer
    INPUTS = "f60ba771d269df4647019004ebcc63d761301d54c6d8fd7eaaf4eaf98644da51"
    LOOP_TABLE = "e278952c56c97ab5c80e1eb48aeed68a1e196a65c9886feaf0cc917bec200487"
    SERIES = "9fd006a3661de6cd6c7c8f51da5ef34c11bbf44d7b02a97113fced102298964f"

    def test_golden_digests(self, indicial_case):
        incidence, series = indicial_case
        inputs = np.column_stack([series.times, incidence, *series.channels().values()])
        if _sha256(inputs.tobytes()) != self.INPUTS:
            pytest.skip("this platform's libm samples the case differently")
        assert _sha256(write_loop_table(incidence, series)) == self.LOOP_TABLE
        assert _sha256(write_series(series)) == self.SERIES

    def test_no_cell_of_a_real_table_falls_back(self, indicial_case, monkeypatch):
        calls = []
        monkeypatch.setattr(dio, "format_value", lambda v: calls.append(v) or format_value(v))
        incidence, series = indicial_case
        assert len(series) == 6 * 720
        write_loop_table(incidence, series)
        assert calls == []

    def test_real_tables_are_split_in_one_pass(self, indicial_case, monkeypatch):
        def per_line(data):
            raise AssertionError("split line by line")
        monkeypatch.setattr(dio, "_split_lines", per_line)
        _, series = indicial_case
        columns = [series.times, *series.channels().values()]
        want = [column.tobytes() for column in columns]
        rows = [[repr(v) for v in row] for row in zip(*(c.tolist() for c in columns))]

        def export(sep, header):
            lines = ["# solver monitor export", sep.join(["iter", *header])]
            for i, row in enumerate(rows):
                lines += ["# checkpoint"] * (i % 500 == 0) + [sep.join([str(i), *row])]
            return "\n".join(lines) + "\n"

        header = ["flow-time", "lift-coeff", "drag-coeff", "pitch-mom-coeff"]
        for text in [write_series(series).decode(), export(",", header), export(", ", header),
                     export("  ", header)]:
            parsed = parse_monitor_table(text)
            assert [column.tobytes() for column in
                    [parsed.times, *parsed.channels().values()]] == want


class TestWriteReport:
    @pytest.fixture
    def report(self, linear_plant, condition, agard_alpha_spec):
        plan = SweepPlan(
            scenarios=tuple(builtin_scenarios()),
            oscillation=agard_alpha_spec,
            condition=condition,
            plant=linear_plant,
        )
        return run_sweep(plan)

    def test_row_structure(self, report):
        machine, human = write_report(report)
        lines = machine.splitlines()
        assert lines[0].startswith("scenario,channel,V,k,")
        assert len(lines) == 1 + 3 * 3  # header + scenarios x channels
        assert "transition-beginning" in lines[1]
        assert "STATIC_ONLY" in lines[1]

    def test_hover_dynamic_cells_are_empty_not_zero(self, report):
        machine, _ = write_report(report)
        header = machine.splitlines()[0].split(",")
        row = dict(zip(header, machine.splitlines()[1].split(",")))
        assert row["status"] == "STATIC_ONLY"
        assert row["C_alpha"] == ""
        assert row["C_q"] == ""
        assert row["C_alphadot"] == ""
        assert row["damping_sum"] == ""
        assert row["loop_area"] == ""
        assert row["trim"] != ""  # the static value is real, not omitted

    def test_loop_area_sign_matches_orientation(self, report):
        machine, _ = write_report(report)
        header = machine.splitlines()[0].split(",")
        mid = report.results[1]
        for line in machine.splitlines()[1:]:
            row = dict(zip(header, line.split(",")))
            if row["scenario"] == "mid-transition":
                # the cell is the signed area itself; its sign is the loop's direction
                assert float(row["loop_area"]) == mid.loops[row["channel"]]

    def test_human_summary_mentions_every_scenario(self, report):
        _, human = write_report(report)
        for scenario in builtin_scenarios():
            assert scenario.name in human
        assert "per radian" in human

    def test_failed_reason_lands_in_status(self, report):
        from dynderiv import ScenarioResult, SweepStatus
        from dynderiv.scenarios import SweepReport

        failed = ScenarioResult(
            scenario=builtin_scenarios()[2],
            status=SweepStatus.FAILED,
            failure_reason="RuntimeError: boom, with commas",
        )
        broken = SweepReport(results=report.results[:2] + (failed,), plan=report.plan)
        machine, human = write_report(broken)
        last = machine.splitlines()[-1]
        assert last.endswith("FAILED(RuntimeError: boom; with commas)")
        assert "boom" in human

    def test_a_channel_the_result_lacks_is_an_empty_row(self, report):
        mid = report.results[1]
        kept = {name: ch for name, ch in mid.derivatives.channels.items() if name != "CD"}
        lacking = replace(mid, derivatives=replace(mid.derivatives, channels=kept),
                          loops={name: area for name, area in mid.loops.items() if name != "CD"})
        machine, human = write_report(replace(report, results=(lacking,)))
        rows = {row["channel"]: row for row in csv.DictReader(io.StringIO(machine))}
        assert list(rows) == ["CL", "CD", "Cm"]
        assert [c for c, cell in rows["CD"].items() if cell] == ["scenario", "channel", "V", "k",
                                                                  "status"]
        assert "\n  CL " in human and "\n  CD " not in human

    def test_v_is_the_flown_speed_in_every_row(self, linear_plant, condition, agard_alpha_spec):
        class ExplodingPlant(QuasiSteadyPlant):
            def coefficient_histories(self, schedule, cond):
                if cond.freestream_speed == 50.0:
                    raise DomainError("freestream_speed", "blown up on purpose")
                return super().coefficient_histories(schedule, cond)

        scenarios = (
            TransitionScenario("flies", 100.0, 2.5, 33.0),
            TransitionScenario("fails", 100.0, 30.0, 40.0),     # flies 50 m/s: fails
        )
        plan = SweepPlan(scenarios, agard_alpha_spec, condition,
                         ExplodingPlant(**asdict(linear_plant)), speed_basis="total")
        report = run_sweep(plan)
        assert [r.status for r in report.results] == [SweepStatus.OK, SweepStatus.FAILED]
        rows = list(csv.DictReader(io.StringIO(write_report(report)[0])))
        for s in scenarios:
            speeds = {float(row["V"]) for row in rows if row["scenario"] == s.name}
            assert speeds == {math.hypot(s.forward_velocity, s.vertical_velocity)}


class TestWriteLoopTable:
    def test_degrees_and_channels(self, linear_plant, condition, agard_alpha_spec):
        from dynderiv import make_schedule, simulate, write_loop_table

        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        text = write_loop_table(schedule.relative_aoa, series).decode()
        lines = text.splitlines()
        assert lines[0] == "alpha_deg,CL,CD,CM"
        assert len(lines) == 1 + len(series)
        first_alpha = float(lines[1].split(",")[0])
        assert first_alpha == pytest.approx(3.16, rel=1e-9)

    def test_tables_are_ascii_bytes_with_lf_line_ends(self):
        values = [0.5, -1.321048632913019e-10, 5e-324, 1.5e16, -2.5e-7]   # two fall back
        series = CoefficientSeries(times=np.arange(5) * 0.1, CL=values, Cm=values[::-1])
        for table in [write_series(series), write_loop_table(np.radians(values), series)]:
            assert isinstance(table, bytes)
            text = table.decode("ascii")
            assert "\r" not in text
            assert text.endswith("\n") and text.count("\n") == 1 + len(series)

    @pytest.mark.parametrize("radians", [np.nan, np.inf, -np.inf, 1e308],
                             ids=["nan", "inf", "-inf", "inf-in-degrees"])
    def test_non_finite_incidence_rejected(self, radians):
        # loop_metrics refuses the same pair; 1e308 rad is finite but overflows in degrees
        series = CoefficientSeries(times=[0.0, 1.0], CL=[0.5, 0.6])
        with pytest.raises(NonFiniteData, match="incidence"):
            write_loop_table(np.array([0.1, radians]), series)

    def test_length_mismatch_rejected(self, linear_plant, condition, agard_alpha_spec):
        from dynderiv import make_schedule, simulate, write_loop_table

        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        with pytest.raises(ValueError):
            write_loop_table(schedule.relative_aoa[:-1], series)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write(target, b"one\n")
        atomic_write(target, b"two\n")
        assert target.read_bytes() == b"two\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.csv"]
        assert leftovers == []

    def test_writes_the_bytes_unchanged(self, tmp_path):
        data = "crlf\r\nlf\ncr\r\u00b0 caf\u00e9 \u2028\n".encode()
        target = tmp_path / "out.csv"
        atomic_write(target, data)
        assert target.read_bytes() == data

    def test_a_str_is_refused(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"kept\n")
        with pytest.raises(TypeError):
            atomic_write(target, "two\n")
        assert target.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.fixture
    def umask_022(self):
        previous = os.umask(0o022)
        yield
        os.umask(previous)

    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path, umask_022):
        with open(tmp_path / "plain.csv", "w") as fh:
            fh.write("one\n")
        atomic_write(tmp_path / "out.csv", b"one\n")
        assert stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode) == 0o644
        assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == 0o644

    def test_a_replaced_file_keeps_its_mode(self, tmp_path, umask_022):
        target = tmp_path / "out.csv"
        target.write_text("one\n")
        target.chmod(0o640)
        atomic_write(target, b"two\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_bytes() == b"two\n"
