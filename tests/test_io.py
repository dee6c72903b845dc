"""Monitor ingestion, canonical series text, report emission."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynderiv import (
    CoefficientSeries,
    MissingTimeColumn,
    MonitorError,
    NoCoefficientColumn,
    NonFiniteValue,
    NonMonotonicTime,
    Orientation,
    QuasiSteadyPlant,
    SweepPlan,
    SweepStatus,
    TransitionScenario,
    atomic_write,
    builtin_scenarios,
    parse_monitor_table,
    run_sweep,
    write_report,
    write_series,
)
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

    def test_unknown_alias_target_is_a_monitor_error(self):
        with pytest.raises(MonitorError, match="bogus"):
            parse_monitor_table("t,CL\n0,1\n", extra_aliases={"t": "bogus"})


class TestWriteSeries:
    def _series(self, n=2, channels=("CL", "CD", "Cm")):
        rng = np.random.default_rng(1)
        data = {ch: rng.uniform(-2, 2, size=n) for ch in channels}
        return CoefficientSeries(
            times=np.arange(n) * 0.125,
            CL=data.get("CL"),
            CD=data.get("CD"),
            Cm=data.get("Cm"),
        )

    def test_line_count(self):
        text = write_series(self._series(n=2))
        assert text.count("\n") == 3
        assert text.splitlines()[0] == "t,CL,CD,CM"

    def test_absent_channel_omitted_from_header(self):
        text = write_series(self._series(channels=("CL", "Cm")))
        assert text.splitlines()[0] == "t,CL,CM"

    def test_round_trip_bit_exact(self):
        series = self._series(n=17)
        back = parse_monitor_table(write_series(series))
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.CL, series.CL)
        np.testing.assert_array_equal(back.CD, series.CD)
        np.testing.assert_array_equal(back.Cm, series.Cm)

    def test_write_parse_write_byte_stable(self):
        text = write_series(self._series(n=9))
        assert write_series(parse_monitor_table(text)) == text

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
        back = parse_monitor_table(text)
        np.testing.assert_array_equal(back.CL, series.CL)
        assert write_series(back) == text

    def test_seventeen_significant_digits(self):
        assert format_value(0.5) == "0.5000000000000000"
        assert format_value(-3.16) == "-3.1600000000000001"
        assert float(format_value(1.2345678901234567e-12)) == 1.2345678901234567e-12


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
            if row["scenario"] == "mid-transition" and row["loop_area"]:
                area = float(row["loop_area"])
                orientation = mid.loops[row["channel"]].orientation
                if area < 0:
                    assert orientation is Orientation.CLOCKWISE
                elif area > 0:
                    assert orientation is Orientation.COUNTERCLOCKWISE

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

    def test_v_is_the_flown_speed_in_every_row(self, linear_plant, condition, agard_alpha_spec):
        class ExplodingPlant(QuasiSteadyPlant):
            def coefficient_histories(self, schedule, cond):
                if cond.freestream_speed == 50.0:
                    raise RuntimeError("blown up on purpose")
                return super().coefficient_histories(schedule, cond)

        scenarios = (
            TransitionScenario("flies", 100.0, 2.5, 33.0),
            TransitionScenario("fails", 100.0, 30.0, 40.0),     # flies 50 m/s: fails
        )
        plan = SweepPlan(scenarios, agard_alpha_spec, condition,
                         ExplodingPlant(linear_plant.coefficients), speed_basis="total")
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
        text = write_loop_table(schedule.relative_aoa, series)
        lines = text.splitlines()
        assert lines[0] == "alpha_deg,CL,CD,CM"
        assert len(lines) == 1 + len(series)
        first_alpha = float(lines[1].split(",")[0])
        assert first_alpha == pytest.approx(3.16, rel=1e-9)

    def test_length_mismatch_rejected(self, linear_plant, condition, agard_alpha_spec):
        from dynderiv import make_schedule, simulate, write_loop_table

        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        with pytest.raises(ValueError):
            write_loop_table(schedule.relative_aoa[:-1], series)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write(target, "one\n")
        atomic_write(target, "two\n")
        assert target.read_text() == "two\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.csv"]
        assert leftovers == []
