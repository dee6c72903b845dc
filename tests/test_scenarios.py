"""Scenario sweeps: statuses, round trips, trends, determinism."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynderiv import (
    AGARD_CT2_MACH,
    FlatPlatePlant,
    FlightCondition,
    InsufficientSamples,
    IndicialPlant,
    OscillationMode,
    OscillationSpec,
    QuasiSteadyCoefficients,
    QuasiSteadyPlant,
    SweepPlan,
    SweepStatus,
    TooFewPoints,
    TransitionScenario,
    agard_ct2_preset,
    builtin_scenarios,
    identify_modes,
    omega_from_k,
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    run_sweep,
    trend_table,
    write_report,
)


class TestBuiltinScenarios:
    def test_values(self):
        scenarios = builtin_scenarios()
        assert [s.name for s in scenarios] == [
            "transition-beginning", "mid-transition", "transition-end",
        ]
        assert (scenarios[0].altitude, scenarios[0].vertical_velocity,
                scenarios[0].forward_velocity) == (15.0, 0.0, 0.0)
        assert (scenarios[1].altitude, scenarios[1].vertical_velocity,
                scenarios[1].forward_velocity) == (200.0, 2.5, 33.0)
        assert (scenarios[2].altitude, scenarios[2].vertical_velocity,
                scenarios[2].forward_velocity) == (450.0, 0.0, 66.0)

    def test_climb_incidence_helper(self):
        mid = builtin_scenarios()[1]
        assert mid.climb_incidence() == pytest.approx(math.atan2(2.5, 33.0), rel=1e-15)


class TestAgardPreset:
    def test_reference_values(self):
        spec, mach = agard_ct2_preset()
        assert spec.reduced_frequency == 0.0811
        assert mach == AGARD_CT2_MACH == 0.6
        assert spec.mean_incidence == pytest.approx(0.05515, abs=1e-5)
        assert spec.mean_incidence == math.radians(3.16)
        assert spec.body_amplitude == math.radians(4.59)

    def test_omega_with_caller_geometry(self, condition):
        spec, _ = agard_ct2_preset()
        assert omega_from_k(spec.reduced_frequency, condition) == pytest.approx(70.55, abs=0.01)


def _plan(plant, condition, spec, **kwargs):
    return SweepPlan(
        scenarios=tuple(builtin_scenarios()),
        oscillation=spec,
        condition=condition,
        plant=plant,
        **kwargs,
    )


# module-level: hypothesis tests must not share function-scoped fixtures
COND = FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238)


def _within(measured, want, rel=1e-9):
    return abs(measured - want) <= rel * max(abs(want), 1.0)


class TestIdentifyModes:
    """The single pipeline, over the parameter range the code accepts."""

    @given(
        values=st.lists(st.floats(-20.0, 20.0), min_size=11, max_size=11),
        k=st.floats(0.01, 0.5),
        amp_deg=st.floats(0.1, 10.0),
        mean_deg=st.floats(-10.0, 10.0),
        cycles=st.integers(1, 3),
        spp=st.integers(8, 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_quasi_steady_recovered(self, values, k, amp_deg, mean_deg, cycles, spp):
        p = QuasiSteadyCoefficients(*values)
        spec = OscillationSpec.from_degrees(OscillationMode.Q, mean_deg, amp_deg, k, cycles, spp)
        merged, (schedule, series) = identify_modes(QuasiSteadyPlant(p), spec, COND)
        assert merged.provenance == ("alpha", "q")
        assert schedule.spec.mode is OscillationMode.ALPHA and len(series) == cycles * spp
        injected = {
            "CL": (p.CL0 + p.CL_alpha * spec.mean_incidence, p.CL_alpha, p.CL_q, p.CL_alphadot),
            "CD": (p.CD0 + p.CD_alpha * spec.mean_incidence, p.CD_alpha, p.CD_q, 0.0),
            "Cm": (p.Cm0 + p.Cm_alpha * spec.mean_incidence, p.Cm_alpha, p.Cm_q, p.Cm_alphadot),
        }
        for channel, (trim, slope, rate, adot) in injected.items():
            ch = merged.channels[channel]
            assert _within(ch.trim_value, trim), (channel, "trim")
            assert _within(ch.static_slope, slope), (channel, "C_alpha")
            assert _within(ch.rate_derivative, rate), (channel, "C_q")
            assert _within(ch.aoa_rate_derivative, adot), (channel, "C_alphadot")
            assert _within(ch.damping_sum, rate + adot), (channel, "damping sum")

    @given(a=st.floats(-1.0, 1.0), k=st.floats(0.02, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_flat_plate_matches_analytic_loads(self, a, k):
        spec, _ = agard_ct2_preset(cycles=1, samples_per_cycle=64)
        spec = dataclasses.replace(spec, reduced_frequency=k)
        merged, _ = identify_modes(FlatPlatePlant(pitch_axis=a), spec, COND)
        pitch, qmode = pitch_oscillation_loads(k, a), q_mode_oscillation_loads(k, a)
        for channel, field in (("CL", "lift"), ("Cm", "moment")):
            h_alpha, h_q = getattr(pitch, field), getattr(qmode, field)
            ch = merged.channels[channel]
            assert _within(ch.static_slope, h_alpha.real), (channel, "C_alpha")
            assert _within(ch.rate_derivative, h_q.imag / k), (channel, "C_q")
            assert _within(ch.aoa_rate_derivative, (h_alpha.imag - h_q.imag) / k), (channel, "C_alphadot")

    def test_single_mode_runs_alone(self, linear_plant, condition, agard_alpha_spec):
        dset, incidence = identify_modes(linear_plant, agard_alpha_spec, condition,
                                         modes=(OscillationMode.Q,))
        assert dset.provenance == ("q",) and incidence is None
        assert dset.channels["Cm"].rate_derivative == pytest.approx(-3.0, rel=1e-9)


class TestRunSweep:
    def test_builtin_statuses(self, linear_plant, condition, agard_alpha_spec):
        report = run_sweep(_plan(linear_plant, condition, agard_alpha_spec))
        assert [r.status for r in report.results] == [
            SweepStatus.STATIC_ONLY, SweepStatus.OK, SweepStatus.OK,
        ]

    def test_hover_reports_trim_but_no_dynamics(self, linear_plant, condition, agard_alpha_spec):
        report = run_sweep(_plan(linear_plant, condition, agard_alpha_spec))
        hover = report.results[0]
        ch = hover.derivatives.channels["CL"]
        p = linear_plant.coefficients
        assert ch.trim_value == pytest.approx(
            p.CL0 + p.CL_alpha * agard_alpha_spec.mean_incidence, rel=1e-12
        )
        assert ch.static_slope is None
        assert ch.rate_derivative is None
        assert ch.damping_sum is None
        assert hover.loops is None

    def test_injected_rate_derivative_round_trip(self, linear_plant, condition, agard_alpha_spec):
        report = run_sweep(_plan(linear_plant, condition, agard_alpha_spec))
        mid = report.results[1]
        assert mid.scenario.name == "mid-transition"
        cm = mid.derivatives.channels["Cm"]
        assert cm.rate_derivative == pytest.approx(-3.0, rel=1e-9)
        assert cm.static_slope == pytest.approx(-1.2, rel=1e-9)
        assert cm.aoa_rate_derivative == pytest.approx(-1.2, rel=1e-9)

    def test_loop_area_present_for_ok_rows(self, linear_plant, condition, agard_alpha_spec):
        report = run_sweep(_plan(linear_plant, condition, agard_alpha_spec))
        mid = report.results[1]
        assert set(mid.loops) == {"CL", "CD", "Cm"}
        # negative pitch damping -> clockwise moment loop
        assert mid.loops["Cm"].signed_area < 0.0

    def test_failure_isolation(self, condition, agard_alpha_spec, linear_plant):
        class ExplodingPlant:
            name = "exploding"

            def coefficient_histories(self, schedule, cond):
                if cond.freestream_speed == 66.0:
                    raise RuntimeError("blown up on purpose")
                return QuasiSteadyPlant.coefficient_histories(
                    QuasiSteadyPlant(coefficients=linear_plant.coefficients), schedule, cond
                )

            def static_coefficients(self, alpha0, cond):
                return (0.0, 0.0, 0.0)

        report = run_sweep(_plan(ExplodingPlant(), condition, agard_alpha_spec))
        statuses = [r.status for r in report.results]
        assert statuses == [SweepStatus.STATIC_ONLY, SweepStatus.OK, SweepStatus.FAILED]
        assert "blown up on purpose" in report.results[2].failure_reason

    def test_report_order_is_plan_order(self, linear_plant, condition, agard_alpha_spec):
        scenarios = tuple(reversed(builtin_scenarios()))
        plan = SweepPlan(
            scenarios=scenarios, oscillation=agard_alpha_spec,
            condition=condition, plant=linear_plant,
        )
        report = run_sweep(plan)
        assert [r.scenario.name for r in report.results] == [s.name for s in scenarios]

    def test_speed_basis_total(self, linear_plant, condition, agard_alpha_spec):
        plan = _plan(linear_plant, condition, agard_alpha_spec, speed_basis="total")
        report = run_sweep(plan)
        mid = report.results[1]
        assert mid.condition.freestream_speed == pytest.approx(math.hypot(33.0, 2.5), rel=1e-15)

    def test_single_mode_plan_has_no_separation(self, linear_plant, condition, agard_alpha_spec):
        plan = _plan(linear_plant, condition, agard_alpha_spec,
                     modes=(OscillationMode.ALPHA,))
        report = run_sweep(plan)
        ch = report.results[1].derivatives.channels["Cm"]
        assert ch.damping_sum == pytest.approx(-4.2, rel=1e-9)
        assert ch.rate_derivative is None
        assert ch.aoa_rate_derivative is None

    def test_deterministic_reports(self, linear_plant, condition, agard_alpha_spec):
        plan = _plan(linear_plant, condition, agard_alpha_spec)
        first = write_report(run_sweep(plan))
        second = write_report(run_sweep(plan))
        assert first == second


class TestTrendTable:
    def test_speed_invariance_gives_exact_zero_deltas(
        self, linear_plant, condition, agard_alpha_spec
    ):
        report = run_sweep(_plan(linear_plant, condition, agard_alpha_spec))
        table = trend_table(report)
        assert len(table.rows) == 12  # 3 channels x 4 derivative kinds
        for row in table.rows:
            assert row.deltas == (0.0,)
            assert row.annotation == "constant"

    def test_mach_scaling_gives_increasing_lift_slope(self, condition, agard_alpha_spec):
        p = QuasiSteadyCoefficients(CL_alpha=5.0, Cm_alpha=-1.2, mach_scaling=True)
        plant = QuasiSteadyPlant(coefficients=p)
        cond = dataclasses.replace(condition, sound_speed=340.0)
        report = run_sweep(_plan(plant, cond, agard_alpha_spec))
        rows = {row.quantity: row for row in trend_table(report).rows}
        cl_alpha = rows["CL_alpha"]
        assert cl_alpha.speeds == (33.0, 66.0)
        assert cl_alpha.values[1] > cl_alpha.values[0]
        assert cl_alpha.annotation == "increasing"

    def test_too_few_points(self, linear_plant, condition, agard_alpha_spec):
        plan = SweepPlan(
            scenarios=tuple(builtin_scenarios()[:2]),  # hover + one flying case
            oscillation=agard_alpha_spec,
            condition=condition,
            plant=linear_plant,
        )
        report = run_sweep(plan)
        assert sum(r.status is SweepStatus.OK for r in report.results) == 1
        with pytest.raises(TooFewPoints):
            trend_table(report)

    def test_rows_ordered_by_speed(self, linear_plant, condition, agard_alpha_spec):
        scenarios = tuple(reversed(builtin_scenarios()))
        plan = SweepPlan(scenarios=scenarios, oscillation=agard_alpha_spec,
                         condition=condition, plant=linear_plant)
        table = trend_table(run_sweep(plan))
        assert table.rows[0].speeds == (33.0, 66.0)


    def test_total_speed_basis_orders_and_labels_by_flown_speed(
        self, linear_plant, condition, agard_alpha_spec
    ):
        scenarios = (
            TransitionScenario("climbing", 100.0, 20.0, 30.0),   # flies 36.06 m/s
            TransitionScenario("level", 100.0, 0.0, 33.0),
        )
        plan = SweepPlan(scenarios=scenarios, oscillation=agard_alpha_spec,
                         condition=condition, plant=linear_plant, speed_basis="total")
        row = trend_table(run_sweep(plan)).rows[0]
        assert row.scenario_names == ("level", "climbing")
        assert row.speeds == (33.0, math.hypot(30.0, 20.0))


class TestPlanValidation:
    def test_empty_scenarios(self, linear_plant, condition, agard_alpha_spec):
        with pytest.raises(ValueError):
            SweepPlan(scenarios=(), oscillation=agard_alpha_spec,
                      condition=condition, plant=linear_plant)

    def test_bad_speed_basis(self, linear_plant, condition, agard_alpha_spec):
        with pytest.raises(ValueError):
            SweepPlan(scenarios=tuple(builtin_scenarios()), oscillation=agard_alpha_spec,
                      condition=condition, plant=linear_plant, speed_basis="sideways")

    def test_skip_must_leave_a_cycle(self, linear_plant, condition, agard_alpha_spec):
        with pytest.raises(InsufficientSamples, match="skip_cycles is 3.*cycles is 3"):
            SweepPlan(scenarios=tuple(builtin_scenarios()), oscillation=agard_alpha_spec,
                      condition=condition, plant=linear_plant, skip_cycles=3)

    def test_default_indicial_skip_must_leave_a_cycle(self, condition, agard_alpha_spec):
        spec = dataclasses.replace(agard_alpha_spec, cycles=2)
        with pytest.raises(InsufficientSamples, match="skip_cycles is 2.*cycles is 2"):
            SweepPlan(scenarios=tuple(builtin_scenarios()), oscillation=spec,
                      condition=condition, plant=IndicialPlant())

    def test_negative_altitude(self):
        with pytest.raises(ValueError):
            TransitionScenario("bad", -1.0, 0.0, 10.0)

    def test_template_mode_normalized(self, linear_plant, condition, agard_q_spec):
        plan = SweepPlan(scenarios=tuple(builtin_scenarios()), oscillation=agard_q_spec,
                        condition=condition, plant=linear_plant)
        assert plan.oscillation.mode is OscillationMode.ALPHA
