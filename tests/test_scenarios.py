"""Scenario sweeps: statuses, round trips, determinism."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynderiv import (
    AGARD_CT2_MACH,
    DomainError,
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
    TransitionScenario,
    agard_ct2_preset,
    builtin_scenarios,
    identify_modes,
    omega_from_k,
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    run_sweep,
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


class TestAgardPreset:
    def test_reference_values(self):
        spec = agard_ct2_preset()
        assert spec.reduced_frequency == 0.0811
        assert AGARD_CT2_MACH == 0.6
        assert spec.mean_incidence == pytest.approx(0.05515, abs=1e-5)
        assert spec.mean_incidence == math.radians(3.16)
        assert spec.body_amplitude == math.radians(4.59)

    def test_omega_with_caller_geometry(self, condition):
        spec = agard_ct2_preset()
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
        spec = agard_ct2_preset(cycles=1, samples_per_cycle=64)
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
        assert dset.spec.mode is OscillationMode.Q and incidence is None
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
                    raise DomainError("freestream_speed", "blown up on purpose")
                return QuasiSteadyPlant.coefficient_histories(
                    QuasiSteadyPlant(coefficients=linear_plant.coefficients), schedule, cond
                )

            def static_coefficients(self, alpha0, cond):
                return (0.0, 0.0, 0.0)

        report = run_sweep(_plan(ExplodingPlant(), condition, agard_alpha_spec))
        statuses = [r.status for r in report.results]
        assert statuses == [SweepStatus.STATIC_ONLY, SweepStatus.OK, SweepStatus.FAILED]
        assert report.results[2].failure_reason == (
            "DomainError: freestream_speed blown up on purpose"
        )

    def test_a_bug_is_not_isolated(self, monkeypatch, linear_plant, condition, agard_alpha_spec):
        def broken(self, schedule, cond):
            raise RuntimeError("a bug, not a domain failure")

        monkeypatch.setattr(QuasiSteadyPlant, "coefficient_histories", broken)
        with pytest.raises(RuntimeError, match="a bug, not a domain failure"):
            run_sweep(_plan(linear_plant, condition, agard_alpha_spec))

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
        speed = mid.derivatives.condition.freestream_speed
        assert speed == pytest.approx(math.hypot(33.0, 2.5), rel=1e-15)

    def test_single_mode_plan_has_no_separation(self, linear_plant, condition, agard_alpha_spec):
        plan = _plan(linear_plant, condition, agard_alpha_spec,
                     modes=(OscillationMode.ALPHA,))
        report = run_sweep(plan)
        ch = report.results[1].derivatives.channels["Cm"]
        assert ch.damping_sum == pytest.approx(-4.2, rel=1e-9)
        assert ch.rate_derivative is None
        assert ch.aoa_rate_derivative is None

    def test_condition_is_the_one_the_derivatives_carry(self, condition, agard_alpha_spec):
        class ExplodingPlant(QuasiSteadyPlant):
            def coefficient_histories(self, schedule, cond):
                if cond.freestream_speed == 66.0:
                    raise DomainError("freestream_speed", "blown up on purpose")
                return super().coefficient_histories(schedule, cond)

        plant = ExplodingPlant(QuasiSteadyCoefficients(CL_alpha=5.0))
        hover, mid, end = run_sweep(_plan(plant, condition, agard_alpha_spec)).results
        assert [r.status for r in (hover, mid, end)] == [
            SweepStatus.STATIC_ONLY, SweepStatus.OK, SweepStatus.FAILED,
        ]
        for result, speed in ((hover, 0.0), (mid, 33.0)):
            flown = dataclasses.replace(condition, freestream_speed=speed)
            assert result.derivatives.condition == flown
        assert end.derivatives is None
        assert not hasattr(end, "condition")

    def test_deterministic_reports(self, linear_plant, condition, agard_alpha_spec):
        plan = _plan(linear_plant, condition, agard_alpha_spec)
        first = write_report(run_sweep(plan))
        second = write_report(run_sweep(plan))
        assert first == second


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
