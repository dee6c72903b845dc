"""Scenario sweeps: statuses, round trips, determinism."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynderiv.identify as identify
import dynderiv.scenarios as scenarios
from dynderiv import (
    DomainError,
    DynDerivError,
    FlatPlatePlant,
    FlightCondition,
    InsufficientSamples,
    IndicialPlant,
    OscillationMode,
    OscillationSpec,
    QuasiSteadyPlant,
    SweepPlan,
    SweepStatus,
    TransitionScenario,
    agard_ct2_preset,
    builtin_scenarios,
    extract,
    fit_series,
    identify_modes,
    loop_metrics,
    make_schedule,
    omega_from_k,
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    run_sweep,
    sample_grid,
    simulate,
    validate_fit,
    write_report,
)
from dynderiv.identify import CONTAMINATION_FLAG
from dynderiv.kinematics import MAX_SAMPLES


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
        p = QuasiSteadyPlant(*values)
        spec = OscillationSpec.from_degrees(OscillationMode.Q, mean_deg, amp_deg, k, cycles, spp)
        merged, (schedule, series) = identify_modes(p, spec, COND)
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

    def test_smallest_normal_amplitude_round_trips(self, condition):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, sys.float_info.min, 1.0)
        merged, _ = identify_modes(QuasiSteadyPlant(CL_alpha=5.0, Cm_q=-3.0), spec, condition)
        assert merged.channels["CL"].static_slope == pytest.approx(5.0, rel=1e-15)
        assert merged.channels["Cm"].rate_derivative == pytest.approx(-3.0, rel=1e-15)

    def test_single_mode_runs_alone(self, linear_plant, condition, agard_alpha_spec):
        dset, incidence = identify_modes(linear_plant, agard_alpha_spec, condition,
                                         modes=(OscillationMode.Q,))
        assert dset.spec.mode is OscillationMode.Q and incidence is None
        assert dset.channels["Cm"].rate_derivative == pytest.approx(-3.0, rel=1e-9)

    @pytest.mark.parametrize("mode", list(OscillationMode))
    def test_one_mode_gives_that_modes_extract(self, linear_plant, condition, agard_alpha_spec,
                                               mode):
        dset, _ = identify_modes(linear_plant, agard_alpha_spec, condition, modes=(mode,))
        spec = agard_alpha_spec.with_mode(mode)
        schedule = make_schedule(spec, condition)
        series = simulate(linear_plant, schedule, condition)
        want = extract(fit_series(series, schedule.omega), spec, condition)
        assert dset == want and list(dset.channels) == list(want.channels)

    @pytest.mark.parametrize("a", [-0.5, 0.25])
    def test_default_skip_settles_the_indicial_plant(self, a):
        # no skip_cycles given: the Wagner start-up cycles are skipped, as in a sweep
        spec = agard_ct2_preset(cycles=6)
        k = spec.reduced_frequency
        merged, _ = identify_modes(IndicialPlant(pitch_axis=a), spec, COND)
        truth = FlatPlatePlant(pitch_axis=a, kernel="jones")
        for channel, field in (("CL", "lift"), ("Cm", "moment")):
            ch = merged.channels[channel]
            rate = getattr(truth.loads(k, OscillationMode.Q), field).imag / k
            damping = getattr(truth.loads(k, OscillationMode.ALPHA), field).imag / k
            assert abs(ch.rate_derivative - rate) <= 1e-3, (channel, "C_q")
            assert abs(ch.damping_sum - damping) <= 1e-3, (channel, "damping sum")


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
        p = linear_plant
        assert ch.trim_value == pytest.approx(
            p.CL0 + p.CL_alpha * agard_alpha_spec.mean_incidence, rel=1e-12
        )
        assert ch.static_slope is None
        assert ch.rate_derivative is None
        assert ch.damping_sum is None
        assert hover.loops is None

    def test_flags_are_judged_once_with_the_spec_of_each_run(self, condition, agard_alpha_spec):
        # a plate pitching about its 3/4 chord flags CONTAMINATION in flow-path mode only
        plant = FlatPlatePlant(pitch_axis=0.25)
        flags = {}
        for mode in OscillationMode:
            spec = agard_alpha_spec.with_mode(mode)
            dset, _ = identify_modes(plant, spec, condition, modes=(mode,))
            for ch in dset.channels.values():
                assert ch.flags == tuple(validate_fit(ch.fit, spec)), mode
            flags[mode] = {name: ch.flags for name, ch in dset.channels.items()}
        assert flags[OscillationMode.Q]["Cm"] == (CONTAMINATION_FLAG,)
        assert flags[OscillationMode.ALPHA] == {"CL": (), "CD": (), "Cm": ()}
        # the merged channel keeps the incidence-mode fit, and so that fit's flags
        merged, _ = identify_modes(plant, agard_alpha_spec, condition)
        assert {name: ch.flags for name, ch in merged.channels.items()} == flags[
            OscillationMode.ALPHA]
        hover = run_sweep(SweepPlan(builtin_scenarios(), agard_alpha_spec, condition, plant))
        assert hover.results[0].status is SweepStatus.STATIC_ONLY
        assert [ch.flags for ch in hover.results[0].derivatives.channels.values()] == [None] * 3

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
        assert mid.loops["Cm"] < 0.0

    def test_failure_isolation(self, condition, agard_alpha_spec, linear_plant):
        class ExplodingPlant:
            name = "exploding"

            def coefficient_histories(self, schedule, cond):
                if cond.freestream_speed == 66.0:
                    raise DomainError("freestream_speed", "blown up on purpose")
                return linear_plant.coefficient_histories(schedule, cond)

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

        plant = ExplodingPlant(CL_alpha=5.0)
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

    def test_names_that_differ_only_in_case_repeat(self, linear_plant, condition,
                                                   agard_alpha_spec):
        scenarios = tuple(TransitionScenario(name, 10.0, 0.0, 20.0) for name in ("Climb", "climb"))
        with pytest.raises(DomainError, match=r"must not repeat a scenario name: \['climb'\]"):
            SweepPlan(scenarios=scenarios, oscillation=agard_alpha_spec,
                      condition=condition, plant=linear_plant)

    def test_negative_altitude(self):
        with pytest.raises(ValueError):
            TransitionScenario("bad", -1.0, 0.0, 10.0)

    @pytest.mark.parametrize("skip", [1.0, 1.5, True])
    def test_skip_must_be_an_integer(self, linear_plant, condition, agard_alpha_spec, skip):
        # a float or bool skip renders as a config that does not parse back
        with pytest.raises(DomainError, match="^skip_cycles must be an integer"):
            _plan(linear_plant, condition, agard_alpha_spec, skip_cycles=skip)

    def test_a_string_mode_is_a_domain_error(self, linear_plant, condition, agard_alpha_spec):
        with pytest.raises(DomainError, match="^mode must be an OscillationMode"):
            OscillationSpec("alpha", 0.0, 0.1, 0.1)
        for modes in (("alpha",), (OscillationMode.ALPHA, "q"), ([1],)):   # [1]: unhashable
            with pytest.raises(DomainError, match="^modes must name"):
                _plan(linear_plant, condition, agard_alpha_spec, modes=modes)
        with pytest.raises(DomainError, match="^modes must name"):
            identify_modes(linear_plant, agard_alpha_spec, condition, modes=("alpha",))

    @pytest.mark.parametrize("modes, skip, match", [
        ((), None, "^modes must name"),
        ((OscillationMode.Q, OscillationMode.Q), None, "^modes must name"),
        ((OscillationMode.ALPHA,), 1.5, "^skip_cycles must be an integer"),
        ((OscillationMode.ALPHA,), True, "^skip_cycles must be an integer"),
    ], ids=["empty", "repeated", "1.5", "True"])
    def test_identify_modes_keeps_the_plan_rule(self, linear_plant, condition, agard_alpha_spec,
                                                modes, skip, match):
        with pytest.raises(DomainError, match=match):
            identify_modes(linear_plant, agard_alpha_spec, condition, modes, skip)

    def test_identify_modes_says_a_rejected_skip_is_the_plants_default(self, condition):
        spec = agard_ct2_preset(cycles=2)
        with pytest.raises(InsufficientSamples) as info:
            identify_modes(IndicialPlant(), spec, condition)
        assert str(info.value) == ("oscillation.skip_cycles is 2 (the plant's default) but "
                                   "oscillation.cycles is 2: no cycle is left to fit")

    def test_template_mode_normalized(self, linear_plant, condition, agard_q_spec):
        plan = SweepPlan(scenarios=tuple(builtin_scenarios()), oscillation=agard_q_spec,
                        condition=condition, plant=linear_plant)
        assert plan.oscillation.mode is OscillationMode.ALPHA


_RUN_CYCLES = 3
_RUN_MODES = st.one_of(
    st.just(()),
    st.sampled_from(OscillationMode).map(lambda m: (m, m)),
    st.sampled_from(["alpha", ("alpha",), (OscillationMode.ALPHA, "q")]),
    st.sampled_from([([1],), (OscillationMode.Q, [OscillationMode.ALPHA])]),
    st.permutations(list(OscillationMode)).map(tuple),
    st.sampled_from(OscillationMode).map(lambda m: (m,)),
)
_RUN_SKIPS = st.one_of(
    st.none(), st.integers(-3, -1), st.sampled_from([1.5, True, "1"]),
    st.integers(_RUN_CYCLES, _RUN_CYCLES + 2), st.integers(0, _RUN_CYCLES - 1),
)


def _outcome(call):
    """None if ``call()`` returns, else the type and message of its DynDerivError."""
    try:
        call()
    except DynDerivError as exc:
        return type(exc), str(exc)
    return None


class TestRunRule:
    """A sweep plan and identify_modes accept and reject the same runs alike."""

    @given(plant=st.sampled_from([QuasiSteadyPlant(CL_alpha=5.0), IndicialPlant()]),
           modes=_RUN_MODES, skip=_RUN_SKIPS)
    @settings(max_examples=150, deadline=None)
    def test_plan_and_identify_modes_agree(self, plant, modes, skip):
        spec = agard_ct2_preset(cycles=_RUN_CYCLES, samples_per_cycle=16)
        plan = _outcome(lambda: _plan(plant, COND, spec, modes=modes, skip_cycles=skip))
        assert plan == _outcome(lambda: identify_modes(plant, spec, COND, modes, skip))


def _forward_flight(n):
    """Hover, then ``n`` forward-flight scenarios at different speeds, some climbing."""
    return (TransitionScenario("hover", 10.0, 0.0, 0.0),) + tuple(
        TransitionScenario(f"forward-{i}", 100.0 * i, 0.5 * i, 12.0 + 9.5 * i) for i in range(n))


_KINDS = ["quasi-steady", "flat-plate", "indicial"]


def _plant(kind, linear_plant):
    return {"quasi-steady": linear_plant, "flat-plate": FlatPlatePlant(pitch_axis=0.25),
            "indicial": IndicialPlant(pitch_axis=-0.5)}[kind]      # indicial skips 2 cycles


@st.composite
def _accepted_sampling(draw):
    """(cycles, samples_per_cycle, skip) that an OscillationSpec and a SweepPlan accept."""
    n = draw(st.integers(8, MAX_SAMPLES))
    cycles = draw(st.integers(1, MAX_SAMPLES // n))
    return cycles, n, draw(st.integers(0, cycles - 1))


class TestSweepBasis:
    """One harmonic basis on the phase grid serves a whole sweep."""

    @pytest.mark.parametrize("n_forward", [1, 2, 6])
    def test_one_basis_per_sweep_and_no_window_in_loop_metrics(
            self, monkeypatch, linear_plant, condition, agard_alpha_spec, n_forward):
        calls = {"_harmonic_basis": 0, "_window": 0, "_window in loop_metrics": 0}
        in_loops = []
        real_basis, real_window, real_loops = (
            scenarios._harmonic_basis, identify._window, scenarios.loop_metrics)

        def counted_basis(*args):
            calls["_harmonic_basis"] += 1
            return real_basis(*args)

        def counted_window(*args):
            calls["_window"] += 1
            calls["_window in loop_metrics"] += len(in_loops)
            return real_window(*args)

        def marked_loops(*args, **kwargs):
            in_loops.append(True)
            try:
                return real_loops(*args, **kwargs)
            finally:
                in_loops.pop()

        monkeypatch.setattr(scenarios, "_harmonic_basis", counted_basis)
        monkeypatch.setattr(identify, "_window", counted_window)
        monkeypatch.setattr(scenarios, "loop_metrics", marked_loops)
        plan = SweepPlan(_forward_flight(n_forward), agard_alpha_spec, condition, linear_plant)
        report = run_sweep(plan)
        assert [r.status for r in report.results] == \
            [SweepStatus.STATIC_ONLY] + [SweepStatus.OK] * n_forward
        assert calls == {"_harmonic_basis": 1, "_window": 1, "_window in loop_metrics": 0}

        identify_modes(linear_plant, agard_alpha_spec, condition)   # on its own: one for both modes
        assert calls["_harmonic_basis"] == 2 and calls["_window"] == 2

    @pytest.mark.parametrize("modes", [(OscillationMode.ALPHA, OscillationMode.Q),
                                       (OscillationMode.Q, OscillationMode.ALPHA),
                                       (OscillationMode.ALPHA,), (OscillationMode.Q,)])
    @pytest.mark.parametrize("n_forward", [1, 2, 6])
    def test_one_schedule_per_flying_scenario(self, monkeypatch, linear_plant, condition,
                                              agard_alpha_spec, n_forward, modes):
        made = []
        real_make = scenarios.make_schedule

        def counted_make(spec, cond):
            made.append(spec.mode)
            return real_make(spec, cond)

        monkeypatch.setattr(scenarios, "make_schedule", counted_make)
        plan = SweepPlan(_forward_flight(n_forward), agard_alpha_spec, condition, linear_plant,
                         modes)
        report = run_sweep(plan)
        assert [r.status for r in report.results] == \
            [SweepStatus.STATIC_ONLY] + [SweepStatus.OK] * n_forward
        assert made == [modes[0]] * n_forward        # the hover row makes none
        made.clear()
        identify_modes(linear_plant, agard_alpha_spec, condition, modes)
        assert made == [modes[0]]

    @pytest.mark.parametrize("kind", _KINDS)
    def test_derivatives_match_lstsq_on_each_scenarios_own_times(
            self, linear_plant, condition, agard_alpha_spec, kind):
        plant = _plant(kind, linear_plant)
        plan = SweepPlan(_forward_flight(4), agard_alpha_spec, condition, plant)
        start = plan.effective_skip() * agard_alpha_spec.samples_per_cycle
        report = run_sweep(plan)
        for result in report.results[1:]:
            assert result.status is SweepStatus.OK
            cond = plan.scenario_condition(result.scenario)
            beta = {}
            for mode in (OscillationMode.ALPHA, OscillationMode.Q):
                schedule = make_schedule(plan.oscillation.with_mode(mode), cond)
                series = simulate(plant, schedule, cond)
                wt = schedule.omega * series.times[start:]
                design = np.column_stack([np.ones_like(wt), np.sin(wt), np.cos(wt)])
                for name, values in series.channels().items():
                    beta[mode, name] = np.linalg.lstsq(design, values[start:], rcond=None)[0]
            amp, k = agard_alpha_spec.body_amplitude, agard_alpha_spec.reduced_frequency
            for name, ch in result.derivatives.channels.items():
                alpha, q = beta[OscillationMode.ALPHA, name], beta[OscillationMode.Q, name]
                want = {"static_slope": alpha[1] / amp, "damping_sum": alpha[2] / (k * amp),
                        "rate_derivative": q[2] / (k * amp)}
                want["aoa_rate_derivative"] = want["damping_sum"] - want["rate_derivative"]
                scale = max(abs(v) for v in want.values())
                for field, value in want.items():
                    assert abs(getattr(ch, field) - value) <= 1e-13 * scale, (kind, name, field)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_loop_areas_equal_loop_metrics_without_a_basis(
            self, linear_plant, condition, agard_alpha_spec, kind):
        plant = _plant(kind, linear_plant)
        plan = SweepPlan(_forward_flight(3), agard_alpha_spec, condition, plant)
        for result in run_sweep(plan).results[1:]:
            omega = omega_from_k(agard_alpha_spec.reduced_frequency, result.derivatives.condition)
            history, series = result.incidence
            for name, values in series.channels().items():
                alone = loop_metrics(series.times, history, values, omega, plan.effective_skip())
                assert alone == result.loops[name], (kind, name)

    @settings(max_examples=100, deadline=None)
    @given(_accepted_sampling())
    @example((1, 8, 0))
    @example((125_000, 8, 124_999))
    @example((1, 1_000_000, 0))
    def test_phase_grid_basis_of_every_accepted_plan(self, sampling):
        # run_sweep builds this basis with no fallback: no accepted plan may fail it
        cycles, n, skip = sampling
        spec = agard_ct2_preset(cycles=cycles, samples_per_cycle=n)
        basis = identify._harmonic_basis(sample_grid(spec, 1.0), 1.0, skip)
        assert basis.window == slice(skip * n, cycles * n)
        assert basis.n_periods == cycles - skip
        assert basis.last_cycle == (cycles - 1) * n
