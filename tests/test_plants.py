"""Surrogate plants against independent oracles.

The lift-deficiency function is checked against an arbitrary-precision
Hankel-function evaluation (mpmath, ``truth.theodorsen_c``) that shares no
code with the main path's series and continued fraction; the load formulas
and the Wagner step come from ``truth`` so a typo in the library cannot
hide; the time-marching plant is checked against its exact
frequency-domain transform pair and against a plain per-sample
transcription of its recurrence.
"""

import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kinematics import _phase as closed_form_phase
from truth import JONES_POLES, jones_c, theodorsen_c, theodorsen_loads, wagner_step

from dynderiv import (
    ConditionMismatch,
    DomainError,
    FlatPlatePlant,
    FlightCondition,
    IndicialPlant,
    InsufficientSamples,
    MotionSchedule,
    NonDimensionalizationUndefined,
    OscillationMode,
    OscillationSpec,
    QuasiSteadyPlant,
    fit_harmonic,
    jones_function,
    make_schedule,
    omega_from_k,
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    simulate,
    theodorsen_function,
)
from dynderiv.plants import WAGNER_A1, WAGNER_A2, WAGNER_B1, WAGNER_B2
from dynderiv.validate import THEODORSEN_ORACLE_K01


class TestTheodorsenFunction:
    def test_recorded_oracle_value(self):
        # validate checks theodorsen_function(0.1) against the recorded value to 1e-14
        assert abs(theodorsen_c(0.1) - THEODORSEN_ORACLE_K01) < 1e-15

    @pytest.mark.parametrize("k", [0.03, 0.0811, 0.3, 2.0])
    def test_against_bessel_series(self, k):
        assert abs(theodorsen_function(k) - theodorsen_c(k)) < 1e-12

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            theodorsen_function(-0.1)

    def test_sign_structure(self):
        # real part decays from 1 toward 1/2, imaginary part stays <= 0
        for k in np.logspace(-3, 2, 60):
            c = theodorsen_function(float(k))
            assert 0.5 < c.real <= 1.0
            assert c.imag <= 0.0


class TestTheodorsenKernel:
    """The pure-math kernel over the whole accepted range of k."""

    # the boundary between the series and the continued fraction, and two samples past it
    @example(3.0)
    @example(math.nextafter(3.0, math.inf))
    @example(math.nextafter(18.0, 0.0))
    @example(18.0)
    @example(21.0252)  # Hankel's expansion, which served k >= 18 before the fraction, gave 3.3e-16
    @given(st.floats(-4.0, 16.0).map(lambda e: 10.0 ** e))
    @settings(max_examples=300, deadline=None)
    def test_against_bessel_series_log_uniform(self, k):
        # worst seen: 2.5e-16 on a dense grid over [1e-4, 1e3], 2.4e-16 in 10 000 draws to 1e16
        assert abs(theodorsen_function(k) - theodorsen_c(k)) < 3e-16

    def test_against_bessel_series_where_the_methods_hand_over(self):
        for k in np.linspace(1.0, 25.0, 97):
            assert abs(theodorsen_function(float(k)) - theodorsen_c(float(k))) < 3e-16

    @pytest.mark.parametrize("k", [5e-324, 1e-310])
    def test_finite_at_subnormal_k(self, k):
        c = theodorsen_function(k)
        assert c.real == 1.0 and math.isfinite(c.imag)
        assert abs(c - theodorsen_c(k)) < 1e-320

    @pytest.mark.parametrize("k", [1e16, 1e17, 1e300, sys.float_info.max])
    def test_high_frequency_expansion_at_huge_k(self, k):
        c = theodorsen_function(k)
        assert c.real == 0.5
        assert math.isclose(c.imag, -0.125 / k, rel_tol=1e-12)


class TestJonesFunction:
    def test_limits(self):
        assert jones_function(0.0) == 1.0 + 0.0j
        assert abs(jones_function(1e6) - 0.5) < 1e-5


class TestWagnerFunction:
    def test_initial_value(self):
        assert wagner_step(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_recorded_checkpoint(self):
        # frozen from direct evaluation of 1 - A1*exp(-b1) - A2*exp(-b2)
        assert wagner_step(1.0) == pytest.approx(0.594165161647252, abs=1e-5)

    def test_monotone_and_bounded(self):
        s = np.linspace(0.0, 400.0, 2000)
        phi = wagner_step(s)
        assert np.all(np.diff(phi) > 0.0)
        assert np.all(phi < 1.0)
        assert phi[-1] > 0.99999


class TestFlatPlateLoads:
    def test_pitch_low_frequency_lift_slope(self):
        loads = pitch_oscillation_loads(1e-8, -0.5)
        assert loads.lift == pytest.approx(2.0 * math.pi, rel=1e-6)

    def test_pitch_quarter_chord_moment_vanishes(self):
        loads = pitch_oscillation_loads(1e-8, -0.5)
        assert abs(loads.moment) < 1e-7

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.3])
    @pytest.mark.parametrize("k", [0.05, 0.0811, 0.2])
    def test_pitch_matches_inline_formula(self, k, a):
        loads = pitch_oscillation_loads(k, a)
        lift, moment = theodorsen_loads(a, 1j * k, theodorsen_function(k), 0.0, 0.0)
        assert loads.lift == pytest.approx(lift, rel=1e-14)
        assert loads.moment == pytest.approx(moment, rel=1e-14)

    def test_q_mode_vanishes_at_zero_frequency(self):
        loads = q_mode_oscillation_loads(1e-9, -0.3)
        assert abs(loads.lift) < 1e-7
        assert abs(loads.moment) < 1e-7

    def test_q_mode_circulatory_lift_vanishes_at_half(self):
        k = 0.0811
        loads = q_mode_oscillation_loads(k, 0.5)
        assert loads.lift == pytest.approx(math.pi * k * k / 2.0, rel=1e-14)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.3])
    @pytest.mark.parametrize("k", [0.05, 0.0811, 0.2])
    def test_q_mode_matches_inline_formula(self, k, a):
        loads = q_mode_oscillation_loads(k, a, deficiency=jones_function)
        lift, moment = theodorsen_loads(a, 1j * k, jones_function(k), -1.0, -1j * k)
        assert loads.lift == pytest.approx(lift, rel=1e-14)
        assert loads.moment == pytest.approx(moment, rel=1e-14)

    def test_pitch_axis_sanity_bound(self):
        with pytest.raises(ValueError):
            pitch_oscillation_loads(0.1, 3.0)


def _state(alpha=0.0, qhat=0.0, adot_hat=0.0):
    """Incidence and the nondimensional rates q-hat, alpha_dot-hat of one sample."""
    return alpha, qhat, adot_hat


def _loads(p, state, cond):
    """The plant's coefficients at ``state``, handed over as dimensional rates."""
    alpha, qhat, adot_hat = state
    per_hat = 2.0 * cond.freestream_speed / cond.ref_chord     # rate = rate-hat * 2V / c
    schedule = SimpleNamespace(relative_aoa=alpha, pitch_rate=qhat * per_hat,
                               aoa_rate=adot_hat * per_hat)
    return p.coefficient_histories(schedule, cond)


class TestQuasiSteady:
    """The linear model at single samples, through the plant's own histories."""

    def test_zero_motion_returns_offsets(self, condition):
        p = QuasiSteadyPlant(CL0=0.2, CD0=0.02, Cm0=-0.05,
                             CL_alpha=5, CD_alpha=0.3, Cm_alpha=-1.2)
        cl, cd, cm = _loads(p, _state(), condition)
        assert (cl, cd, cm) == (0.2, 0.02, -0.05)

    def test_pure_lift_slope(self, condition):
        p = QuasiSteadyPlant(CL_alpha=5.0)
        cl, _, _ = _loads(p, _state(alpha=0.1), condition)
        assert cl == pytest.approx(0.5, rel=1e-15)

    def test_reference_oscillatory_rate_response(self, condition):
        # damping sum of 10 at the reference rate amplitude k*A = 0.006497
        p = QuasiSteadyPlant(CL_alpha=5.0, CL_q=3.0, CL_alphadot=7.0)
        qhat = 0.0811 * math.radians(4.59)
        cl_rate = _loads(p, _state(qhat=qhat, adot_hat=qhat), condition)[0]
        assert cl_rate == pytest.approx(0.06496, rel=1e-3)

    def test_induced_drag_term(self, condition):
        p = QuasiSteadyPlant(CL_alpha=5.0, CD0=0.02, induced_drag_factor=0.05)
        cl, cd, _ = _loads(p, _state(alpha=0.1), condition)
        assert cd == pytest.approx(0.02 + 0.05 * cl * cl, rel=1e-15)

    def test_matches_brute_force_matrix_eval(self, condition):
        rng = np.random.default_rng(3)
        values = rng.uniform(-20, 20, size=11)
        p = QuasiSteadyPlant(*values)
        matrix = np.array([
            [p.CL_alpha, p.CL_q, p.CL_alphadot],
            [p.CD_alpha, p.CD_q, 0.0],
            [p.Cm_alpha, p.Cm_q, p.Cm_alphadot],
        ])
        offsets = np.array([p.CL0, p.CD0, p.Cm0])
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, size=3)
            got = np.array(_loads(p, _state(*x), condition))
            np.testing.assert_allclose(got, offsets + matrix @ x, rtol=1e-13, atol=1e-13)

    def test_superposition(self, condition):
        rng = np.random.default_rng(4)
        p = QuasiSteadyPlant(*rng.uniform(-5, 5, size=11))
        a = rng.uniform(-0.3, 0.3, size=3)
        b = rng.uniform(-0.3, 0.3, size=3)
        both = np.array(_loads(p, _state(*(a + b)), condition))
        parts = (np.array(_loads(p, _state(*a), condition))
                 + np.array(_loads(p, _state(*b), condition)))
        offsets = np.array(_loads(p, _state(), condition))
        np.testing.assert_allclose(both, parts - offsets, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("mode", list(OscillationMode))
    def test_rates_enter_as_rate_times_chord_over_2v(self, condition, agard_alpha_spec, mode):
        """q-hat = q*c/(2V) and alpha_dot-hat = alpha_dot*c/(2V), bit for bit, in both plants."""
        schedule = make_schedule(agard_alpha_spec.with_mode(mode), condition)
        scale = condition.ref_chord / (2.0 * condition.freestream_speed)
        qhat, adot_hat = schedule.pitch_rate * scale, schedule.aoa_rate * scale
        cl, cd, cm = QuasiSteadyPlant(CL_q=1.0, CD_q=1.0, Cm_alphadot=1.0).coefficient_histories(
            schedule, condition)
        np.testing.assert_array_equal(cl, qhat)
        np.testing.assert_array_equal(cd, qhat)
        np.testing.assert_array_equal(cm, adot_hat)
        _, cd, _ = IndicialPlant(CD_q=1.0).coefficient_histories(schedule, condition)
        np.testing.assert_array_equal(cd, qhat)


def reference_indicial_loop(schedule, cond, a):
    """Per-sample Duhamel stepper: the recurrence transcribed one sample at a time.

    Each step advances the two Wagner lag states with the exponential
    integrator x <- x*exp(-b*ds) + d_alpha_e*exp(-b*ds/2), ds = 2*V*dt/c,
    taking dt from the actual time stamps (dt = 0 for the first sample).
    """
    b_over_v = cond.ref_chord / (2.0 * cond.freestream_speed)
    x1 = x2 = alpha_e_prev = 0.0
    prev_t = None
    cl, cm = [], []
    for i in range(len(schedule.time)):
        t = float(schedule.time[i])
        q = float(schedule.pitch_rate[i])
        adot = float(schedule.aoa_rate[i])
        accel = float(schedule.pitch_accel[i])
        dt = 0.0 if prev_t is None else t - prev_t
        alpha_e = float(schedule.relative_aoa[i]) + (0.5 - a) * b_over_v * q
        d_ae = alpha_e - alpha_e_prev
        e1 = math.exp(-WAGNER_B1 * dt / b_over_v)
        e2 = math.exp(-WAGNER_B2 * dt / b_over_v)
        x1 = x1 * e1 + d_ae * math.sqrt(e1)
        x2 = x2 * e2 + d_ae * math.sqrt(e2)
        cl_circ = 2.0 * math.pi * (alpha_e - WAGNER_A1 * x1 - WAGNER_A2 * x2)
        cl.append(cl_circ + math.pi * (b_over_v * adot - a * b_over_v * b_over_v * accel))
        cm.append((a + 0.5) * cl_circ / 2.0 + (math.pi / 2.0) * (
            -b_over_v * a * (q - adot)
            - b_over_v * (0.5 - a) * q
            - b_over_v * b_over_v * (0.125 + a * a) * accel
        ))
        alpha_e_prev, prev_t = alpha_e, t
    return np.array(cl), np.array(cm)


INDICIAL_STEP_TOL = 2e-4    # relative error of the time march at 720 samples per cycle


def startup_bound(mode, a, k, amp, alpha0, cycles, skip):
    """Bound on |dH| of CL that the start-up transient leaves after ``skip`` cycles.

    Each lag state starts at rest, at most |alpha0 + rate| plus one excursion
    of the 3/4-chord incidence away from its periodic state, and decays by
    exp(-2*pi*b_j/k) per period; its residue is averaged over the fit window.
    """
    rate = (0.5 - a) * k * amp
    excursion = amp * math.hypot(1.0, (0.5 - a) * k) if mode is OscillationMode.ALPHA else abs(rate)
    offset = abs(alpha0 + rate) + excursion
    envelope = 0.0
    for a_j, b_j in JONES_POLES:
        mu = 2.0 * math.pi * b_j / k
        envelope += 2.0 * math.pi * a_j * offset * math.exp(-mu * skip) / ((cycles - skip) * mu)
    return math.sqrt(2.0) * 2.0 * envelope / amp


def constant_incidence_schedule(spec, alpha, time):
    """Hand-built flow-path schedule with phase arrays of zeros: incidence
    stepped to alpha at t[0], every rate zero."""
    time = np.asarray(time, dtype=float)
    zeros = np.zeros_like(time)
    spec = replace(spec.with_mode(OscillationMode.Q), mean_incidence=alpha)
    return MotionSchedule(spec=spec, omega=1.0, time=time, phase_sin=zeros, phase_cos=zeros)


class TestIndicial:
    ALPHA = 0.05
    DT = 0.01  # ds = 2*V*dt/c ~ 8.7 semichords per step at the reference condition

    def _step_response(self, spec, cond, n):
        schedule = constant_incidence_schedule(spec, self.ALPHA, np.arange(n) * self.DT)
        cl, _, _ = IndicialPlant().coefficient_histories(schedule, cond)
        return cl

    def test_step_first_instant_half_lift(self, condition, agard_alpha_spec):
        # impulsive start: phi(0+) = 0.5, so circulatory lift is pi*alpha
        cl = self._step_response(agard_alpha_spec, condition, 1)
        assert cl[0] == pytest.approx(math.pi * self.ALPHA, rel=1e-12)

    def test_step_settles_to_full_lift(self, condition, agard_alpha_spec):
        cl = self._step_response(agard_alpha_spec, condition, 201)
        assert cl[-1] == pytest.approx(2.0 * math.pi * self.ALPHA, rel=1e-6)

    def test_step_follows_wagner_function(self, condition, agard_alpha_spec):
        # a held step makes the lift build up exactly as 2*pi*alpha*phi(s)
        n = 40
        cl = self._step_response(agard_alpha_spec, condition, n)
        s = np.arange(n) * self.DT * 2.0 * condition.freestream_speed / condition.ref_chord
        np.testing.assert_allclose(cl, 2.0 * math.pi * self.ALPHA * wagner_step(s), rtol=1e-12)

    def test_hover_rejected(self, agard_alpha_spec):
        from dynderiv import FlightCondition

        hover = FlightCondition(0.0, 1.225, 0.2299, 0.6096, 0.1238)
        schedule = constant_incidence_schedule(agard_alpha_spec, 0.1, np.arange(4) * 0.01)
        for plant in (IndicialPlant(), QuasiSteadyPlant(CL_q=1.0)):     # both scale rates by V
            with pytest.raises(NonDimensionalizationUndefined):
                plant.coefficient_histories(schedule, hover)

    def test_nonuniform_grid_rejected(self, condition, agard_alpha_spec):
        time = np.arange(10) * 0.01
        time[5:] += 1e-6  # one step 1e-4 relative longer than the rest
        schedule = constant_incidence_schedule(agard_alpha_spec, 0.1, time)
        with pytest.raises(DomainError):
            IndicialPlant().coefficient_histories(schedule, condition)

    @pytest.mark.parametrize("k", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("mode", ["alpha", "q"])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.25])
    def test_matches_reference_loop(self, a, mode, k, condition, agard_alpha_spec):
        spec = replace(agard_alpha_spec.with_mode(OscillationMode(mode)),
                       reduced_frequency=k, cycles=8)
        schedule = make_schedule(spec, condition)
        cl, _, cm = IndicialPlant(pitch_axis=a).coefficient_histories(schedule, condition)
        ref_cl, ref_cm = reference_indicial_loop(schedule, condition, a)
        assert np.max(np.abs(cl - ref_cl)) <= 1e-12 * np.max(np.abs(ref_cl))
        assert np.max(np.abs(cm - ref_cm)) <= 1e-12 * np.max(np.abs(ref_cm))

    @settings(max_examples=40, deadline=None)
    @given(k=st.floats(0.05, 0.3), a=st.floats(-0.6, 0.4), mode=st.sampled_from(OscillationMode),
           alpha0_deg=st.floats(-2.0, 4.0), cycles=st.integers(6, 10))
    @example(k=0.3, a=0.4, mode=OscillationMode.ALPHA, alpha0_deg=4.0, cycles=6)
    @example(k=0.3, a=-0.6, mode=OscillationMode.Q, alpha0_deg=-2.0, cycles=6)
    @example(k=0.05, a=-0.6, mode=OscillationMode.ALPHA, alpha0_deg=4.0, cycles=6)
    def test_settled_response_matches_jones_flat_plate(self, k, a, mode, alpha0_deg, cycles):
        # after two skipped cycles the harmonic response is the flat plate's with the
        # Jones deficiency, within the march error plus the start-up residue's bound;
        # only the circulatory lift, |a + 1/2|/2 of it, carries the residue into Cm
        cond = FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238)
        spec = OscillationSpec.from_degrees(mode, alpha0_deg, 4.59, k, cycles=cycles,
                                            samples_per_cycle=720)
        schedule = make_schedule(spec, cond)
        series = simulate(IndicialPlant(pitch_axis=a), schedule, cond)
        w, hdd = (0.0, 0.0) if mode is OscillationMode.ALPHA else (-1.0, -1j * k)
        lift, moment = theodorsen_loads(a, 1j * k, jones_c(k), w, hdd)
        amp = spec.body_amplitude
        dh = startup_bound(mode, a, k, amp, spec.mean_incidence, cycles, 2)
        for values, h, share in ((series.CL, lift, 1.0), (series.Cm, moment, abs(a + 0.5) / 2.0)):
            fit = fit_harmonic(series.times, values, schedule.omega, skip_cycles=2)
            err = abs(complex(fit.in_phase, fit.out_phase) / amp - h)
            assert err <= INDICIAL_STEP_TOL * abs(h) + share * dh

    def test_drag_channel_is_quasi_steady(self, condition, agard_alpha_spec):
        plant = IndicialPlant(CD0=0.02, CD_alpha=0.4)
        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(plant, schedule, condition)
        expected = 0.02 + 0.4 * schedule.relative_aoa
        np.testing.assert_allclose(series.CD, expected, rtol=1e-12)


def flat_plate_histories(plant, schedule, cond):
    """FlatPlatePlant's CL and Cm with the phase written out: sin, cos of 2*pi*m/N on one
    cycle, repeated."""
    spec = schedule.spec
    loads = plant.loads(spec.reduced_frequency, spec.mode)
    amp = spec.body_amplitude
    sin_p, cos_p = closed_form_phase(spec)
    cl0, _, cm0 = plant.static_coefficients(spec.mean_incidence, cond)
    cl = cl0 + amp * (loads.lift.real * sin_p + loads.lift.imag * cos_p)
    cm = cm0 + amp * (loads.moment.real * sin_p + loads.moment.imag * cos_p)
    return cl, cm


class TestFlatPlatePhase:
    """The flat plate reads the schedule's stored phase, bit for bit sin and cos of the
    time stamps' phase 2*pi*m/N."""

    @pytest.mark.parametrize("kernel", ["theodorsen", "jones"])
    @pytest.mark.parametrize("mode", list(OscillationMode))
    @pytest.mark.parametrize("flown", [False, True], ids=["made", "flown"])
    @given(mean_deg=st.floats(-10.0, 10.0), amp_deg=st.floats(0.01, 10.0),
           k=st.floats(0.01, 25.0), spc=st.integers(8, 256), pitch_axis=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_matches_the_sine_of_the_time_stamps(self, kernel, mode, flown,
                                                  mean_deg, amp_deg, k, spc, pitch_axis):
        condition = FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238)
        plant = FlatPlatePlant(pitch_axis=pitch_axis, kernel=kernel)
        other = next(m for m in OscillationMode if m is not mode)
        spec = OscillationSpec.from_degrees(other if flown else mode, mean_deg, amp_deg, k, 2, spc)
        schedule = make_schedule(spec, condition).with_mode(mode)
        series = simulate(plant, schedule, condition)
        cl, cm = flat_plate_histories(plant, schedule, condition)
        assert np.array_equal(series.CL, cl) and np.array_equal(series.Cm, cm)
        assert not series.CD.any()


class TestSimulate:
    def test_empty_schedule_is_insufficient(self, linear_plant, agard_alpha_spec, condition):
        schedule = make_schedule(agard_alpha_spec, condition)
        empty = replace(schedule, **{name: getattr(schedule, name)[:0] for name in (
            "time", "phase_sin", "phase_cos")})
        with pytest.raises(InsufficientSamples, match="^schedule is empty$"):
            simulate(linear_plant, empty, condition)

    def test_a_condition_of_another_speed_is_refused(self, linear_plant, agard_alpha_spec,
                                                     condition):
        # flown at half the schedule's speed, the plant would scale the rates by the wrong
        # omega*c/(2V) and report twice the damping sum CL_q + CL_alphadot = 10
        schedule = make_schedule(agard_alpha_spec, condition)
        slower = replace(condition, freestream_speed=condition.freestream_speed / 2)
        with pytest.raises(ConditionMismatch, match="the schedule was made for"):
            simulate(linear_plant, schedule, slower)

    @pytest.mark.parametrize("plant", [QuasiSteadyPlant(CL_alpha=5.0), FlatPlatePlant(),
                                       IndicialPlant()], ids=lambda p: p.name)
    def test_a_hover_condition_is_refused_by_every_plant(self, plant, agard_alpha_spec,
                                                         condition):
        schedule = make_schedule(agard_alpha_spec, condition)
        with pytest.raises(NonDimensionalizationUndefined, match="hover"):
            simulate(plant, schedule, replace(condition, freestream_speed=0.0))

    @pytest.mark.parametrize("plant", [QuasiSteadyPlant(CL_alpha=5.0), FlatPlatePlant(),
                                       IndicialPlant()], ids=lambda p: p.name)
    def test_a_direct_call_on_hover_is_refused_by_every_plant(self, plant, agard_alpha_spec,
                                                              condition):
        schedule = make_schedule(agard_alpha_spec, condition)
        hover = replace(condition, freestream_speed=0.0)
        with pytest.raises(NonDimensionalizationUndefined, match="needs a nonzero freestream"):
            plant.coefficient_histories(schedule, hover)

    def test_a_hover_condition_gives_one_message_on_every_path(self, agard_alpha_spec,
                                                               condition):
        schedule = make_schedule(agard_alpha_spec, condition)
        hover = replace(condition, freestream_speed=0.0)
        calls = [lambda: omega_from_k(agard_alpha_spec.reduced_frequency, hover),
                 lambda: make_schedule(agard_alpha_spec, hover)]
        for plant in (QuasiSteadyPlant(CL_alpha=5.0), FlatPlatePlant(), IndicialPlant()):
            calls += [lambda p=plant: simulate(p, schedule, hover),
                      lambda p=plant: p.coefficient_histories(schedule, hover)]
        messages = set()
        for call in calls:
            with pytest.raises(NonDimensionalizationUndefined) as raised:
                call()
            messages.add(str(raised.value))
        assert len(messages) == 1, messages

    def test_q_mode_quasi_steady_is_pure_cosine(self, linear_plant, agard_q_spec, condition):
        schedule = make_schedule(agard_q_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        fit = fit_harmonic(series.times, series.CL, schedule.omega)
        assert fit.residual_rms < 1e-13
        assert abs(fit.in_phase) < 1e-13
        assert fit.out_phase == pytest.approx(
            4.0 * agard_q_spec.reduced_frequency * agard_q_spec.body_amplitude, rel=1e-10
        )

    def test_flat_plate_emits_exact_harmonics(self, agard_alpha_spec, condition):
        plant = FlatPlatePlant(pitch_axis=-0.5, kernel="jones")
        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(plant, schedule, condition)
        fit = fit_harmonic(series.times, series.CL, schedule.omega)
        k = agard_alpha_spec.reduced_frequency
        lift, _ = theodorsen_loads(-0.5, 1j * k, jones_c(k), 0.0, 0.0)
        amp = agard_alpha_spec.body_amplitude
        assert fit.in_phase == pytest.approx(lift.real * amp, rel=1e-12)
        assert fit.out_phase == pytest.approx(lift.imag * amp, rel=1e-12)
        assert fit.residual_rms < 1e-14

    def test_mach_scaling_raises_recovered_slope(self, agard_alpha_spec):
        from dynderiv import FlightCondition, extract, fit_series

        plant = QuasiSteadyPlant(CL_alpha=5.0, mach_scaling=True)
        results = {}
        for speed in (33.0, 66.0):
            cond = FlightCondition(speed, 1.225, 0.2299, 0.6096, 0.1238, sound_speed=340.0)
            schedule = make_schedule(agard_alpha_spec, cond)
            series = simulate(plant, schedule, cond)
            dset = extract(fit_series(series, schedule.omega), agard_alpha_spec, cond)
            results[speed] = dset.channels["CL"].static_slope
        assert results[66.0] > results[33.0]
        mach = 66.0 / 340.0
        assert results[66.0] == pytest.approx(5.0 / math.sqrt(1.0 - mach**2), rel=1e-9)
