"""Surrogate plants against independent oracles.

The lift-deficiency function is checked against an arbitrary-precision
Bessel evaluation (mpmath) that shares no code with the scipy-based main
path; the complex load formulas are transcribed inline so a typo in the
library cannot hide; the time-marching plant is checked against its exact
frequency-domain transform pair and against a plain per-sample transcription
of its recurrence.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from dynderiv import (
    DomainError,
    DragPolar,
    FlatPlatePlant,
    IndicialPlant,
    MotionSchedule,
    NonDimensionalizationUndefined,
    OscillationMode,
    QuasiSteadyCoefficients,
    QuasiSteadyPlant,
    fit_harmonic,
    jones_function,
    make_schedule,
    pitch_oscillation_loads,
    prandtl_glauert,
    q_mode_oscillation_loads,
    quasi_steady_loads,
    simulate,
    theodorsen_function,
    wagner_function,
)
from dynderiv.plants import WAGNER_A1, WAGNER_A2, WAGNER_B1, WAGNER_B2
from dynderiv.validate import THEODORSEN_ORACLE_K01, indicial_frequency_response

# Recorded before the main path was written: 50-digit Bessel-series value
# of the lift-deficiency function at k = 0.1.
BESSEL_ORACLE_K01 = complex(0.83192410496527614, -0.17230222873419501)


def bessel_series_deficiency(k: float) -> complex:
    """Independent oracle: H1/(H1 + i*H0) from mpmath Bessel series."""
    mp.mp.dps = 50
    h1 = mp.besselj(1, k) - 1j * mp.bessely(1, k)
    h0 = mp.besselj(0, k) - 1j * mp.bessely(0, k)
    c = h1 / (h1 + 1j * h0)
    return complex(float(c.real), float(c.imag))


class TestTheodorsenFunction:
    def test_quasi_steady_limit_exact(self):
        assert theodorsen_function(0.0) == 1.0 + 0.0j

    def test_high_frequency_limit(self):
        assert abs(theodorsen_function(100.0) - 0.5) < 0.01

    def test_recorded_oracle_value(self):
        assert abs(theodorsen_function(0.1) - BESSEL_ORACLE_K01) < 5e-3
        # and the recorded constant itself still matches a live evaluation
        assert abs(bessel_series_deficiency(0.1) - BESSEL_ORACLE_K01) < 1e-15
        assert THEODORSEN_ORACLE_K01 == BESSEL_ORACLE_K01

    @pytest.mark.parametrize("k", [0.03, 0.0811, 0.3, 2.0])
    def test_against_bessel_series(self, k):
        assert abs(theodorsen_function(k) - bessel_series_deficiency(k)) < 1e-12

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            theodorsen_function(-0.1)

    def test_sign_structure(self):
        # real part decays from 1 toward 1/2, imaginary part stays <= 0
        for k in np.logspace(-3, 2, 60):
            c = theodorsen_function(float(k))
            assert 0.5 < c.real <= 1.0
            assert c.imag <= 0.0


class TestJonesFunction:
    def test_limits(self):
        assert jones_function(0.0) == 1.0 + 0.0j
        assert abs(jones_function(1e6) - 0.5) < 1e-5

    def test_close_to_exact_at_reference_k(self):
        exact = theodorsen_function(0.0811)
        approx = jones_function(0.0811)
        assert abs(exact.real - approx.real) < 0.03
        assert abs(exact.imag - approx.imag) < 0.03

    def test_gap_over_working_band(self):
        for k in np.logspace(math.log10(0.01), 0.0, 120):
            exact = theodorsen_function(float(k))
            approx = jones_function(float(k))
            assert abs(exact.real - approx.real) <= 0.03
            assert abs(exact.imag - approx.imag) <= 0.03


class TestWagnerFunction:
    def test_initial_value(self):
        assert wagner_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_recorded_checkpoint(self):
        # frozen from direct evaluation of 1 - A1*exp(-b1) - A2*exp(-b2)
        assert wagner_function(1.0) == pytest.approx(0.594165161647252, abs=1e-5)

    def test_monotone_and_bounded(self):
        s = np.linspace(0.0, 400.0, 2000)
        phi = wagner_function(s)
        assert np.all(np.diff(phi) > 0.0)
        assert np.all(phi < 1.0)
        assert phi[-1] > 0.99999


def inline_pitch_loads(k, a, C):
    """Literal transcription of the flat-plate pitch response formulas."""
    lift = 2 * math.pi * C * (1 + 1j * k * (0.5 - a)) + math.pi * k * (1j + a * k)
    moment = math.pi * (a + 0.5) * C * (1 + 1j * k * (0.5 - a)) + (math.pi / 2) * (
        (1 / 8 + a * a) * k * k - 1j * k * (0.5 - a)
    )
    return lift, moment


def inline_q_mode_loads(k, a, C):
    lift = math.pi * a * k * k + 2 * math.pi * C * 1j * k * (0.5 - a)
    moment = (
        math.pi * (a + 0.5) * (0.5 - a) * C * 1j * k
        + (math.pi / 2) * (1 / 8 + a * a) * k * k
        - (math.pi / 4) * 1j * k
    )
    return lift, moment


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
        lift, moment = inline_pitch_loads(k, a, theodorsen_function(k))
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
        lift, moment = inline_q_mode_loads(k, a, jones_function(k))
        assert loads.lift == pytest.approx(lift, rel=1e-14)
        assert loads.moment == pytest.approx(moment, rel=1e-14)

    def test_pitch_axis_sanity_bound(self):
        with pytest.raises(ValueError):
            pitch_oscillation_loads(0.1, 3.0)


def _state(alpha=0.0, qhat=0.0, adot_hat=0.0):
    return SimpleNamespace(relative_aoa=alpha, nondim_pitch_rate=qhat, nondim_aoa_rate=adot_hat)


class TestQuasiSteady:
    def test_zero_motion_returns_offsets(self):
        p = QuasiSteadyCoefficients(CL0=0.2, CD0=0.02, Cm0=-0.05,
                                    CL_alpha=5, CD_alpha=0.3, Cm_alpha=-1.2)
        cl, cd, cm = quasi_steady_loads(p, _state())
        assert (cl, cd, cm) == (0.2, 0.02, -0.05)

    def test_pure_lift_slope(self):
        p = QuasiSteadyCoefficients(CL_alpha=5.0)
        cl, _, _ = quasi_steady_loads(p, _state(alpha=0.1))
        assert cl == pytest.approx(0.5, rel=1e-15)

    def test_reference_oscillatory_rate_response(self):
        # damping sum of 10 at the reference rate amplitude k*A = 0.006497
        p = QuasiSteadyCoefficients(CL_alpha=5.0, CL_q=3.0, CL_alphadot=7.0)
        qhat = 0.0811 * math.radians(4.59)
        cl_rate = quasi_steady_loads(p, _state(qhat=qhat, adot_hat=qhat))[0]
        assert cl_rate == pytest.approx(0.06496, rel=1e-3)

    def test_induced_drag_term(self):
        p = QuasiSteadyCoefficients(CL_alpha=5.0, CD0=0.02, induced_drag_factor=0.05)
        cl, cd, _ = quasi_steady_loads(p, _state(alpha=0.1))
        assert cd == pytest.approx(0.02 + 0.05 * cl * cl, rel=1e-15)

    def test_matches_brute_force_matrix_eval(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-20, 20, size=11)
        p = QuasiSteadyCoefficients(*values)
        matrix = np.array([
            [p.CL_alpha, p.CL_q, p.CL_alphadot],
            [p.CD_alpha, p.CD_q, 0.0],
            [p.Cm_alpha, p.Cm_q, p.Cm_alphadot],
        ])
        offsets = np.array([p.CL0, p.CD0, p.Cm0])
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, size=3)
            got = np.array(quasi_steady_loads(p, _state(*x)))
            np.testing.assert_allclose(got, offsets + matrix @ x, rtol=1e-13, atol=1e-13)

    def test_superposition(self):
        rng = np.random.default_rng(4)
        p = QuasiSteadyCoefficients(*rng.uniform(-5, 5, size=11))
        a = rng.uniform(-0.3, 0.3, size=3)
        b = rng.uniform(-0.3, 0.3, size=3)
        both = np.array(quasi_steady_loads(p, _state(*(a + b))))
        parts = np.array(quasi_steady_loads(p, _state(*a))) + np.array(
            quasi_steady_loads(p, _state(*b))
        )
        offsets = np.array(quasi_steady_loads(p, _state()))
        np.testing.assert_allclose(both, parts - offsets, rtol=1e-12, atol=1e-14)

    def test_mach_scaling_factor(self):
        assert prandtl_glauert(0.0) == 1.0
        assert prandtl_glauert(0.6) == pytest.approx(1.25, rel=1e-12)
        with pytest.raises(ValueError):
            prandtl_glauert(1.0)


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


def constant_incidence_schedule(spec, alpha, time):
    """Hand-built schedule: incidence stepped to alpha at t[0], no rates."""
    time = np.asarray(time, dtype=float)
    zeros = np.zeros_like(time)
    return MotionSchedule(
        spec=spec, omega=1.0, time=time,
        body_pitch=np.full_like(time, alpha), relative_aoa=np.full_like(time, alpha),
        pitch_rate=zeros, nondim_pitch_rate=zeros, aoa_rate=zeros,
        nondim_aoa_rate=zeros, flow_angle=zeros, pitch_accel=zeros,
    )


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
        np.testing.assert_allclose(cl, 2.0 * math.pi * self.ALPHA * wagner_function(s), rtol=1e-12)

    def test_hover_rejected(self, agard_alpha_spec):
        from dynderiv import FlightCondition

        hover = FlightCondition(0.0, 1.225, 0.2299, 0.6096, 0.1238)
        schedule = constant_incidence_schedule(agard_alpha_spec, 0.1, np.arange(4) * 0.01)
        with pytest.raises(NonDimensionalizationUndefined):
            IndicialPlant().coefficient_histories(schedule, hover)

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

    @pytest.mark.parametrize("k", [0.05, 0.0811, 0.2])
    def test_transform_pair_consistency(self, k):
        # settled harmonic response matches the rational-kernel flat plate to 1%
        lift_sim, moment_sim = indicial_frequency_response(k)
        truth = pitch_oscillation_loads(k, -0.5, deficiency=jones_function)
        assert abs(lift_sim - truth.lift) / abs(truth.lift) < 0.01
        assert abs(moment_sim - truth.moment) / abs(truth.moment) < 0.01

    def test_drag_channel_is_quasi_steady(self, condition, agard_alpha_spec):
        plant = IndicialPlant(drag=DragPolar(CD0=0.02, CD_alpha=0.4))
        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(plant, schedule, condition)
        expected = 0.02 + 0.4 * schedule.relative_aoa
        np.testing.assert_allclose(series.CD, expected, rtol=1e-12)


class TestSimulate:
    def test_q_mode_quasi_steady_is_pure_cosine(self, linear_plant, agard_q_spec, condition):
        schedule = make_schedule(agard_q_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        fit = fit_harmonic(series.times, series.CL, schedule.omega)
        assert fit.residual_rms < 1e-13
        assert abs(fit.in_phase) < 1e-13
        assert fit.out_phase == pytest.approx(
            4.0 * agard_q_spec.reduced_frequency * agard_q_spec.body_amplitude, rel=1e-10
        )

    def test_metadata(self, linear_plant, agard_alpha_spec, condition):
        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        assert series.meta.source == "quasi-steady"
        assert series.meta.spec == agard_alpha_spec
        assert series.meta.condition == condition

    def test_flat_plate_emits_exact_harmonics(self, agard_alpha_spec, condition):
        plant = FlatPlatePlant(pitch_axis=-0.5, kernel="jones")
        schedule = make_schedule(agard_alpha_spec, condition)
        series = simulate(plant, schedule, condition)
        fit = fit_harmonic(series.times, series.CL, schedule.omega)
        truth = pitch_oscillation_loads(
            agard_alpha_spec.reduced_frequency, -0.5, deficiency=jones_function
        )
        amp = agard_alpha_spec.body_amplitude
        assert fit.in_phase == pytest.approx(truth.lift.real * amp, rel=1e-12)
        assert fit.out_phase == pytest.approx(truth.lift.imag * amp, rel=1e-12)
        assert fit.residual_rms < 1e-14

    def test_mach_scaling_raises_recovered_slope(self, agard_alpha_spec):
        from dynderiv import FlightCondition, extract, fit_series

        p = QuasiSteadyCoefficients(CL_alpha=5.0, mach_scaling=True)
        plant = QuasiSteadyPlant(coefficients=p)
        results = {}
        for speed in (33.0, 66.0):
            cond = FlightCondition(speed, 1.225, 0.2299, 0.6096, 0.1238, sound_speed=340.0)
            schedule = make_schedule(agard_alpha_spec, cond)
            series = simulate(plant, schedule, cond)
            dset = extract(fit_series(series, schedule.omega), agard_alpha_spec, cond)
            results[speed] = dset.channels["CL"].static_slope
        assert results[66.0] > results[33.0]
        assert results[66.0] == pytest.approx(5.0 * prandtl_glauert(66.0 / 340.0), rel=1e-9)
