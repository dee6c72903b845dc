"""Harmonic regression, derivative extraction, separation, loop metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynderiv import (
    ConditionMismatch,
    FlightCondition,
    HarmonicFit,
    InsufficientSamples,
    NonFiniteData,
    Orientation,
    OscillationMode,
    OscillationSpec,
    QuasiSteadyCoefficients,
    QuasiSteadyPlant,
    extract,
    fit_harmonic,
    fit_series,
    identify_modes,
    jones_function,
    loop_metrics,
    make_schedule,
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    separate_rates,
    simulate,
    validate_fit,
)
from dynderiv.identify import CONTAMINATION_FLAG, RESIDUAL_FLAG

OMEGA = 2.0 * math.pi


def _grid(cycles=1, spp=720):
    return np.arange(cycles * spp) / spp


class TestFitHarmonic:
    def test_pure_sine(self):
        t = _grid()
        fit = fit_harmonic(t, 2.0 + 3.0 * np.sin(OMEGA * t), OMEGA)
        assert fit.mean == pytest.approx(2.0, abs=1e-13)
        assert fit.in_phase == pytest.approx(3.0, abs=1e-13)
        assert fit.out_phase == pytest.approx(0.0, abs=1e-13)
        assert fit.residual_rms < 1e-13

    def test_pure_cosine(self):
        t = _grid()
        fit = fit_harmonic(t, 1.0 + 0.5 * np.cos(OMEGA * t), OMEGA)
        assert fit.mean == pytest.approx(1.0, abs=1e-13)
        assert fit.in_phase == pytest.approx(0.0, abs=1e-13)
        assert fit.out_phase == pytest.approx(0.5, abs=1e-13)

    def test_phase_shifted_sine(self):
        # 0.1*sin(wt + pi/6) = 0.1*cos(pi/6)*sin + 0.1*sin(pi/6)*cos
        t = _grid()
        fit = fit_harmonic(t, 0.1 * np.sin(OMEGA * t + math.pi / 6), OMEGA)
        assert fit.in_phase == pytest.approx(0.0866025403784, rel=1e-10)
        assert fit.out_phase == pytest.approx(0.05, rel=1e-10)

    def test_skip_cycles_drops_front(self):
        t = _grid(cycles=3)
        y = np.where(t < 1.0, 99.0, 0.0) + np.sin(OMEGA * t)
        fit = fit_harmonic(t, y, OMEGA, skip_cycles=1)
        assert fit.mean == pytest.approx(0.0, abs=1e-12)
        assert fit.in_phase == pytest.approx(1.0, rel=1e-12)

    def test_window_trims_to_whole_periods(self):
        # 1.6 periods of data: only the first whole one enters the fit
        t = np.arange(1152) / 720.0
        fit = fit_harmonic(t, np.sin(OMEGA * t), OMEGA)
        assert fit.n_periods == 1
        assert fit.n_samples == 720

    def test_extra_whole_periods_do_not_change_the_fit(self):
        t1, t5 = _grid(1), _grid(5)
        y = lambda t: 0.3 + 1.7 * np.sin(OMEGA * t) - 0.4 * np.cos(OMEGA * t)
        f1 = fit_harmonic(t1, y(t1), OMEGA)
        f5 = fit_harmonic(t5, y(t5), OMEGA)
        assert f5.mean == pytest.approx(f1.mean, abs=1e-13)
        assert f5.in_phase == pytest.approx(f1.in_phase, abs=1e-13)
        assert f5.out_phase == pytest.approx(f1.out_phase, abs=1e-13)

    def test_nonuniform_in_span_signal_still_exact(self):
        rng = np.random.default_rng(11)
        t = np.sort(rng.uniform(0.0, 1.2, size=400))
        y = 0.7 - 2.0 * np.sin(OMEGA * t) + 0.9 * np.cos(OMEGA * t)
        fit = fit_harmonic(t, y, OMEGA)
        assert fit.in_phase == pytest.approx(-2.0, rel=1e-9)
        assert fit.out_phase == pytest.approx(0.9, rel=1e-9)

    def test_insufficient_after_skip(self):
        t = _grid(cycles=2)
        with pytest.raises(InsufficientSamples):
            fit_harmonic(t, np.sin(OMEGA * t), OMEGA, skip_cycles=2)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 0.9, 5)
        with pytest.raises(InsufficientSamples):
            fit_harmonic(t, np.sin(OMEGA * t), OMEGA)

    def test_non_finite_rejected(self):
        t = _grid()
        y = np.sin(OMEGA * t)
        y[3] = np.nan
        with pytest.raises(NonFiniteData):
            fit_harmonic(t, y, OMEGA)

    def test_uniform_grid_conditioning_is_benign(self):
        t = _grid()
        fit = fit_harmonic(t, np.sin(OMEGA * t), OMEGA)
        assert fit.condition_indicator == pytest.approx(math.sqrt(2.0), rel=1e-9)

    @given(
        a=st.floats(-20, 20, allow_nan=False),
        b=st.floats(-20, 20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_amplitude_phase_polar_inverse(self, a, b):
        fit = HarmonicFit(0.0, a, b, 0.0, 1.0, 720, 1)
        back_a = fit.amplitude * math.cos(fit.phase)
        back_b = fit.amplitude * math.sin(fit.phase)
        assert math.isclose(back_a, a, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(back_b, b, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("scale", [0.125, 2.0, 1024.0])
    def test_power_of_two_scaling_is_exact(self, scale):
        t = _grid()
        y = 0.3 + 1.7 * np.sin(OMEGA * t) - 0.4 * np.cos(OMEGA * t)
        f1 = fit_harmonic(t, y, OMEGA)
        f2 = fit_harmonic(t, scale * y, OMEGA)
        assert f2.mean == scale * f1.mean
        assert f2.in_phase == scale * f1.in_phase
        assert f2.out_phase == scale * f1.out_phase
        assert f2.residual_rms == scale * f1.residual_rms

    def test_general_scaling_is_linear(self):
        t = _grid()
        y = 0.3 + 1.7 * np.sin(OMEGA * t) - 0.4 * np.cos(OMEGA * t)
        f1 = fit_harmonic(t, y, OMEGA)
        f2 = fit_harmonic(t, 1.7 * y, OMEGA)
        assert f2.in_phase == pytest.approx(1.7 * f1.in_phase, rel=1e-13)
        assert f2.out_phase == pytest.approx(1.7 * f1.out_phase, rel=1e-13)


def _fits(mean=0.0, a=0.0, b=0.0):
    return {"CL": HarmonicFit(mean, a, b, 0.0, 1.0, 720, 1)}


class TestExtraction:
    def test_alpha_mode_static_slope_arithmetic(self):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.0801, 0.0811)
        dset = extract(_fits(mean=0.25, a=0.4005), spec)
        assert dset.channels["CL"].static_slope == pytest.approx(5.0, rel=1e-12)
        assert dset.channels["CL"].trim_value == 0.25
        assert dset.channels["CL"].rate_derivative is None
        assert dset.provenance == ("alpha",)

    def test_alpha_mode_damping_arithmetic(self):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.0801, 0.0811)
        dset = extract(_fits(b=0.06496), spec)
        assert dset.channels["CL"].damping_sum == pytest.approx(10.0, rel=1e-3)

    def test_q_mode_rate_arithmetic(self):
        spec = OscillationSpec(OscillationMode.Q, 0.0, 0.0801, 0.0811)
        dset = extract(_fits(b=-0.019488), spec)
        assert dset.channels["CL"].rate_derivative == pytest.approx(-3.0, rel=1e-3)
        assert dset.channels["CL"].static_slope is None
        assert dset.provenance == ("q",)

    def test_q_mode_quasi_steady_round_trip(self, linear_plant, agard_q_spec, condition):
        schedule = make_schedule(agard_q_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        dset = extract(fit_series(series, schedule.omega), agard_q_spec, condition)
        cm = dset.channels["Cm"]
        assert cm.rate_derivative == pytest.approx(-3.0, rel=1e-10)
        # expected out-of-phase component at the reference amplitudes
        assert cm.fit.out_phase == pytest.approx(-0.019488, rel=1e-3)

    def test_q_mode_contamination_zero_on_linear_plant(
        self, linear_plant, agard_q_spec, condition
    ):
        schedule = make_schedule(agard_q_spec, condition)
        series = simulate(linear_plant, schedule, condition)
        dset = extract(fit_series(series, schedule.omega), agard_q_spec, condition)
        for ch in dset.channels.values():
            assert abs(ch.contamination) < 1e-12

    def test_indicial_q_mode_rate_matches_flat_plate(self, condition, agard_q_spec):
        from dynderiv import IndicialPlant
        import dataclasses

        spec = dataclasses.replace(agard_q_spec, cycles=22)
        schedule = make_schedule(spec, condition)
        series = simulate(IndicialPlant(pitch_axis=-0.5), schedule, condition)
        dset = extract(fit_series(series, schedule.omega, skip_cycles=2), spec, condition)
        truth = q_mode_oscillation_loads(spec.reduced_frequency, -0.5, deficiency=jones_function)
        want = truth.lift.imag / spec.reduced_frequency
        assert dset.channels["CL"].rate_derivative == pytest.approx(want, rel=0.01)


class TestSeparation:
    def _set(self, mode, k=0.0811, speed=100.0, **channel_kwargs):
        spec = OscillationSpec(mode, 0.0, 0.0801, k)
        cond = FlightCondition(speed, 1.225, 0.2299, 0.6096, 0.1238)
        dset = extract(_fits(), spec, cond)
        if channel_kwargs:
            import dataclasses

            ch = dataclasses.replace(dset.channels["CL"], **channel_kwargs)
            dset = dataclasses.replace(dset, channels={"CL": ch})
        return dset

    def test_difference_arithmetic(self):
        alpha_set = self._set(OscillationMode.ALPHA, damping_sum=-4.2)
        q_set = self._set(OscillationMode.Q, rate_derivative=-3.0)
        merged = separate_rates(alpha_set, q_set)
        assert merged.channels["CL"].aoa_rate_derivative == pytest.approx(-1.2, rel=1e-14)

    def test_identical_values_cancel(self):
        alpha_set = self._set(OscillationMode.ALPHA, damping_sum=2.5)
        q_set = self._set(OscillationMode.Q, rate_derivative=2.5)
        merged = separate_rates(alpha_set, q_set)
        assert merged.channels["CL"].aoa_rate_derivative == 0.0

    def test_k_mismatch_rejected(self):
        alpha_set = self._set(OscillationMode.ALPHA, k=0.0811, damping_sum=1.0)
        q_set = self._set(OscillationMode.Q, k=0.0812, rate_derivative=1.0)
        with pytest.raises(ConditionMismatch):
            separate_rates(alpha_set, q_set)

    def test_condition_mismatch_rejected(self):
        alpha_set = self._set(OscillationMode.ALPHA, speed=100.0, damping_sum=1.0)
        q_set = self._set(OscillationMode.Q, speed=99.0, rate_derivative=1.0)
        with pytest.raises(ConditionMismatch):
            separate_rates(alpha_set, q_set)

    def test_analytic_chain(self):
        # synthesize fits from the two closed-form load sets and separate
        k, a, amp = 0.0811, -0.5, 0.0801
        pitch = pitch_oscillation_loads(k, a, deficiency=jones_function)
        qmode = q_mode_oscillation_loads(k, a, deficiency=jones_function)
        spec_a = OscillationSpec(OscillationMode.ALPHA, 0.0, amp, k)
        spec_q = spec_a.with_mode(OscillationMode.Q)
        fits_a = {"Cm": HarmonicFit(0.0, amp * pitch.moment.real, amp * pitch.moment.imag,
                                    0.0, 1.0, 720, 1)}
        fits_q = {"Cm": HarmonicFit(0.0, amp * qmode.moment.real, amp * qmode.moment.imag,
                                    0.0, 1.0, 720, 1)}
        merged = separate_rates(extract(fits_a, spec_a), extract(fits_q, spec_q))
        want = (pitch.moment.imag - qmode.moment.imag) / k
        assert merged.channels["Cm"].aoa_rate_derivative == pytest.approx(want, rel=1e-10)

    def test_exact_round_trip_at_coarse_sampling(self, condition):
        # spp = 16 is already enough for exact recovery on a linear plant
        rng = np.random.default_rng(5)
        p = QuasiSteadyCoefficients(*rng.uniform(-20, 20, size=11))
        plant = QuasiSteadyPlant(coefficients=p)
        spec = OscillationSpec(OscillationMode.ALPHA, 0.05, 0.08, 0.1,
                               cycles=1, samples_per_cycle=16)
        merged, _ = identify_modes(plant, spec, condition)
        assert merged.channels["CL"].static_slope == pytest.approx(p.CL_alpha, rel=1e-9)
        assert merged.channels["Cm"].rate_derivative == pytest.approx(p.Cm_q, rel=1e-9)
        assert merged.channels["Cm"].aoa_rate_derivative == pytest.approx(p.Cm_alphadot, rel=1e-9)
        assert merged.channels["CL"].damping_sum == pytest.approx(p.CL_q + p.CL_alphadot, rel=1e-9)


class TestLoopMetrics:
    AMP = 0.0801

    def _xy(self, a, b, cycles=1, spp=720, mean=0.0):
        t = _grid(cycles, spp)
        x = self.AMP * np.sin(OMEGA * t)
        y = mean + a * np.sin(OMEGA * t) + b * np.cos(OMEGA * t)
        return t, x, y

    def test_reference_clockwise_loop(self):
        t, x, y = self._xy(a=0.0, b=-0.019488)
        m = loop_metrics(t, x, y, OMEGA)
        assert m.signed_area == pytest.approx(math.pi * self.AMP * -0.019488, rel=1e-3)
        assert m.signed_area == pytest.approx(-0.004904, rel=1e-3)
        assert m.orientation is Orientation.CLOCKWISE

    def test_in_phase_only_is_degenerate(self):
        t, x, y = self._xy(a=0.7, b=0.0)
        m = loop_metrics(t, x, y, OMEGA)
        assert m.signed_area == 0.0
        assert m.orientation is Orientation.DEGENERATE
        assert m.major_axis_slope == pytest.approx(0.7 / self.AMP, rel=1e-9)

    def test_sign_follows_out_of_phase_component(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.uniform(-20, 20)
            b = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 20.0)
            t, x, y = self._xy(a=a, b=b, mean=rng.uniform(-2, 2))
            m = loop_metrics(t, x, y, OMEGA)
            assert math.copysign(1.0, m.signed_area) == math.copysign(1.0, b)
            want = Orientation.CLOCKWISE if b < 0 else Orientation.COUNTERCLOCKWISE
            assert m.orientation is want

    def test_uses_last_cycle_after_skip(self):
        t = _grid(cycles=3)
        x = self.AMP * np.sin(OMEGA * t)
        y = 0.5 * np.cos(OMEGA * t)
        y[:720] = 77.0  # garbage in the first cycle must not matter
        m = loop_metrics(t, x, y, OMEGA, skip_cycles=1)
        assert m.signed_area == pytest.approx(math.pi * self.AMP * 0.5, rel=1e-3)

    def test_area_scales_linearly(self):
        t, x, y = self._xy(a=1.0, b=2.0)
        area1 = loop_metrics(t, x, y, OMEGA).signed_area
        area2 = loop_metrics(t, x, 2.0 * y, OMEGA).signed_area
        assert area2 == pytest.approx(2.0 * area1, rel=1e-13)


class TestValidateFit:
    SPEC = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.0801, 0.0811)

    def test_exact_fit_is_clean(self):
        t = _grid()
        fit = fit_harmonic(t, 1.0 + 0.5 * np.sin(OMEGA * t), OMEGA)
        assert validate_fit(fit, self.SPEC) == []

    def test_wrong_frequency_raises_residual_flag(self):
        t = _grid()
        y = np.sin(OMEGA * t)
        fit = fit_harmonic(t, y, OMEGA * 1.1)
        assert fit.residual_rms > 0.1 * max(fit.amplitude, 1e-30)
        assert RESIDUAL_FLAG in validate_fit(fit, self.SPEC)

    def test_q_mode_contamination_flag(self):
        spec = self.SPEC.with_mode(OscillationMode.Q)
        dirty = HarmonicFit(0.0, 0.3, 1.0, 0.0, 1.0, 720, 1)
        clean = HarmonicFit(0.0, 1e-14, 1.0, 0.0, 1.0, 720, 1)
        assert CONTAMINATION_FLAG in validate_fit(dirty, spec)
        assert CONTAMINATION_FLAG not in validate_fit(clean, spec)
        # in incidence mode, in-phase content is signal, not contamination
        assert validate_fit(dirty, self.SPEC) == []

    def test_noise_monte_carlo(self):
        # flag iff residual exceeds threshold; error shrinks like 1/sqrt(N)
        amplitude = 0.5
        errors = {720: [], 2880: []}
        flagged_loud = flagged_quiet = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            for spp in errors:
                t = _grid(1, spp)
                clean = amplitude * np.sin(OMEGA * t)
                noisy = clean + 2e-3 * amplitude * rng.standard_normal(len(t))
                fit = fit_harmonic(t, noisy, OMEGA)
                errors[spp].append(abs(fit.in_phase - amplitude))
                if spp == 720:
                    if RESIDUAL_FLAG in validate_fit(fit, self.SPEC):
                        flagged_loud += 1
                    quiet = clean + 1e-5 * amplitude * rng.standard_normal(len(t))
                    quiet_fit = fit_harmonic(t, quiet, OMEGA)
                    if RESIDUAL_FLAG in validate_fit(quiet_fit, self.SPEC):
                        flagged_quiet += 1
        assert flagged_loud == 120      # 2e-3 relative noise is over the 1e-3 bar
        assert flagged_quiet == 0       # 1e-5 relative noise is under it
        ratio = np.mean(errors[720]) / np.mean(errors[2880])
        assert 1.5 < ratio < 2.7        # ~sqrt(2880/720) = 2
