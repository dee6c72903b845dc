"""Harmonic regression, derivative extraction, separation, loop metrics."""

import dataclasses
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynderiv.identify as identify
from dynderiv import (
    ChannelDerivatives,
    CoefficientSeries,
    ConditionMismatch,
    DomainError,
    FlightCondition,
    HarmonicFit,
    InsufficientSamples,
    NonFiniteData,
    OscillationMode,
    OscillationSpec,
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
from dynderiv.identify import (
    CONDITIONING_FLAG,
    CONTAMINATION_FLAG,
    RESIDUAL_FLAG,
    RESOLUTION_FLAG,
)
from dynderiv.series import CHANNELS

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
        with pytest.raises(InsufficientSamples):
            fit_harmonic([], [], OMEGA)

    def test_non_finite_rejected(self):
        t = _grid()
        y = np.sin(OMEGA * t)
        y[3] = np.nan
        with pytest.raises(NonFiniteData):
            fit_harmonic(t, y, OMEGA)

    def test_values_beyond_1e150_are_out_of_range(self):
        # their squares in the residual would overflow; 1e150 itself still fits
        t = _grid()
        fit_harmonic(t, 1e150 * np.sin(OMEGA * t), OMEGA)
        with pytest.raises(NonFiniteData, match=r"values up to 1e\+200 are out of range"):
            fit_harmonic(t, 1e200 * np.sin(OMEGA * t), OMEGA)

    def test_two_samples_per_period_are_aliased(self):
        # 16 periods of 2 samples: the sin column is zero at every sample
        t = np.arange(32) / 2.0
        with pytest.raises(InsufficientSamples, match="need more than 2 per period"):
            fit_harmonic(t, 0.1 + np.cos(OMEGA * t), OMEGA)

    def test_three_samples_per_period_are_enough(self):
        t = np.arange(24) / 3.0
        fit = fit_harmonic(t, 0.1 + 2.0 * np.sin(OMEGA * t) - 0.5 * np.cos(OMEGA * t), OMEGA)
        assert (fit.n_samples, fit.n_periods) == (24, 8)
        assert fit.in_phase == pytest.approx(2.0, rel=1e-12)
        assert fit.out_phase == pytest.approx(-0.5, rel=1e-12)

    def test_uniform_grid_conditioning_is_benign(self):
        t = _grid()
        fit = fit_harmonic(t, np.sin(OMEGA * t), OMEGA)
        assert fit.condition_indicator == pytest.approx(math.sqrt(2.0), rel=1e-9)

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


@pytest.mark.parametrize("skip", ["1", None, 1.5, True], ids=["str", "None", "1.5", "True"])
@pytest.mark.parametrize("fit", [
    lambda t, y, skip: fit_harmonic(t, y, OMEGA, skip),
    lambda t, y, skip: fit_series(CoefficientSeries(t, CL=y), OMEGA, skip),
    lambda t, y, skip: loop_metrics(t, np.sin(OMEGA * t), y, OMEGA, skip),
], ids=["fit_harmonic", "fit_series", "loop_metrics"])
def test_skip_is_a_whole_number_of_cycles(fit, skip):
    # 1.5 would fit from half a period in, True as 1; "1" and None were a bare TypeError
    t = _grid(cycles=4, spp=16)
    with pytest.raises(DomainError, match="^skip_cycles must be an integer"):
        fit(t, np.cos(OMEGA * t), skip)


def _lstsq_fit(times, values, omega, skip_cycles=0):
    """The fit of one channel by ``np.linalg.lstsq`` on the same window: the reference."""
    sel, n_periods, _ = identify._window(times, omega, skip_cycles)
    t, y = times[sel], values[sel]
    design = np.column_stack([np.ones_like(t), np.sin(omega * t), np.cos(omega * t)])
    beta, _, rank, sigma = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    cond = float(sigma[0] / sigma[-1]) if rank == 3 else math.inf
    return HarmonicFit(float(beta[0]), float(beta[1]), float(beta[2]),
                       float(np.sqrt(np.mean(resid * resid))), cond, len(t), n_periods)


def _three_channel_series(kind):
    """CL, CD and Cm with every first-harmonic part nonzero and a second harmonic
    in the residual, on a uniform, a jittered or a uniform-and-noisy grid."""
    rng = np.random.default_rng(23)
    n = 5 * 180
    t = np.arange(n) / 180.0
    if kind == "nonuniform":
        t = t + rng.uniform(-0.3, 0.3, size=n) / 180.0       # jittered, still increasing
    channels = {}
    for name, (m, a, b, h) in {"CL": (0.2, 1.3, -0.4, 0.05), "CD": (0.03, 0.2, 0.07, 0.01),
                               "Cm": (-0.05, -0.6, -0.25, 0.02)}.items():
        y = m + a * np.sin(OMEGA * t) + b * np.cos(OMEGA * t) + h * np.sin(2 * OMEGA * t)
        if kind == "noisy":
            y = y + 0.01 * rng.standard_normal(n)
        channels[name] = y
    return CoefficientSeries(t, **channels)


class TestFitSeries:
    @pytest.mark.parametrize("kind", ["uniform", "nonuniform", "noisy"])
    @pytest.mark.parametrize("skip", [0, 2])
    def test_each_fit_matches_lstsq(self, kind, skip):
        series = _three_channel_series(kind)
        fits = fit_series(series, OMEGA, skip)
        assert list(fits) == ["CL", "CD", "Cm"]
        for name, fit in fits.items():
            want = _lstsq_fit(series.times, getattr(series, name), OMEGA, skip)
            assert (fit.n_samples, fit.n_periods) == (want.n_samples, want.n_periods)
            for field in ("mean", "in_phase", "out_phase", "residual_rms", "condition_indicator"):
                assert getattr(fit, field) == pytest.approx(getattr(want, field), rel=1e-12), field

    @pytest.mark.parametrize("skip", [0, 2])
    def test_time_stamp_fit_is_one_product_with_the_pseudo_inverse(self, skip):
        # a basis on an export's own stamps spans its whole window: one row, fitted as pinv @ y
        series = _three_channel_series("nonuniform")
        basis = identify._harmonic_basis(series.times, OMEGA, skip)
        assert len(basis.design) == basis.window.stop - basis.window.start
        for name, values in series.channels().items():
            y = values[basis.window]
            beta = basis.pinv @ y
            resid = y - basis.design @ beta
            want = (float(beta[0]), float(beta[1]), float(beta[2]),
                    math.sqrt((resid * resid).mean()), len(y))
            fit = fit_harmonic(series.times, values, OMEGA, skip)
            got = (fit.mean, fit.in_phase, fit.out_phase, fit.residual_rms, fit.n_samples)
            assert got == want, name

    def test_numerically_rank_deficient_basis_matches_lstsq(self):
        # three samples one ulp apart at each half period: only two phases per
        # period, so the sin column is zero to rounding and the rank is 2
        half = np.arange(16) / 2.0
        once = np.nextafter(half, np.inf)
        t = np.sort(np.concatenate([half, once, np.nextafter(once, np.inf)]))
        y = 0.3 + 1.5 * np.cos(OMEGA * t) + 0.01 * np.arange(len(t))
        fit = fit_harmonic(t, y, OMEGA)
        want = _lstsq_fit(t, y, OMEGA)
        assert fit.condition_indicator == want.condition_indicator == math.inf
        assert fit.mean == pytest.approx(want.mean, rel=1e-12)
        assert fit.out_phase == pytest.approx(want.out_phase, rel=1e-12)
        assert fit.in_phase == pytest.approx(want.in_phase, abs=1e-12)
        assert fit.residual_rms == pytest.approx(want.residual_rms, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_series_rejects_a_non_finite_time(self, bad):
        t = _grid(1)
        y = np.sin(OMEGA * t)
        t[5] = bad
        with pytest.raises(NonFiniteData, match="^times contain non-finite values$"):
            CoefficientSeries(t, CL=y)

    def test_basis_arrays_are_read_only(self):
        basis = identify._harmonic_basis(_grid(2), OMEGA, 0)
        for array in (basis.design, basis.pinv):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_one_window_per_series_and_one_fit_harmonic_call_per_channel(self, monkeypatch):
        calls = {"fit_harmonic": 0, "_window": 0}
        for name in calls:
            real = getattr(identify, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(identify, name, counted)
        fit_series(_three_channel_series("uniform"), OMEGA, 1)
        assert calls == {"fit_harmonic": 3, "_window": 1}
        t = _grid(2)
        fit_series(CoefficientSeries(t, CL=np.sin(OMEGA * t), Cm=np.cos(OMEGA * t)), OMEGA)
        assert calls == {"fit_harmonic": 5, "_window": 2}


def _fits(mean=0.0, a=0.0, b=0.0):
    return {"CL": HarmonicFit(mean, a, b, 0.0, 1.0, 720, 1)}


class TestExtraction:
    def test_alpha_mode_static_slope_arithmetic(self):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.0801, 0.0811)
        dset = extract(_fits(mean=0.25, a=0.4005), spec)
        assert dset.channels["CL"].static_slope == pytest.approx(5.0, rel=1e-12)
        assert dset.channels["CL"].trim_value == 0.25
        assert dset.channels["CL"].rate_derivative is None
        assert dset.spec == spec

    @pytest.mark.parametrize("mode", list(OscillationMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("a, b", [(1e150, 0.0), (0.0, -1e150)], ids=["in", "out"])
    def test_a_quotient_that_overflows_names_its_channel(self, mode, a, b):
        spec = OscillationSpec(mode, 0.0, 1e-300, 1.0)
        with pytest.raises(NonFiniteData, match=r"^CL: in-phase / A and out-of-phase / \(k\*A\)"):
            extract(_fits(a=a, b=b), spec)

    def test_alpha_mode_damping_arithmetic(self):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.0801, 0.0811)
        dset = extract(_fits(b=0.06496), spec)
        assert dset.channels["CL"].damping_sum == pytest.approx(10.0, rel=1e-3)

    def test_q_mode_rate_arithmetic(self):
        spec = OscillationSpec(OscillationMode.Q, 0.0, 0.0801, 0.0811)
        dset = extract(_fits(b=-0.019488), spec)
        assert dset.channels["CL"].rate_derivative == pytest.approx(-3.0, rel=1e-3)
        assert dset.channels["CL"].static_slope is None
        assert dset.spec == spec

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

    def test_aoa_rate_derivative_is_derived_from_both_modes(self):
        both = ChannelDerivatives(rate_derivative=-3.0, damping_sum=-4.2)
        assert both.aoa_rate_derivative == -4.2 - -3.0
        assert ChannelDerivatives(damping_sum=-4.2).aoa_rate_derivative is None
        assert ChannelDerivatives(rate_derivative=-3.0).aoa_rate_derivative is None
        with pytest.raises(TypeError):
            ChannelDerivatives(aoa_rate_derivative=1.0)

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

    @pytest.mark.parametrize("field", [f.name for f in fields(FlightCondition)])
    def test_conditions_that_differ_in_any_field_are_rejected(self, field):
        alpha_set = self._set(OscillationMode.ALPHA, damping_sum=1.0)
        q_set = self._set(OscillationMode.Q, rate_derivative=1.0)
        value = getattr(q_set.condition, field)
        moved = dataclasses.replace(q_set.condition,
                                    **{field: 340.0 if value is None else value * 1.01})
        with pytest.raises(ConditionMismatch, match=f"flight conditions differ in {field}: "):
            separate_rates(alpha_set, dataclasses.replace(q_set, condition=moved))

    def test_a_set_without_a_condition_is_rejected(self):
        alpha_set = self._set(OscillationMode.ALPHA)
        q_set = self._set(OscillationMode.Q)
        bare = dataclasses.replace(q_set, condition=None)
        for sets in [(alpha_set, bare), (dataclasses.replace(alpha_set, condition=None), q_set)]:
            with pytest.raises(ConditionMismatch, match="one derivative set has a flight "
                                                        "condition, another does not"):
                separate_rates(*sets)
        unconditioned = dataclasses.replace(alpha_set, condition=None)
        assert separate_rates(unconditioned, bare).condition is None

    @pytest.mark.parametrize("modes", [(OscillationMode.Q, OscillationMode.ALPHA),
                                       (OscillationMode.ALPHA, OscillationMode.ALPHA),
                                       (OscillationMode.Q, OscillationMode.Q)])
    def test_sets_must_be_alpha_then_q(self, modes):
        first, second = (self._set(mode) for mode in modes)
        with pytest.raises(ConditionMismatch, match="distinct modes in OscillationMode order"):
            separate_rates(first, second)

    def test_merged_set_is_not_an_alpha_set(self):
        # a merged set keeps the alpha spec; merging it again would hide the new q set
        merged = separate_rates(self._set(OscillationMode.ALPHA), self._set(OscillationMode.Q))
        with pytest.raises(ConditionMismatch, match="merged already"):
            separate_rates(merged, self._set(OscillationMode.Q, rate_derivative=9.0))

    def test_a_q_set_holding_an_alpha_value_is_merged_already(self):
        q_set = self._set(OscillationMode.Q, static_slope=5.0)
        with pytest.raises(ConditionMismatch, match="q-mode set .* merged already"):
            separate_rates(self._set(OscillationMode.ALPHA), q_set)
        with pytest.raises(ConditionMismatch, match="merged already"):
            separate_rates(q_set)

    @pytest.mark.parametrize("mode", list(OscillationMode))
    def test_one_set_merges_to_an_equal_set(self, mode):
        spec = OscillationSpec(mode, 0.0, 0.0801, 0.0811)
        dset = extract({name: _fits()["CL"] for name in CHANNELS[::-1]}, spec,
                       FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238))
        merged = separate_rates(dset)
        assert merged == dset and merged.spec is dset.spec
        assert list(merged.channels) == list(dset.channels)

    def test_no_set_is_rejected(self):
        with pytest.raises(ConditionMismatch, match="distinct modes"):
            separate_rates()

    def test_merge_keeps_the_alpha_set_channel_order(self):
        # not the order of a set of names, which changes with the hash seed
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.0801, 0.0811)
        q_set = extract({name: _fits()["CL"] for name in CHANNELS},
                        spec.with_mode(OscillationMode.Q))
        for order in (CHANNELS, CHANNELS[::-1], ("Cm", "CL")):
            alpha_set = extract({name: _fits()["CL"] for name in order}, spec)
            assert list(separate_rates(alpha_set, q_set).channels) == list(order)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_merge_keeps_every_value_either_mode_identifies(self, data):
        # the incidence channel's values reach the merged channel, and so do the
        # flow-path channel's values where the incidence channel holds none
        value = st.floats(-1e3, 1e3)
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, data.draw(st.floats(1e-3, 0.5)),
                               data.draw(st.floats(0.01, 2.0)))

        def fits():
            names = data.draw(st.sets(st.sampled_from(CHANNELS), min_size=1))
            return {name: HarmonicFit(data.draw(value), data.draw(value), data.draw(value),
                                      0.0, 1.0, 720, 1) for name in sorted(names)}

        alpha_set = extract(fits(), spec)
        q_set = extract(fits(), spec.with_mode(OscillationMode.Q))
        shared = alpha_set.channels.keys() & q_set.channels.keys()
        if not shared:
            with pytest.raises(ConditionMismatch, match="share no channels"):
                separate_rates(alpha_set, q_set)
            return
        merged = separate_rates(alpha_set, q_set)
        assert merged.channels.keys() == shared
        assert merged.spec is alpha_set.spec
        for name in shared:
            top, base, out = (s.channels[name] for s in (alpha_set, q_set, merged))
            for field in fields(ChannelDerivatives):
                held = getattr(top, field.name)
                want = held if held is not None else getattr(base, field.name)
                assert getattr(out, field.name) is want, (name, field.name)
            assert out.aoa_rate_derivative == top.damping_sum - base.rate_derivative

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
        p = QuasiSteadyPlant(*rng.uniform(-20, 20, size=11))
        spec = OscillationSpec(OscillationMode.ALPHA, 0.05, 0.08, 0.1,
                               cycles=1, samples_per_cycle=16)
        merged, _ = identify_modes(p, spec, condition)
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
        area = loop_metrics(t, x, y, OMEGA)
        assert type(area) is float
        assert area == pytest.approx(math.pi * self.AMP * -0.019488, rel=1e-3)
        assert area == pytest.approx(-0.004904, rel=1e-3)
        assert area < 0.0                   # clockwise

    def test_in_phase_only_is_degenerate(self):
        t, x, y = self._xy(a=0.7, b=0.0)
        area = loop_metrics(t, x, y, OMEGA)
        assert area == 0.0 and math.copysign(1.0, area) == 1.0   # zeroed to +0.0, no sign

    def test_sign_follows_out_of_phase_component(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.uniform(-20, 20)
            b = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 20.0)
            t, x, y = self._xy(a=a, b=b, mean=rng.uniform(-2, 2))
            area = loop_metrics(t, x, y, OMEGA)
            assert area == pytest.approx(math.pi * self.AMP * b, rel=1e-4)
            assert math.copysign(1.0, area) == math.copysign(1.0, b)

    def test_uses_last_cycle_after_skip(self):
        t = _grid(cycles=3)
        x = self.AMP * np.sin(OMEGA * t)
        y = 0.5 * np.cos(OMEGA * t)
        y[:720] = 77.0  # garbage in the first cycle must not matter
        area = loop_metrics(t, x, y, OMEGA, skip_cycles=1)
        assert area == pytest.approx(math.pi * self.AMP * 0.5, rel=1e-3)

    def test_non_finite_time_rejected(self):
        t, x, y = self._xy(a=1.0, b=2.0)
        t[5] = np.nan
        with pytest.raises(NonFiniteData, match="times"):
            loop_metrics(t, x, y, OMEGA)

    @pytest.mark.parametrize("series", ["x", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_loop_series_rejected(self, series, value):
        t, x, y = self._xy(a=1.0, b=2.0)
        {"x": x, "y": y}[series][5] = value
        with pytest.raises(NonFiniteData, match="loop series contain non-finite entries"):
            loop_metrics(t, x, y, OMEGA)

    def test_last_cycle_needs_8_samples(self):
        # 3 periods of 4 samples: the window holds 12, its last cycle 4
        t, x, y = self._xy(a=1.0, b=2.0, cycles=3, spp=4)
        assert fit_harmonic(t, y, OMEGA).n_samples == 12
        with pytest.raises(InsufficientSamples, match="only 4 samples in the last cycle"):
            loop_metrics(t, x, y, OMEGA)

    @pytest.mark.parametrize("shape", ["short", "column", "rows", "scalar"])
    @pytest.mark.parametrize("function", ["fit_harmonic", "loop_metrics"])
    def test_arrays_must_be_1d_and_as_long_as_times(self, function, shape):
        t, x, y = self._xy(a=1.0, b=2.0, cycles=2, spp=16)
        t, x, y = {"short": (t, x[:-1], y[:-1]), "column": (t[:, None], x[:, None], y[:, None]),
                   "rows": (t.reshape(2, 16), x.reshape(2, 16), y.reshape(2, 16)),
                   "scalar": (t[0], x[0], y[0])}[shape]
        with pytest.raises(DomainError, match="1-D array"):
            if function == "fit_harmonic":
                fit_harmonic(t, y, OMEGA)
            else:
                loop_metrics(t, x, y, OMEGA)

    @pytest.mark.parametrize("omega", [0.0, -OMEGA, math.nan])
    def test_omega_must_be_positive(self, omega):
        t, x, y = self._xy(a=1.0, b=2.0)
        with pytest.raises(DomainError, match="omega"):
            loop_metrics(t, x, y, omega)

    def test_area_that_could_overflow_is_out_of_range(self):
        t, x, y = self._xy(a=1.0, b=2.0)
        with pytest.raises(NonFiniteData, match="out of range"):
            loop_metrics(t, 1e200 * x, 1e200 * y, OMEGA)

    def test_area_scales_linearly(self):
        t, x, y = self._xy(a=1.0, b=2.0)
        area1 = loop_metrics(t, x, y, OMEGA)
        area2 = loop_metrics(t, x, 2.0 * y, OMEGA)
        assert area2 == pytest.approx(2.0 * area1, rel=1e-13)


def reference_loop_area(times, x, y, omega, skip_cycles=0):
    """(scale, area) of loop_metrics as np.diff and np.roll wrote its closed trapezoid."""
    sel, _, last = identify._window(times, omega, skip_cycles)
    xs, ys = x[last:sel.stop], y[last:sel.stop]
    scale = float(np.max(np.abs(xs))) * float(np.max(np.abs(ys)))
    area = float(np.sum(0.5 * (ys + np.roll(ys, -1)) * np.diff(xs, append=xs[:1])))
    tol = 32.0 * len(xs) * np.finfo(float).eps * scale
    return scale, 0.0 if abs(area) <= tol else area


@st.composite
def loop_cases(draw):
    """(times, x, y, skip): noise, or loops whose area sits near the zeroing threshold.

    x and y are scaled from 1e-300 to 1e150, and some of their samples are -0.0.
    A threshold loop y = sin + b*cos over x = sin has area / threshold = ratio.
    """
    spc, cycles = draw(st.integers(8, 64)), draw(st.integers(1, 3))
    skip = draw(st.integers(0, cycles - 1))
    t = _grid(cycles, spc)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_scale, y_scale = (10.0 ** draw(st.floats(-300.0, 150.0)) for _ in "xy")
    if draw(st.booleans()):
        x, y = x_scale * rng.uniform(-1.0, 1.0, len(t)), y_scale * rng.uniform(-1.0, 1.0, len(t))
    else:
        b = draw(st.floats(0.5, 2.0)) * 32.0 * spc * np.finfo(float).eps / math.pi
        x = x_scale * np.sin(OMEGA * t)
        y = y_scale * (np.sin(OMEGA * t) + draw(st.sampled_from([-b, b])) * np.cos(OMEGA * t))
    negative_zero = draw(st.floats(0.0, 1.0))
    x[rng.random(len(t)) < negative_zero] = -0.0
    y[rng.random(len(t)) < negative_zero] = -0.0
    return t, x, y, skip


class TestLoopAreaArithmetic:
    """The closed trapezoid keeps the operands and order of np.diff(append=) and np.roll."""

    @given(loop_cases())
    @example((_grid(1, 8), np.sin(OMEGA * _grid(1, 8)), np.full(8, -0.0), 0))
    @example((_grid(2, 8), -np.cos(OMEGA * _grid(2, 8)), np.sin(OMEGA * _grid(2, 8)), 1))
    @settings(max_examples=300, deadline=None)
    def test_area_equals_the_wrapper_form(self, case):
        t, x, y, skip = case
        scale, expected = reference_loop_area(t, x, y, OMEGA, skip)
        basis = identify._harmonic_basis(t, OMEGA, skip)
        for kwargs in ({}, {"_basis": basis}):
            if scale > 1e300:
                with pytest.raises(NonFiniteData, match="out of range"):
                    loop_metrics(t, x, y, OMEGA, skip, **kwargs)
                continue
            area = loop_metrics(t, x, y, OMEGA, skip, **kwargs)
            assert area == expected and math.copysign(1.0, area) == math.copysign(1.0, expected)


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

    def test_conditioning_flag_above_1e6(self):
        fit = HarmonicFit(0.0, 0.0, 1.0, 0.0, 1e6, 720, 1)
        assert validate_fit(fit, self.SPEC) == []
        ill = dataclasses.replace(fit, condition_indicator=1.01e6)
        assert validate_fit(ill, self.SPEC) == [CONDITIONING_FLAG]
        assert validate_fit(dataclasses.replace(fit, condition_indicator=math.inf),
                            self.SPEC) == [CONDITIONING_FLAG]

    @pytest.mark.parametrize("mode", list(OscillationMode))
    def test_resolution_flag_where_the_trim_swamps_the_oscillation(self, condition, mode):
        # eps * |trim| against 1e-6 * min(A, k*A): CL 0.2 and Cm -0.05 at A = 1e-12 rad
        # are over the bar, the all-zero CD is not, and no channel is at A = 1e-6
        plant = QuasiSteadyPlant(CL0=0.2, CL_alpha=5.0, Cm_q=-3.0, Cm0=-0.05)
        flagged = {}
        for amp in (1e-12, 1e-6):
            spec = OscillationSpec(mode, 0.0, amp, 0.1)
            dset, _ = identify_modes(plant, spec, condition, modes=(mode,))
            flagged[amp] = {name for name, ch in dset.channels.items()
                            if RESOLUTION_FLAG in validate_fit(ch.fit, spec)}
        assert flagged == {1e-12: {"CL", "Cm"}, 1e-6: set()}

    def test_rounding_is_no_residual_or_contamination_but_noise_is(self, condition,
                                                                   agard_alpha_spec):
        # CL is constant: its fitted amplitude (~1e-17) and residual (~1e-15) are rounding,
        # under eps * |mean| * n_samples (~1e-13); the amplitude-relative bars alone flag them
        flow_path = OscillationSpec(OscillationMode.Q, agard_alpha_spec.mean_incidence, 1e-6, 0.1)
        for plant, spec in [(QuasiSteadyPlant(CL0=0.2, Cm_alpha=-1.0), agard_alpha_spec),
                            (QuasiSteadyPlant(CL0=0.2, CL_alpha=5.0, Cm_q=-3.0, Cm0=-0.05),
                             flow_path)]:
            dset, _ = identify_modes(plant, spec, condition, modes=(spec.mode,))
            fit = dset.channels["CL"].fit
            assert fit.amplitude < 1e-15 < fit.residual_rms
            assert validate_fit(fit, spec) == []
        t = _grid(3)
        noisy = 0.2 + 1e-6 * np.random.default_rng(5).standard_normal(len(t))
        assert validate_fit(fit_harmonic(t, noisy, OMEGA), agard_alpha_spec) == [RESIDUAL_FLAG]

    def test_agard_point_raises_no_flag(self, linear_plant, condition, agard_alpha_spec):
        for mode in OscillationMode:
            spec = agard_alpha_spec.with_mode(mode)
            dset, _ = identify_modes(linear_plant, spec, condition, modes=(mode,))
            assert [validate_fit(ch.fit, spec) for ch in dset.channels.values()] == [[]] * 3

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
