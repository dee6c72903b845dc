"""Harmonic motion schedules: conventions, grids, and the two modes."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynderiv import (
    DomainError,
    FlightCondition,
    NonDimensionalizationUndefined,
    OscillationMode,
    OscillationSpec,
    QuasiSteadyPlant,
    ZeroAmplitude,
    ZeroReducedFrequency,
    make_schedule,
    omega_from_k,
    sample_grid,
)
from dynderiv.kinematics import MAX_SAMPLES, MotionSchedule

AGARD_K = 0.0811
AGARD_AMP_DEG = 4.59
AGARD_MEAN_DEG = 3.16


def _rate_hats(schedule, cond):
    """(q-hat, alpha_dot-hat) as a plant sees them: a linear plant's CL and Cm."""
    cl, _, cm = QuasiSteadyPlant(CL_q=1.0, Cm_alphadot=1.0).coefficient_histories(schedule, cond)
    return cl, cm


class TestOmegaFromK:
    def test_simple_arithmetic(self):
        cond = FlightCondition(50.0, 1.0, 1.0, 1.0, 1.0)
        assert omega_from_k(0.5, cond) == 50.0

    def test_reference_case(self, condition):
        omega = omega_from_k(AGARD_K, condition)
        assert omega == 2.0 * AGARD_K * 100.0 / 0.2299
        assert omega == pytest.approx(70.55, abs=0.01)

    def test_hover_is_undefined(self):
        cond = FlightCondition(0.0, 1.225, 0.2299, 0.6096, 0.1238)
        with pytest.raises(NonDimensionalizationUndefined):
            omega_from_k(AGARD_K, cond)

    def test_nonpositive_k(self, condition):
        with pytest.raises(ValueError):
            omega_from_k(-0.1, condition)


class TestSampleGrid:
    def test_uniform_fractions_of_unit_period(self):
        # t_i = i * T / samples_per_cycle at the minimum sampling density
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.1, cycles=1, samples_per_cycle=8)
        grid = sample_grid(spec, 2.0 * math.pi)
        np.testing.assert_allclose(grid, np.arange(8) / 8.0, rtol=1e-15)

    def test_two_cycles_720(self):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.1, cycles=2, samples_per_cycle=720)
        grid = sample_grid(spec, 2.0 * math.pi)
        assert len(grid) == 1440
        assert grid[-1] == pytest.approx(1439.0 / 720.0, rel=1e-14)

    def test_step_at_reference_frequency(self):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.1, cycles=1, samples_per_cycle=720)
        grid = sample_grid(spec, 70.55)
        assert grid[1] - grid[0] == pytest.approx(1.2368e-4, rel=1e-3)

    def test_endpoint_excluded(self):
        spec = OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.1, cycles=3, samples_per_cycle=16)
        grid = sample_grid(spec, 2.0 * math.pi)
        assert len(grid) == 48
        assert grid[-1] < 3.0  # t = cycles*T never appears


class TestOscillationSpec:
    def test_zero_amplitude_rejected(self):
        with pytest.raises(ZeroAmplitude):
            OscillationSpec(OscillationMode.ALPHA, 0.0, 0.0, 0.1)

    def test_zero_k_rejected(self):
        with pytest.raises(ZeroReducedFrequency):
            OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.0)

    @pytest.mark.parametrize("cycles,spp", [(0, 720), (3, 7), (-1, 720),
                                            (3.0, 720), (True, 720), (3, 720.0)])
    def test_bad_sampling(self, cycles, spp):
        with pytest.raises(ValueError):
            OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.1, cycles=cycles, samples_per_cycle=spp)

    @pytest.mark.parametrize("amp, k, field", [
        (1e-320, 1.0, "body_amplitude"),
        (sys.float_info.min, 0.5, "reduced_frequency"),
        (1e-300, 1e-10, "reduced_frequency"),
    ])
    def test_amplitude_and_rate_scale_are_normal_floats(self, amp, k, field):
        # below the smallest normal float the derivative quotients drift or overflow
        with pytest.raises(DomainError) as info:
            OscillationSpec(OscillationMode.ALPHA, 0.0, amp, k)
        assert info.value.field == field
        assert repr(sys.float_info.min) in info.value.rule

    @pytest.mark.parametrize("cycles,spp", [(10**30, 720), (3, 10**30)])
    def test_sample_count_bound(self, cycles, spp):
        with pytest.raises(DomainError) as info:
            OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.1,
                            cycles=cycles, samples_per_cycle=spp)
        assert info.value.field == "samples_per_cycle"
        assert f"<= {MAX_SAMPLES}" in info.value.rule

    def test_degree_round_trip(self):
        spec = OscillationSpec.from_degrees(
            OscillationMode.ALPHA, AGARD_MEAN_DEG, AGARD_AMP_DEG, AGARD_K
        )
        assert math.degrees(spec.mean_incidence) == pytest.approx(AGARD_MEAN_DEG, rel=1e-12)
        assert math.degrees(spec.body_amplitude) == pytest.approx(AGARD_AMP_DEG, rel=1e-12)


class TestAlphaModeSchedule:
    @pytest.fixture
    def schedule(self, agard_alpha_spec, condition):
        return make_schedule(agard_alpha_spec, condition)

    def test_start_state(self, schedule, agard_alpha_spec, condition):
        spec = agard_alpha_spec
        assert schedule.relative_aoa[0] == spec.mean_incidence
        qhat, adot_hat = _rate_hats(schedule, condition)
        np.testing.assert_array_equal(adot_hat, qhat)
        qhat0 = qhat[0]
        assert qhat0 == pytest.approx(spec.reduced_frequency * spec.body_amplitude, rel=1e-12)
        # reference arithmetic: 0.0811 * 0.0801 rad
        assert qhat0 == pytest.approx(0.006496, rel=5e-4)

    def test_quarter_period_peak(self, schedule, agard_alpha_spec):
        spec = agard_alpha_spec
        i = spec.samples_per_cycle // 4
        assert schedule.relative_aoa[i] == pytest.approx(
            spec.mean_incidence + spec.body_amplitude, rel=1e-12
        )
        assert abs(schedule.pitch_rate[i]) < 1e-10 * schedule.omega * spec.body_amplitude

    def test_relative_aoa_identity(self, schedule, agard_alpha_spec):
        # the body pitch in a fixed freestream, bit for bit
        spec = agard_alpha_spec
        np.testing.assert_array_equal(
            schedule.relative_aoa,
            spec.mean_incidence + spec.body_amplitude * np.sin(schedule.omega * schedule.time),
        )

    def test_rates_are_analytic(self, schedule, agard_alpha_spec):
        # closed-form cosine, not a finite difference of the pitch history
        expected = schedule.omega * agard_alpha_spec.body_amplitude * np.cos(
            schedule.omega * schedule.time
        )
        np.testing.assert_array_equal(schedule.pitch_rate, expected)

    def test_grid_contract(self, schedule, agard_alpha_spec):
        spec = agard_alpha_spec
        assert len(schedule) == spec.cycles * spec.samples_per_cycle
        steps = np.diff(schedule.time)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)

    def test_prefix_agrees_with_single_cycle(self, agard_alpha_spec, condition):
        import dataclasses

        one = make_schedule(
            dataclasses.replace(agard_alpha_spec, cycles=1), condition
        )
        many = make_schedule(agard_alpha_spec, condition)
        n = len(one)
        np.testing.assert_array_equal(many.time[:n], one.time)
        np.testing.assert_array_equal(many.relative_aoa[:n], one.relative_aoa)
        np.testing.assert_array_equal(many.pitch_rate[:n], one.pitch_rate)


class TestQModeSchedule:
    @pytest.fixture
    def schedule(self, agard_q_spec, condition):
        return make_schedule(agard_q_spec, condition)

    def test_aoa_constant(self, schedule, agard_q_spec):
        assert np.max(np.abs(schedule.relative_aoa - agard_q_spec.mean_incidence)) == 0.0

    def test_start_rates(self, schedule, agard_q_spec, condition):
        spec = agard_q_spec
        qhat, adot_hat = _rate_hats(schedule, condition)
        assert qhat[0] == pytest.approx(spec.reduced_frequency * spec.body_amplitude, rel=1e-12)
        np.testing.assert_array_equal(adot_hat, 0.0)
        np.testing.assert_array_equal(schedule.aoa_rate, 0.0)

    def test_randomized_decoupling(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            spec = OscillationSpec(
                mode=OscillationMode.Q,
                mean_incidence=rng.uniform(-0.5, 0.5),
                body_amplitude=rng.uniform(1e-3, 0.5),
                reduced_frequency=rng.uniform(5e-3, 1.0),
                cycles=int(rng.integers(1, 5)),
                samples_per_cycle=int(rng.integers(8, 257)),
            )
            condition = FlightCondition(rng.uniform(1.0, 300.0), 1.225, rng.uniform(0.05, 5.0),
                                        1.0, 1.0)
            sched = make_schedule(spec, condition)
            assert np.max(np.abs(sched.relative_aoa - spec.mean_incidence)) < 1e-12


# the arrays of one body motion, which every mode flies unchanged
_SHARED = ("time", "pitch_rate", "pitch_accel", "phase_sin", "phase_cos")


class TestSharedMotion:
    """One schedule flown in another mode is the schedule made in that mode."""

    @given(mean_deg=st.floats(-30.0, 30.0), amp_deg=st.floats(1e-6, 30.0),
           k=st.floats(0.01, 5.0), cycles=st.integers(1, 4), spc=st.integers(8, 256),
           speed=st.floats(0.5, 300.0), chord=st.floats(0.01, 10.0),
           first=st.sampled_from(list(OscillationMode)))
    @example(mean_deg=AGARD_MEAN_DEG, amp_deg=AGARD_AMP_DEG, k=AGARD_K, cycles=3, spc=720,
             speed=100.0, chord=0.2299, first=OscillationMode.ALPHA)
    @settings(max_examples=100, deadline=None)
    def test_with_mode_equals_the_schedule_made_in_that_mode(
            self, mean_deg, amp_deg, k, cycles, spc, speed, chord, first):
        cond = FlightCondition(speed, 1.225, chord, 1.0, 1.0)
        spec = OscillationSpec.from_degrees(first, mean_deg, amp_deg, k, cycles, spc)
        second = next(m for m in OscillationMode if m is not first)
        for a, b in ((first, second), (second, first)):
            flown = make_schedule(spec.with_mode(a), cond).with_mode(b)
            made = make_schedule(spec.with_mode(b), cond)
            assert flown.spec == made.spec and flown.omega == made.omega
            for field in dataclasses.fields(MotionSchedule):
                if field.name not in ("spec", "omega"):
                    assert np.array_equal(getattr(flown, field.name), getattr(made, field.name)), \
                        field.name

    @pytest.mark.parametrize("mode", list(OscillationMode))
    def test_own_mode_is_the_schedule_itself(self, agard_alpha_spec, condition, mode):
        schedule = make_schedule(agard_alpha_spec.with_mode(mode), condition)
        assert schedule.with_mode(mode) is schedule
        assert schedule.spec.with_mode(mode) is schedule.spec

    def test_modes_share_the_body_motion(self, agard_alpha_spec, condition):
        alpha = make_schedule(agard_alpha_spec, condition)
        q = alpha.with_mode(OscillationMode.Q)
        for name in _SHARED:
            assert np.shares_memory(getattr(alpha, name), getattr(q, name)), name
        assert not np.shares_memory(alpha.relative_aoa, q.relative_aoa)
        assert q.with_mode(OscillationMode.ALPHA).aoa_rate is alpha.pitch_rate

    def test_phase_is_the_motions_sine_and_cosine(self, agard_q_spec, condition):
        schedule = make_schedule(agard_q_spec, condition)
        np.testing.assert_array_equal(schedule.phase_sin, np.sin(schedule.omega * schedule.time))
        np.testing.assert_array_equal(schedule.phase_cos, np.cos(schedule.omega * schedule.time))

    def test_with_mode_rejects_a_mode_name(self, agard_alpha_spec, condition):
        schedule = make_schedule(agard_alpha_spec, condition)
        with pytest.raises(DomainError, match="mode"):
            schedule.with_mode("q")
