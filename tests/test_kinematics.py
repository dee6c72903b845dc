"""Harmonic motion schedules: conventions, grids, and the two modes."""

import math

import numpy as np
import pytest

from dynderiv import (
    FlightCondition,
    NonDimensionalizationUndefined,
    OscillationMode,
    OscillationSpec,
    ZeroAmplitude,
    ZeroReducedFrequency,
    make_schedule,
    omega_from_k,
    sample_grid,
)

AGARD_K = 0.0811
AGARD_AMP_DEG = 4.59
AGARD_MEAN_DEG = 3.16


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

    @pytest.mark.parametrize("cycles,spp", [(0, 720), (3, 7), (-1, 720)])
    def test_bad_sampling(self, cycles, spp):
        with pytest.raises(ValueError):
            OscillationSpec(OscillationMode.ALPHA, 0.0, 0.1, 0.1, cycles=cycles, samples_per_cycle=spp)

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

    def test_start_state(self, schedule, agard_alpha_spec):
        spec = agard_alpha_spec
        assert schedule.relative_aoa[0] == spec.mean_incidence
        qhat0 = schedule.nondim_pitch_rate[0]
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

    def test_relative_aoa_identity(self, schedule):
        np.testing.assert_array_equal(
            schedule.relative_aoa, schedule.body_pitch - schedule.flow_angle
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

    def test_identity_holds_to_machine_precision(self, schedule):
        gap = np.abs(schedule.body_pitch - schedule.flow_angle - schedule.relative_aoa)
        assert np.max(gap) < 1e-14

    def test_start_rates(self, schedule, agard_q_spec):
        spec = agard_q_spec
        assert schedule.nondim_pitch_rate[0] == pytest.approx(
            spec.reduced_frequency * spec.body_amplitude, rel=1e-12
        )
        np.testing.assert_array_equal(schedule.nondim_aoa_rate, 0.0)
        np.testing.assert_array_equal(schedule.aoa_rate, 0.0)

    def test_randomized_decoupling(self, condition):
        rng = np.random.default_rng(42)
        for _ in range(25):
            spec = OscillationSpec(
                mode=OscillationMode.Q,
                mean_incidence=rng.uniform(-0.3, 0.3),
                body_amplitude=rng.uniform(0.01, 0.3),
                reduced_frequency=rng.uniform(0.01, 0.5),
                cycles=int(rng.integers(1, 4)),
                samples_per_cycle=int(rng.integers(8, 128)),
            )
            sched = make_schedule(spec, condition)
            assert np.max(np.abs(sched.relative_aoa - spec.mean_incidence)) < 1e-12
