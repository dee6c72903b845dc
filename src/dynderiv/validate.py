"""Built-in oracle suite backing the ``validate`` CLI subcommand.

Each check compares an implementation path against an independent truth
source: recorded arbitrary-precision values for the lift-deficiency
function, the rational approximation against the exact one, the
time-marching plant against its frequency-domain transform pair, and the
identification chain against injected coefficients and closed-form loop
areas.  All checks are deterministic (fixed seeds) and run in seconds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, TextIO

import numpy as np

from .identify import Orientation, fit_harmonic, loop_metrics
from .kinematics import FlightCondition, OscillationMode, make_schedule
from .plants import (
    FlatPlatePlant,
    IndicialPlant,
    QuasiSteadyCoefficients,
    QuasiSteadyPlant,
    jones_function,
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    simulate,
    theodorsen_function,
)
from .scenarios import agard_ct2_preset, identify_modes

# Lift-deficiency value at k = 0.1, recorded from an independent
# arbitrary-precision Bessel-series evaluation (50 significant digits,
# Hankel functions built from the J/Y series directly).
THEODORSEN_ORACLE_K01 = complex(0.83192410496527614, -0.17230222873419501)

# Reference condition used by the synthetic checks (chord and speed give a
# convenient angular frequency; the checks are nondimensional).
_COND = FlightCondition(
    freestream_speed=100.0,
    density=1.225,
    ref_chord=0.2299,
    ref_span=0.6096,
    ref_area=0.1238,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def indicial_frequency_response(
    k: float,
    pitch_axis: float = -0.5,
    cycles: int = 22,
    samples_per_cycle: int = 720,
    skip_cycles: int = 2,
    mode: OscillationMode = OscillationMode.ALPHA,
) -> tuple[complex, complex]:
    """First-harmonic complex amplitudes (lift, moment) of the indicial plant.

    Drives the plant with an oscillation of the given mode about zero mean
    and projects the settled cycles back onto the harmonic basis.
    """
    spec, _ = agard_ct2_preset(mode=mode, cycles=cycles, samples_per_cycle=samples_per_cycle)
    spec = replace(spec, mean_incidence=0.0, reduced_frequency=k)
    schedule = make_schedule(spec, _COND)
    series = simulate(IndicialPlant(pitch_axis=pitch_axis), schedule, _COND)
    amp = spec.body_amplitude
    fit_l = fit_harmonic(series.times, series.CL, schedule.omega, skip_cycles)
    fit_m = fit_harmonic(series.times, series.Cm, schedule.omega, skip_cycles)
    return (
        complex(fit_l.in_phase, fit_l.out_phase) / amp,
        complex(fit_m.in_phase, fit_m.out_phase) / amp,
    )


def check_deficiency_limits() -> CheckResult:
    """Quasi-steady and high-frequency limits plus the recorded oracle point."""
    c0 = theodorsen_function(0.0)
    c_inf = theodorsen_function(100.0)
    c01 = theodorsen_function(0.1)
    errs = {
        "C(0)-1": abs(c0 - 1.0),
        "C(100)-0.5": abs(c_inf - 0.5),
        "C(0.1)-oracle": abs(c01 - THEODORSEN_ORACLE_K01),
    }
    passed = errs["C(0)-1"] == 0.0 and errs["C(100)-0.5"] < 0.01 and errs["C(0.1)-oracle"] < 5e-3
    detail = ", ".join(f"{k}={v:.3g}" for k, v in errs.items())
    return CheckResult("lift-deficiency limits", passed, detail)


def check_jones_cross() -> CheckResult:
    """Rational approximation stays within 0.03 per part of the exact function."""
    ks = np.logspace(math.log10(0.01), 0.0, 200)
    gap_re = gap_im = 0.0
    for k in ks:
        exact = theodorsen_function(float(k))
        approx = jones_function(float(k))
        gap_re = max(gap_re, abs(exact.real - approx.real))
        gap_im = max(gap_im, abs(exact.imag - approx.imag))
    passed = gap_re <= 0.03 and gap_im <= 0.03
    return CheckResult(
        "jones cross-check", passed, f"max|dRe|={gap_re:.4f}, max|dIm|={gap_im:.4f} on k in [0.01, 1]"
    )


def check_indicial_consistency() -> CheckResult:
    """Time-marching response matches its frequency-domain transform pair to 1%.

    Both modes, with the Jones-kernel flat-plate loads of each mode as the
    truth, at the quarter chord and at a = 0.25: only away from the quarter
    chord does the circulatory moment, and so Cm's lag, enter.
    """
    worst = 0.0
    details = []
    for mode, a, k in itertools.product(OscillationMode, (-0.5, 0.25), (0.05, 0.0811, 0.2)):
        hl_sim, hm_sim = indicial_frequency_response(k, pitch_axis=a, mode=mode)
        truth = FlatPlatePlant(pitch_axis=a, kernel="jones").loads(k, mode)
        rel_l = abs(hl_sim - truth.lift) / abs(truth.lift)
        rel_m = abs(hm_sim - truth.moment) / abs(truth.moment)
        worst = max(worst, rel_l, rel_m)
        details.append(f"{mode.value} a={a} k={k}: CL {rel_l:.2e}, Cm {rel_m:.2e}")
    return CheckResult("indicial consistency", worst < 0.01, "; ".join(details))


def _relative_error(measured: float, injected: float) -> float:
    return abs(measured - injected) / max(abs(injected), 1.0)


def check_round_trip(n_cases: int = 10, seed: int = 20240811) -> CheckResult:
    """Injected quasi-steady derivatives are recovered to 1e-9 relative."""
    rng = np.random.default_rng(seed)
    spec, _ = agard_ct2_preset()
    worst = 0.0
    for _ in range(n_cases):
        p = QuasiSteadyCoefficients(*rng.uniform(-20.0, 20.0, size=11))
        merged, _ = identify_modes(QuasiSteadyPlant(coefficients=p), spec, _COND)
        expected = {
            "CL": (p.CL_alpha, p.CL_q, p.CL_alphadot),
            "CD": (p.CD_alpha, p.CD_q, 0.0),
            "Cm": (p.Cm_alpha, p.Cm_q, p.Cm_alphadot),
        }
        for channel, (slope, rate, adot) in expected.items():
            ch = merged.channels[channel]
            worst = max(
                worst,
                _relative_error(ch.static_slope, slope),
                _relative_error(ch.rate_derivative, rate),
                _relative_error(ch.aoa_rate_derivative, adot),
                _relative_error(ch.damping_sum, rate + adot),
            )
    return CheckResult("round-trip recovery", worst < 1e-9, f"worst relative error {worst:.2e}")


def check_separation_chain() -> CheckResult:
    """Identified C_q and separated incidence-rate derivative match the formulas."""
    k = 0.0811
    a = -0.5
    spec, _ = agard_ct2_preset()
    merged, _ = identify_modes(FlatPlatePlant(pitch_axis=a, kernel="jones"), spec, _COND)
    truth_pitch = pitch_oscillation_loads(k, a, deficiency=jones_function)
    truth_q = q_mode_oscillation_loads(k, a, deficiency=jones_function)
    cmq_true = truth_q.moment.imag / k
    damping_true = truth_pitch.moment.imag / k
    ch = merged.channels["Cm"]
    rel_q = abs(ch.rate_derivative - cmq_true) / abs(cmq_true)
    rel_ad = abs(ch.aoa_rate_derivative - (damping_true - cmq_true)) / abs(damping_true - cmq_true)
    passed = rel_q < 1e-6 and rel_ad < 1e-6
    return CheckResult(
        "rate separation vs analytic loads", passed, f"C_mq rel {rel_q:.2e}, C_malphadot rel {rel_ad:.2e}"
    )


def check_loop_identity(seed: int = 7) -> CheckResult:
    """Trapezoidal loop area equals pi*A*b within 0.1%; sign follows b."""
    rng = np.random.default_rng(seed)
    spec, _ = agard_ct2_preset()
    amp = spec.body_amplitude
    omega = 2.0 * spec.reduced_frequency * _COND.freestream_speed / _COND.ref_chord
    t = np.arange(spec.cycles * 720) * (2.0 * math.pi / omega) / 720
    worst = 0.0
    for _ in range(20):
        a_in = rng.uniform(-20.0, 20.0)
        b_out = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 20.0)
        x = amp * np.sin(omega * t)
        y = 1.5 + a_in * np.sin(omega * t) + b_out * np.cos(omega * t)
        metrics = loop_metrics(t, x, y, omega)
        expected = math.pi * amp * b_out
        worst = max(worst, abs(metrics.signed_area - expected) / abs(expected))
        want = Orientation.CLOCKWISE if b_out < 0 else Orientation.COUNTERCLOCKWISE
        if metrics.orientation is not want:
            return CheckResult("loop-area identity", False, f"orientation mismatch for b={b_out}")
    return CheckResult("loop-area identity", worst < 1e-3, f"worst relative error {worst:.2e}")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_deficiency_limits,
    check_jones_cross,
    check_indicial_consistency,
    check_round_trip,
    check_separation_chain,
    check_loop_identity,
)


def run_validation(stream: TextIO | None = None) -> int:
    """Run every check, print one PASS/FAIL line each; 0 if all pass."""
    failures = 0
    for check in ALL_CHECKS:
        result = check()
        if not result.passed:
            failures += 1
        if stream is not None:
            status = "PASS" if result.passed else "FAIL"
            stream.write(f"[{status}] {result.name}: {result.detail}\n")
    return 0 if failures == 0 else 1
