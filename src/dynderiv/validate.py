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
from dataclasses import replace
from typing import Callable, TextIO

import numpy as np

from .identify import loop_metrics
from .kinematics import FlightCondition, OscillationMode, make_schedule
from .plants import (
    FlatPlatePlant,
    IndicialPlant,
    QuasiSteadyPlant,
    jones_function,
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


def _indicial_frequency_response(
    k: float, pitch_axis: float = -0.5, mode: OscillationMode = OscillationMode.ALPHA
) -> tuple[complex, complex]:
    """First-harmonic complex amplitudes (lift, moment) of the indicial plant.

    Identifies the plant in the given mode about zero mean over 22 cycles of
    720 samples, skipping the plant's default start-up cycles, and reads
    each channel's fit.
    """
    spec = agard_ct2_preset(mode=mode, cycles=22, samples_per_cycle=720)
    spec = replace(spec, mean_incidence=0.0, reduced_frequency=k)
    plant = IndicialPlant(pitch_axis=pitch_axis)
    dset, _ = identify_modes(plant, spec, _COND, (mode,))
    fits = [dset.channels[c].fit for c in ("CL", "Cm")]
    return tuple(complex(f.in_phase, f.out_phase) / spec.body_amplitude for f in fits)


def check_deficiency_limits() -> tuple[bool, str]:
    """Quasi-steady and high-frequency limits plus the recorded oracle point."""
    c0 = theodorsen_function(0.0)
    c_inf = theodorsen_function(100.0)
    c01 = theodorsen_function(0.1)
    errs = {
        "C(0)-1": abs(c0 - 1.0),
        "C(100)-0.5": abs(c_inf - 0.5),
        "C(0.1)-oracle": abs(c01 - THEODORSEN_ORACLE_K01),
    }
    passed = errs["C(0)-1"] == 0.0 and errs["C(100)-0.5"] < 0.01 and errs["C(0.1)-oracle"] < 1e-14
    detail = ", ".join(f"{k}={v:.3g}" for k, v in errs.items())
    return passed, detail


def check_jones_cross() -> tuple[bool, str]:
    """Rational approximation stays within 0.03 per part of the exact function."""
    ks = np.logspace(math.log10(0.01), 0.0, 200)
    gap_re = gap_im = 0.0
    for k in ks:
        exact = theodorsen_function(float(k))
        approx = jones_function(float(k))
        gap_re = max(gap_re, abs(exact.real - approx.real))
        gap_im = max(gap_im, abs(exact.imag - approx.imag))
    passed = gap_re <= 0.03 and gap_im <= 0.03
    detail = f"max|dRe|={gap_re:.4f}, max|dIm|={gap_im:.4f} on k in [0.01, 1]"
    return passed, detail


def check_indicial_consistency() -> tuple[bool, str]:
    """Time-marching response matches its frequency-domain transform pair to 0.1%.

    Both modes, with the Jones-kernel flat-plate loads of each mode as the
    truth, at the quarter chord and at a = 0.25: only away from the quarter
    chord does the circulatory moment, and so Cm's lag, enter.
    """
    worst = 0.0
    details = []
    for mode, a, k in itertools.product(OscillationMode, (-0.5, 0.25), (0.05, 0.0811, 0.2)):
        hl_sim, hm_sim = _indicial_frequency_response(k, pitch_axis=a, mode=mode)
        truth = FlatPlatePlant(pitch_axis=a, kernel="jones").loads(k, mode)
        rel_l = abs(hl_sim - truth.lift) / abs(truth.lift)
        rel_m = abs(hm_sim - truth.moment) / abs(truth.moment)
        worst = max(worst, rel_l, rel_m)
        details.append(f"{mode.value} a={a} k={k}: CL {rel_l:.2e}, Cm {rel_m:.2e}")
    return worst < 1e-3, "; ".join(details)


def _relative_error(measured: float, injected: float) -> float:
    return abs(measured - injected) / max(abs(injected), 1.0)


def check_round_trip() -> tuple[bool, str]:
    """Injected quasi-steady derivatives of 10 seeded plants are recovered to 1e-11 relative."""
    rng = np.random.default_rng(20240811)
    spec = agard_ct2_preset()
    worst = 0.0
    for _ in range(10):
        p = QuasiSteadyPlant(*rng.uniform(-20.0, 20.0, size=11))
        merged, _ = identify_modes(p, spec, _COND)
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
    return worst < 1e-11, f"worst relative error {worst:.2e}"


def check_separation_chain() -> tuple[bool, str]:
    """Identified C_q and separated incidence-rate derivative match the formulas to 1e-12."""
    spec = agard_ct2_preset()
    k = spec.reduced_frequency
    plant = FlatPlatePlant(pitch_axis=-0.5, kernel="jones")
    merged, _ = identify_modes(plant, spec, _COND)
    cmq_true = plant.loads(k, OscillationMode.Q).moment.imag / k
    damping_true = plant.loads(k, OscillationMode.ALPHA).moment.imag / k
    ch = merged.channels["Cm"]
    rel_q = abs(ch.rate_derivative - cmq_true) / abs(cmq_true)
    rel_ad = abs(ch.aoa_rate_derivative - (damping_true - cmq_true)) / abs(damping_true - cmq_true)
    passed = rel_q < 1e-12 and rel_ad < 1e-12
    detail = f"C_mq rel {rel_q:.2e}, C_malphadot rel {rel_ad:.2e}"
    return passed, detail


def check_loop_identity() -> tuple[bool, str]:
    """Trapezoidal loop area equals pi*A*b within 0.01%; sign follows b."""
    rng = np.random.default_rng(7)
    spec = replace(agard_ct2_preset(), mean_incidence=0.0)
    schedule = make_schedule(spec, _COND)
    amp = spec.body_amplitude
    t, x, omega = schedule.time, schedule.relative_aoa, schedule.omega
    worst = 0.0
    for _ in range(20):
        a_in = rng.uniform(-20.0, 20.0)
        b_out = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 20.0)
        y = 1.5 + a_in * np.sin(omega * t) + b_out * np.cos(omega * t)
        area = loop_metrics(t, x, y, omega)
        expected = math.pi * amp * b_out
        worst = max(worst, abs(area - expected) / abs(expected))
        if np.sign(area) != np.sign(b_out):
            return False, f"orientation mismatch for b={b_out}"
    return worst < 1e-4, f"worst relative error {worst:.2e}"


ALL_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "lift-deficiency limits": check_deficiency_limits,
    "jones cross-check": check_jones_cross,
    "indicial consistency": check_indicial_consistency,
    "round-trip recovery": check_round_trip,
    "rate separation vs analytic loads": check_separation_chain,
    "loop-area identity": check_loop_identity,
}


def run_validation(stream: TextIO) -> int:
    """Run every check, write one PASS/FAIL line each to ``stream``; 0 if all pass."""
    failures = 0
    for name, check in ALL_CHECKS.items():
        passed, detail = check()
        failures += not passed
        stream.write(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}\n")
    return 0 if failures == 0 else 1
