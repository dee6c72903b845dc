"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  A1-A6 are oracle cross-checks (round-trip recovery, analytic
transform pairs, closed-form loop areas); A7-A9 pin down scenario semantics,
interface round trips, and byte-level determinism.
"""

import json
import math

import numpy as np
import pytest

from dynderiv import (
    CoefficientSeries,
    FlightCondition,
    Orientation,
    OscillationMode,
    OscillationSpec,
    QuasiSteadyCoefficients,
    QuasiSteadyPlant,
    SweepPlan,
    SweepStatus,
    agard_ct2_preset,
    builtin_scenarios,
    extract,
    fit_harmonic,
    fit_series,
    identify_modes,
    jones_function,
    loop_metrics,
    make_schedule,
    parse_case_config,
    parse_monitor_table,
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    render_case_config,
    run_sweep,
    separate_rates,
    theodorsen_function,
    write_series,
)
from dynderiv.cli import main as cli_main
from dynderiv.series import SeriesMeta
from dynderiv.validate import THEODORSEN_ORACLE_K01, indicial_frequency_response

COND = FlightCondition(
    freestream_speed=100.0, density=1.225,
    ref_chord=0.2299, ref_span=0.6096, ref_area=0.1238,
)


def _close(measured, injected, rel=1e-9, abs_tol=1e-9):
    return math.isclose(measured, injected, rel_tol=rel, abs_tol=abs_tol)


def _report(criterion, detail):
    print(f"[PASS] {criterion}: {detail}")


def test_a1_round_trip_identification_quasi_steady():
    """A1: 100 random linear plants are recovered to 1e-9 relative."""
    rng = np.random.default_rng(101)
    spec, _ = agard_ct2_preset(mode=OscillationMode.ALPHA, cycles=3, samples_per_cycle=720)
    worst = 0.0
    for _ in range(100):
        p = QuasiSteadyCoefficients(*rng.uniform(-20.0, 20.0, size=11))
        merged, _ = identify_modes(QuasiSteadyPlant(coefficients=p), spec, COND, skip_cycles=0)
        injected = {
            "CL": (p.CL_alpha, p.CL_q, p.CL_alphadot),
            "CD": (p.CD_alpha, p.CD_q, 0.0),
            "Cm": (p.Cm_alpha, p.Cm_q, p.Cm_alphadot),
        }
        for channel, (slope, rate, adot) in injected.items():
            ch = merged.channels[channel]
            pairs = (
                (ch.static_slope, slope),
                (ch.rate_derivative, rate),
                (ch.aoa_rate_derivative, adot),
                (ch.damping_sum, rate + adot),
            )
            for measured, want in pairs:
                assert _close(measured, want), (channel, measured, want)
                denom = max(abs(want), 1.0)
                worst = max(worst, abs(measured - want) / denom)
    _report("A1", f"100 random parameter sets recovered; worst relative error {worst:.2e}")


def test_a2_q_mode_decoupling():
    """A2: the relative incidence never moves in a flow-path-mode schedule."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        spec = OscillationSpec(
            mode=OscillationMode.Q,
            mean_incidence=rng.uniform(-0.5, 0.5),
            body_amplitude=rng.uniform(1e-3, 0.5),
            reduced_frequency=rng.uniform(5e-3, 1.0),
            cycles=int(rng.integers(1, 5)),
            samples_per_cycle=int(rng.integers(8, 256)),
        )
        cond = FlightCondition(
            freestream_speed=float(rng.uniform(1.0, 300.0)),
            density=1.225,
            ref_chord=float(rng.uniform(0.05, 5.0)),
            ref_span=1.0,
            ref_area=1.0,
        )
        schedule = make_schedule(spec, cond)
        gap = float(np.max(np.abs(schedule.relative_aoa - spec.mean_incidence)))
        assert gap < 1e-12
        worst = max(worst, gap)
    _report("A2", f"100 random schedules; max |alpha - alpha0| = {worst:.2e} rad")


def test_a3_time_frequency_consistency():
    """A3: indicial plant matches its frequency-domain transform pair to 1%."""
    details = []
    for k in (0.05, 0.0811, 0.2):
        lift_sim, moment_sim = indicial_frequency_response(
            k, pitch_axis=-0.5, cycles=22, samples_per_cycle=720, skip_cycles=2
        )
        truth = pitch_oscillation_loads(k, -0.5, deficiency=jones_function)
        rel_l = abs(lift_sim - truth.lift) / abs(truth.lift)
        rel_m = abs(moment_sim - truth.moment) / abs(truth.moment)
        assert rel_l < 0.01, (k, rel_l)
        assert rel_m < 0.01, (k, rel_m)
        details.append(f"k={k}: CL {rel_l:.1e}, Cm {rel_m:.1e}")
    _report("A3", "; ".join(details))


def test_a4_lift_deficiency_oracle():
    """A4: limits, the recorded Bessel oracle point, and the rational gap."""
    assert abs(theodorsen_function(0.0) - 1.0) == 0.0
    high = abs(theodorsen_function(100.0) - 0.5)
    assert high < 0.01
    oracle_gap = abs(theodorsen_function(0.1) - THEODORSEN_ORACLE_K01)
    assert oracle_gap < 5e-3
    assert THEODORSEN_ORACLE_K01 == pytest.approx(complex(0.832, -0.172), abs=5e-4)
    worst_re = worst_im = 0.0
    for k in np.logspace(math.log10(0.01), 0.0, 250):
        exact = theodorsen_function(float(k))
        approx = jones_function(float(k))
        worst_re = max(worst_re, abs(exact.real - approx.real))
        worst_im = max(worst_im, abs(exact.imag - approx.imag))
    assert worst_re <= 0.03 and worst_im <= 0.03
    _report(
        "A4",
        f"C(0)=1 exact, |C(100)-0.5|={high:.2e}, oracle gap {oracle_gap:.1e}, "
        f"jones gap (re {worst_re:.3f}, im {worst_im:.3f})",
    )


def test_a5_separation_against_analytic_truth():
    """A5: pure-fit separation matches the closed-form load formulas to 1e-6."""
    k, a = 0.0811, -0.5
    spec_alpha, _ = agard_ct2_preset(mode=OscillationMode.ALPHA)
    spec_q = spec_alpha.with_mode(OscillationMode.Q)
    amp = spec_alpha.body_amplitude
    omega = 2.0 * k * COND.freestream_speed / COND.ref_chord
    t = np.arange(spec_alpha.cycles * 720) * (2.0 * math.pi / omega) / 720

    pitch = pitch_oscillation_loads(k, a, deficiency=jones_function)
    qmode = q_mode_oscillation_loads(k, a, deficiency=jones_function)

    def synth(loads):
        phase = omega * t
        return amp * (loads.real * np.sin(phase) + loads.imag * np.cos(phase))

    sets = {}
    for spec, loads in ((spec_alpha, pitch), (spec_q, qmode)):
        series = CoefficientSeries(
            times=t, Cm=synth(loads.moment), CL=synth(loads.lift),
            meta=SeriesMeta(source="analytic"),
        )
        sets[spec.mode] = extract(fit_series(series, omega), spec, COND)
    merged = separate_rates(sets[OscillationMode.ALPHA], sets[OscillationMode.Q])

    cmq_true = qmode.moment.imag / k
    damping_true = pitch.moment.imag / k
    adot_true = damping_true - cmq_true
    cm = merged.channels["Cm"]
    rel_q = abs(cm.rate_derivative - cmq_true) / abs(cmq_true)
    rel_ad = abs(cm.aoa_rate_derivative - adot_true) / abs(adot_true)
    assert rel_q < 1e-6
    assert rel_ad < 1e-6
    _report("A5", f"C_mq rel {rel_q:.1e}, separated C_malphadot rel {rel_ad:.1e}")


def test_a6_loop_area_identity():
    """A6: trapezoid loop area equals pi*A*b to 0.1%; orientation follows b."""
    rng = np.random.default_rng(606)
    amp = math.radians(4.59)
    omega = 2.0 * math.pi
    t = np.arange(3 * 720) / 720.0
    worst = 0.0
    for _ in range(100):
        a_in = rng.uniform(-20.0, 20.0)
        b_out = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.01, 20.0)
        x = amp * np.sin(omega * t)
        y = rng.uniform(-2, 2) + a_in * np.sin(omega * t) + b_out * np.cos(omega * t)
        fit = fit_harmonic(t, y, omega)
        metrics = loop_metrics(t, x, y, omega)
        expected = math.pi * amp * fit.out_phase
        rel = abs(metrics.signed_area - expected) / abs(expected)
        assert rel < 1e-3, (b_out, rel)
        worst = max(worst, rel)
        want = Orientation.CLOCKWISE if b_out < 0 else Orientation.COUNTERCLOCKWISE
        assert metrics.orientation is want
    _report("A6", f"100 random loops; worst |area - pi*A*b|/|.| = {worst:.1e}")


def test_a7_scenario_semantics():
    """A7: hover is STATIC_ONLY; compressibility raises the lift slope with speed."""
    spec, _ = agard_ct2_preset(mode=OscillationMode.ALPHA)
    plant = QuasiSteadyPlant(
        coefficients=QuasiSteadyCoefficients(CL_alpha=5.0, Cm_alpha=-1.0, Cm_q=-3.0)
    )
    plan = SweepPlan(
        scenarios=tuple(builtin_scenarios()),
        oscillation=spec,
        condition=COND,
        plant=plant,
    )
    statuses = [r.status for r in run_sweep(plan).results]
    assert statuses == [SweepStatus.STATIC_ONLY, SweepStatus.OK, SweepStatus.OK]

    mach_plant = QuasiSteadyPlant(
        coefficients=QuasiSteadyCoefficients(CL_alpha=5.0, Cm_alpha=-1.0, mach_scaling=True)
    )
    cond = FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238, sound_speed=340.0)
    report = run_sweep(
        SweepPlan(scenarios=tuple(builtin_scenarios()), oscillation=spec,
                  condition=cond, plant=mach_plant)
    )
    slope = {
        r.scenario.forward_velocity: r.derivatives.channels["CL"].static_slope
        for r in report.results
        if r.status is SweepStatus.OK
    }
    assert slope[66.0] > slope[33.0]
    _report(
        "A7",
        f"statuses {[s.value for s in statuses]}; CL_alpha {slope[33.0]:.5f} @33 m/s "
        f"< {slope[66.0]:.5f} @66 m/s with compressibility on",
    )


def test_a8_interface_round_trips(tmp_path, capsys):
    """A8: series and config round trips are exact; `validate` exits 0."""
    # series: parse∘write identity, bit-exact
    rng = np.random.default_rng(808)
    series = CoefficientSeries(
        times=np.cumsum(rng.uniform(0.01, 0.2, size=64)),
        CL=rng.uniform(-3, 3, size=64),
        CD=rng.uniform(-1, 1, size=64),
        Cm=rng.uniform(-2, 2, size=64),
        meta=SeriesMeta(source="roundtrip"),
    )
    text = write_series(series)
    back = parse_monitor_table(text)
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.CL, series.CL)
    assert np.array_equal(back.CD, series.CD)
    assert np.array_equal(back.Cm, series.Cm)
    assert write_series(back) == text

    # config: render/parse identity
    doc = {
        "condition": {"speed_m_s": 100.0, "sound_speed_m_s": 340.0, "density_kg_m3": 1.225,
                      "chord_m": 0.2299, "span_m": 0.6096, "area_m2": 0.1238},
        "oscillation": {"modes": ["alpha", "q"], "mean_incidence_deg": 3.16,
                        "amplitude_deg": 4.59, "reduced_frequency": 0.0811,
                        "cycles": 3, "samples_per_cycle": 720, "skip_cycles": None},
        "plant": {"kind": "quasi-steady", "CL_alpha": 5.0, "Cm_q": -3.0},
        "scenarios": "builtin",
    }
    plan = parse_case_config(json.dumps(doc))
    rendered = render_case_config(plan)
    assert parse_case_config(rendered) == plan
    assert render_case_config(parse_case_config(rendered)) == rendered

    # validate subcommand
    code = cli_main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out
    _report("A8", "series parse∘write bit-exact; config render/parse identity; validate exit 0")


def test_a9_determinism(tmp_path):
    """A9: two runs of the same sweep produce byte-identical report files."""
    doc_path = tmp_path / "case.json"
    doc_path.write_text(json.dumps({
        "condition": {"speed_m_s": 100.0, "sound_speed_m_s": None, "density_kg_m3": 1.225,
                      "chord_m": 0.2299, "span_m": 0.6096, "area_m2": 0.1238},
        "oscillation": {"modes": ["alpha", "q"], "mean_incidence_deg": 3.16,
                        "amplitude_deg": 4.59, "reduced_frequency": 0.0811,
                        "cycles": 3, "samples_per_cycle": 720, "skip_cycles": None},
        "plant": {"kind": "indicial", "pitch_axis": -0.5, "CD0": 0.02,
                  "CD_alpha": 0.3, "CD_q": 0.0, "induced_drag_factor": None},
        "scenarios": "builtin",
    }))
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        assert cli_main(["sweep", str(doc_path), "--out-dir", str(d)]) == 0
    csv_a = (dirs[0] / "report.csv").read_bytes()
    csv_b = (dirs[1] / "report.csv").read_bytes()
    assert csv_a == csv_b
    assert (dirs[0] / "report.txt").read_bytes() == (dirs[1] / "report.txt").read_bytes()
    _report("A9", f"byte-identical report.csv across runs ({len(csv_a)} bytes)")
