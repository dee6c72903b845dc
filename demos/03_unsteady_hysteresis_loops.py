"""Unsteady lag and hysteresis loops from the time-marching plant.

Runs the indicial plant (Duhamel superposition over the two-pole Wagner
kernel) through pitch oscillations at several reduced frequencies, shows
the coefficient-vs-incidence loops opening up with frequency, and checks
the settled response against the closed-form flat-plate solution built on
the same rational lift-deficiency kernel.
"""

import dataclasses

import numpy as np

from dynderiv import (
    FlightCondition,
    IndicialPlant,
    OscillationMode,
    agard_ct2_preset,
    fit_harmonic,
    jones_function,
    loop_metrics,
    make_schedule,
    pitch_oscillation_loads,
    simulate,
)

cond = FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238)
plant = IndicialPlant(pitch_axis=-0.5)

print("indicial plant vs flat-plate frequency response (pitch axis at quarter chord)")
print(f"{'k':>8} {'|H_L| sim':>10} {'|H_L| exact':>12} {'rel err':>9} "
      f"{'loop area':>11} {'orientation':>16}")

loops = {}
for k in (0.05, 0.0811, 0.2):
    spec, _ = agard_ct2_preset(mode=OscillationMode.ALPHA, cycles=22)
    spec = dataclasses.replace(spec, reduced_frequency=k)
    schedule = make_schedule(spec, cond)
    series = simulate(plant, schedule, cond)

    fit = fit_harmonic(series.times, series.CL, schedule.omega, skip_cycles=2)
    sim = complex(fit.in_phase, fit.out_phase) / spec.body_amplitude
    exact = pitch_oscillation_loads(k, -0.5, deficiency=jones_function).lift
    rel = abs(sim - exact) / abs(exact)

    metrics = loop_metrics(series.times, schedule.relative_aoa, series.CL, schedule.omega, 2)
    print(f"{k:8.4f} {abs(sim):10.4f} {abs(exact):12.4f} {rel:9.1e} "
          f"{metrics.signed_area:11.2e} {metrics.orientation.value:>16}")
    # keep the settled last cycle for plotting
    n = len(schedule)
    last = slice(n - spec.samples_per_cycle, n)
    loops[k] = (np.degrees(schedule.relative_aoa[last]), series.CL[last])

print("\nthe loop area is the out-of-phase (damping) content: for lift it grows")
print("with reduced frequency as the wake lag rotates more response into phase")
print("quadrature with the motion")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 5))
    for k, (alpha_deg, cl) in loops.items():
        ax.plot(alpha_deg, cl, label=f"k = {k}")
    ax.set_xlabel("incidence (deg)")
    ax.set_ylabel("lift coefficient")
    ax.set_title("dynamic lift loops, last settled cycle")
    ax.legend()
    ax.grid(True)
    fig.tight_layout()
    fig.savefig("demo03_loops.png", dpi=120)
    print("\nwrote demo03_loops.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
