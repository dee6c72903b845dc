"""Round-trip identification on the quasi-steady plant.

Injects a known set of stability derivatives into the linear plant, runs
the incidence-mode and flow-path-mode oscillations, fits the first
harmonic, and recovers every injected value.  On a linear plant this
round trip is exact up to floating-point noise, which is the foundation
the rest of the toolchain stands on.
"""

from dynderiv import (
    FlightCondition,
    OscillationMode,
    QuasiSteadyPlant,
    agard_ct2_preset,
    identify_modes,
)

cond = FlightCondition(100.0, 1.225, 0.2299, 0.6096, 0.1238)

injected = plant = QuasiSteadyPlant(
    CL0=0.2, CL_alpha=5.0, CL_q=4.0, CL_alphadot=6.0,
    CD0=0.02, CD_alpha=0.3, CD_q=0.1,
    Cm0=-0.05, Cm_alpha=-1.2, Cm_q=-3.0, Cm_alphadot=-1.2,
)

spec = agard_ct2_preset(mode=OscillationMode.ALPHA)

# both modes: schedule -> plant -> first-harmonic fit -> extract, then separation
merged, (schedule, series) = identify_modes(plant, spec, cond)
print(f"{len(series)} incidence-mode samples per channel")
print(f"incidence-mode CL residual rms = {merged.channels['CL'].fit.residual_rms:.2e}")

print()
print(f"{'':4} {'injected':>10} {'recovered':>12}   {'injected':>10} {'recovered':>12}")
rows = [
    ("CL", injected.CL_alpha, injected.CL_q, injected.CL_alphadot),
    ("CD", injected.CD_alpha, injected.CD_q, 0.0),
    ("Cm", injected.Cm_alpha, injected.Cm_q, injected.Cm_alphadot),
]
for name, slope, rate, adot in rows:
    ch = merged.channels[name]
    print(f"{name:4} C_alpha {slope:+8.3f} -> {ch.static_slope:+12.8f}   "
          f"C_q {rate:+8.3f} -> {ch.rate_derivative:+12.8f}")
    print(f"{'':4} C_adot  {adot:+8.3f} -> {ch.aoa_rate_derivative:+12.8f}   "
          f"sum {rate + adot:+8.3f} -> {ch.damping_sum:+12.8f}")

worst = max(
    abs(ch.static_slope - slope) + abs(ch.rate_derivative - rate)
    + abs(ch.aoa_rate_derivative - adot)
    for (name, slope, rate, adot), ch in zip(rows, (merged.channels[r[0]] for r in rows))
)
print(f"\nworst absolute recovery error: {worst:.2e}")
