"""Ingesting an external solver's coefficient monitor and identifying it.

Fakes a solver export the way they tend to arrive: odd header names,
comment lines, and whitespace delimiters.  The ingestion maps aliases,
the fit runs on absolute time with a known angular frequency, and the
extraction turns the in-phase/out-of-phase split into derivatives.
"""

import math

import numpy as np

from dynderiv import (
    OscillationMode,
    OscillationSpec,
    extract,
    fit_series,
    parse_monitor_table,
    validate_fit,
)

# the solver's test setup (the user always knows these)
K = 0.0811
AMPLITUDE_DEG = 4.59
MEAN_DEG = 3.16
OMEGA = 70.55          # rad/s
CYCLES, SPP = 4, 360

# --- fake the export -------------------------------------------------------
rng = np.random.default_rng(9)
amp = math.radians(AMPLITUDE_DEG)
t = np.arange(CYCLES * SPP) * (2 * math.pi / OMEGA) / SPP
alpha = math.radians(MEAN_DEG) + amp * np.sin(OMEGA * t)
qhat = K * amp * np.cos(OMEGA * t)
cl = 0.2 + 5.0 * alpha + 9.0 * qhat + 2e-4 * rng.standard_normal(len(t))
cm = -0.05 - 1.1 * alpha - 4.0 * qhat + 2e-4 * rng.standard_normal(len(t))

lines = [
    "# exported by some-solver 7.3",
    "# case: pitch oscillation",
    "flow-time   lift-coeff   pitch-mom-coeff",
]
lines += [f"{ti:.8e}  {li:.8e}  {mi:.8e}" for ti, li, mi in zip(t, cl, cm)]
text = "\n".join(lines) + "\n"
print("first lines of the fake export:")
print("\n".join(text.splitlines()[:5]))
print("...")

# --- ingest, fit, extract --------------------------------------------------
series = parse_monitor_table(text, source="some-solver-export")
print(f"\nparsed {len(series)} rows; channels present: {sorted(series.channels())}")
print(f"uniform grid: {series.meta.uniform_grid}")

spec = OscillationSpec.from_degrees(
    OscillationMode.ALPHA, MEAN_DEG, AMPLITUDE_DEG, K,
    cycles=CYCLES, samples_per_cycle=SPP,
)
fits = fit_series(series, OMEGA)
dset = extract(fits, spec)

for name, ch in dset.channels.items():
    flags = validate_fit(ch.fit, spec) or ["clean"]
    print(f"{name}: C_alpha = {ch.static_slope:+.4f}, damping sum = {ch.damping_sum:+.4f}, "
          f"residual rms = {ch.fit.residual_rms:.1e}, flags: {','.join(flags)}")

print("\ninjected values were C_L: (+5.0, +9.0) and C_m: (-1.1, -4.0);")
print("the small noise floor moves the estimates in the fourth decimal.")
print("note the RESIDUAL flag on the moment channel: the same absolute noise")
print("is a larger fraction of its smaller oscillation amplitude, so the")
print("fit quality check calls it out while the lift channel stays clean.")
