"""Prescribed pitch oscillations and what each mode measures.

Builds the two forced-oscillation motions at the AGARD CT2 test point and
shows the key kinematic facts: in incidence mode the angle of attack and
pitch rate move together; in flow-path mode the angle of attack is frozen
while the pitch rate still oscillates.  That difference is the whole trick
behind separating C_q from C_alphadot.
"""

import numpy as np

from dynderiv import (
    FlightCondition,
    OscillationMode,
    agard_ct2_preset,
    make_schedule,
    omega_from_k,
)

cond = FlightCondition(
    freestream_speed=100.0,   # m/s
    density=1.225,            # kg/m^3
    ref_chord=0.2299,         # m
    ref_span=0.6096,          # m
    ref_area=0.1238,          # m^2
)

spec, mach = agard_ct2_preset(mode=OscillationMode.ALPHA, cycles=2)
omega = omega_from_k(spec.reduced_frequency, cond)
print(f"AGARD CT2 test point: k = {spec.reduced_frequency}, Mach = {mach}")
print(f"mean incidence  = {np.degrees(spec.mean_incidence):.2f} deg")
print(f"pitch amplitude = {np.degrees(spec.body_amplitude):.2f} deg")
print(f"angular frequency at V = {cond.freestream_speed} m/s, "
      f"c = {cond.ref_chord} m: omega = {omega:.2f} rad/s")
print(f"rate amplitude k*A = {spec.reduced_frequency * spec.body_amplitude:.6f} (nondim)")
print()

alpha_mode = make_schedule(spec, cond)
q_mode = make_schedule(spec.with_mode(OscillationMode.Q), cond)

print("incidence mode (body pitches, flow fixed):")
print(f"  alpha swings over [{np.degrees(alpha_mode.relative_aoa.min()):+.2f}, "
      f"{np.degrees(alpha_mode.relative_aoa.max()):+.2f}] deg")
print(f"  q-hat swings over [{alpha_mode.nondim_pitch_rate.min():+.6f}, "
      f"{alpha_mode.nondim_pitch_rate.max():+.6f}]")
print(f"  max |alpha_dot - q| = "
      f"{np.max(np.abs(alpha_mode.aoa_rate - alpha_mode.pitch_rate)):.1e} rad/s"
      "  (they are the same motion)")
print()
print("flow-path mode (body and flow direction pitch together):")
print(f"  alpha stays within {np.max(np.abs(q_mode.relative_aoa - spec.mean_incidence)):.1e} rad "
      "of the mean")
print(f"  q-hat still swings over [{q_mode.nondim_pitch_rate.min():+.6f}, "
      f"{q_mode.nondim_pitch_rate.max():+.6f}]")
print(f"  alpha_dot is identically {np.max(np.abs(q_mode.aoa_rate)):.1f}")
print()
print("So the incidence mode responds to (alpha, q, alpha_dot) together,")
print("while the flow-path mode responds to q alone; fitting both and")
print("differencing the out-of-phase parts isolates the alpha_dot effect.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(8, 6), sharex=True)
    for ax, sched, title in (
        (axes[0], alpha_mode, "incidence mode"),
        (axes[1], q_mode, "flow-path mode"),
    ):
        ax.plot(sched.time, np.degrees(sched.relative_aoa), label="alpha (deg)")
        ax.plot(sched.time, np.degrees(sched.body_pitch), "--", label="body pitch (deg)")
        ax.plot(sched.time, sched.nondim_pitch_rate * 1e3, label="q-hat x1000")
        ax.set_title(title)
        ax.legend(loc="upper right")
        ax.grid(True)
    axes[1].set_xlabel("time (s)")
    fig.tight_layout()
    fig.savefig("demo01_modes.png", dpi=120)
    print("\nwrote demo01_modes.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
