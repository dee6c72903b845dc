"""Full eVTOL transition sweep: hover, mid-transition, and wing-borne end.

Runs the stock three-scenario transition matrix.  Hover has no freestream
to nondimensionalize against, so it honestly reports static trim values
only; the two flying scenarios get the full identification, including the
rate separation.  With compressibility scaling on, the lift slope grows
with forward speed.
"""

from dynderiv import (
    FlightCondition,
    OscillationMode,
    QuasiSteadyPlant,
    SweepPlan,
    SweepStatus,
    agard_ct2_preset,
    builtin_scenarios,
    run_sweep,
    write_report,
)

condition = FlightCondition(
    freestream_speed=66.0,    # template value; each scenario substitutes its own
    density=1.225,
    ref_chord=0.2299,
    ref_span=0.6096,
    ref_area=0.1238,
    sound_speed=340.0,
)

plant = QuasiSteadyPlant(
    CL0=0.2, CL_alpha=5.0, CL_q=4.0, CL_alphadot=1.5,
    CD0=0.02, CD_alpha=0.3, CD_q=0.05,
    Cm0=-0.05, Cm_alpha=-1.2, Cm_q=-3.0, Cm_alphadot=-1.0,
    mach_scaling=True,
)

spec = agard_ct2_preset(mode=OscillationMode.ALPHA)
plan = SweepPlan(
    scenarios=tuple(builtin_scenarios()),
    oscillation=spec,
    condition=condition,
    plant=plant,
)

report = run_sweep(plan)
machine, human = write_report(report)
print(human)

print("trend across forward speed (compressibility scaling on):")
flying = [r for r in report.results if r.status is SweepStatus.OK]     # in speed order
for label, channel, field in (("CL_alpha", "CL", "static_slope"), ("Cm_q", "Cm", "rate_derivative"),
                              ("Cm_damping", "Cm", "damping_sum")):
    cells = ", ".join(f"{getattr(r.derivatives.channels[channel], field):+.4f} @ "
                      f"{r.derivatives.condition.freestream_speed:g} m/s" for r in flying)
    print(f"  {label:12} {cells}")

print("\nmachine-readable rows (report.csv format):")
for line in machine.splitlines()[:5]:
    print(" ", line)
print("  ...")
