"""Prescribed harmonic pitch motions for forced-oscillation testing.

One generator, ``make_schedule``, samples either motion mode on a uniform,
endpoint-excluded time grid.  Both modes pitch the body the same way; they
differ only in what the freestream does:

* incidence mode (``ALPHA``) -- the body pitches in a fixed freestream, so
  the relative angle of attack and the pitch rate vary together;
* flow-path mode (``Q``) -- the freestream direction turns with the body
  (equal amplitudes by construction), holding the relative angle of attack
  constant while the pitch rate still varies.  Fitting both modes lets the
  caller split the damping sum C_q + C_alphadot into its two parts.

Conventions fixed here and relied on by the rest of the package:

* every internal angle is radians; degrees appear only at external
  boundaries (configs, CLI flags, report text);
* reduced frequency k = omega * chord / (2 V);
* nondimensional rates are rate * chord / (2 V);
* t = 0 is the ascending zero crossing of the oscillation (phase 0);
* all rates and accelerations are analytic derivatives of the prescribed
  motion, never finite differences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NonDimensionalizationUndefined,
    ZeroAmplitude,
    ZeroReducedFrequency,
    check,
    check_fields,
)


# Most samples one case may ask for.  A schedule and a plant's series over it
# take 110-160 MB at this bound (quasi-steady to indicial), so the arrays can
# always be allocated; the AGARD validation case needs 15 840.
MAX_SAMPLES = 1_000_000


class OscillationMode(enum.Enum):
    """Which harmonic forcing pattern a test case applies."""

    ALPHA = "alpha"
    Q = "q"


@dataclass(frozen=True)
class FlightCondition:
    """Freestream and reference geometry for one test condition.

    ``sound_speed`` is optional; when present it defines the Mach number
    used by compressibility-aware plants.
    """

    freestream_speed: float         # m/s
    density: float                  # kg/m^3
    ref_chord: float                # m
    ref_span: float                 # m
    ref_area: float                 # m^2
    sound_speed: float | None = None  # m/s

    def __post_init__(self) -> None:
        check_fields(self, ">= 0", "freestream_speed")
        check_fields(self, "> 0", "density", "ref_chord", "ref_span", "ref_area")
        if self.sound_speed is not None:
            check_fields(self, "> 0", "sound_speed")
            check(self.mach < 1.0, "freestream_speed",
                  "must be below the sound speed (Mach must be < 1)", self.freestream_speed)

    @property
    def mach(self) -> float | None:
        """Freestream Mach number, or None when no sound speed is given."""
        if self.sound_speed is None:
            return None
        return self.freestream_speed / self.sound_speed


@dataclass(frozen=True)
class OscillationSpec:
    """One forced-oscillation case: mode, amplitude, frequency, sampling.

    ``body_amplitude`` is the pitch amplitude of the body; in flow-path
    mode the freestream direction swings with the same amplitude, which is
    what keeps the relative incidence constant.
    """

    mode: OscillationMode
    mean_incidence: float        # rad
    body_amplitude: float        # rad
    reduced_frequency: float     # k = omega*c/(2V)
    cycles: int = 3
    samples_per_cycle: int = 720

    def __post_init__(self) -> None:
        check_fields(self, "finite", "mean_incidence")
        check(self.body_amplitude != 0.0, "body_amplitude",
              "must be > 0; a zero-amplitude case has no motion", 0.0, ZeroAmplitude)
        check_fields(self, "> 0", "body_amplitude")
        check(self.reduced_frequency != 0.0, "reduced_frequency",
              "must be > 0; rate scaling is undefined at 0", 0.0, ZeroReducedFrequency)
        check_fields(self, "> 0", "reduced_frequency")
        check(0.0 < self.reduced_frequency * self.body_amplitude < math.inf, "reduced_frequency",
              "must keep the rate scale k * amplitude finite and > 0", self.reduced_frequency)
        for field, minimum in (("cycles", 1), ("samples_per_cycle", 8)):
            value = getattr(self, field)
            check(value % 1 == 0 and value >= minimum, field,
                  f"must be an integer >= {minimum}", value)
        check(self.cycles * self.samples_per_cycle <= MAX_SAMPLES, "samples_per_cycle",
              f"must keep cycles * samples_per_cycle <= {MAX_SAMPLES}", self.samples_per_cycle)

    @classmethod
    def from_degrees(
        cls,
        mode: OscillationMode,
        mean_incidence_deg: float,
        amplitude_deg: float,
        reduced_frequency: float,
        cycles: int = 3,
        samples_per_cycle: int = 720,
    ) -> "OscillationSpec":
        """Build a spec from the degree-denominated external convention."""
        return cls(
            mode=mode,
            mean_incidence=math.radians(mean_incidence_deg),
            body_amplitude=math.radians(amplitude_deg),
            reduced_frequency=reduced_frequency,
            cycles=cycles,
            samples_per_cycle=samples_per_cycle,
        )

    def with_mode(self, mode: OscillationMode) -> "OscillationSpec":
        """Copy of this spec switched to the given oscillation mode."""
        return replace(self, mode=mode)


@dataclass(frozen=True, eq=False)
class MotionSchedule:
    """A prescribed motion sampled on a uniform, endpoint-excluded grid.

    Field arrays all share one length: cycles * samples_per_cycle.
    ``pitch_accel`` is the analytic second derivative of the body pitch;
    the time-marching plant needs it for apparent-mass terms.  Plants
    consume the schedule as whole arrays.
    """

    spec: OscillationSpec
    omega: float                # rad/s
    time: np.ndarray
    relative_aoa: np.ndarray
    pitch_rate: np.ndarray
    nondim_pitch_rate: np.ndarray
    aoa_rate: np.ndarray
    nondim_aoa_rate: np.ndarray
    pitch_accel: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


def omega_from_k(k: float, cond: FlightCondition) -> float:
    """Angular frequency (rad/s) for reduced frequency k = omega*c/(2V)."""
    check(math.isfinite(k) and k > 0.0, "k", "must be > 0", k)
    if cond.freestream_speed == 0.0:
        raise NonDimensionalizationUndefined(
            "freestream speed is zero (hover): reduced frequency does not "
            "define an angular frequency"
        )
    return 2.0 * k * cond.freestream_speed / cond.ref_chord


def sample_grid(spec: OscillationSpec, omega: float) -> np.ndarray:
    """Uniform time stamps spanning ``cycles`` whole periods, endpoint excluded.

    Excluding t = cycles*T keeps the sample set exactly periodic, which in
    turn keeps the harmonic regression basis orthogonal on the grid.
    """
    check(math.isfinite(omega) and omega > 0.0, "omega", "must be > 0", omega)
    period = 2.0 * math.pi / omega
    n = spec.cycles * spec.samples_per_cycle
    return np.arange(n) * period / spec.samples_per_cycle


def make_schedule(spec: OscillationSpec, cond: FlightCondition) -> MotionSchedule:
    """Sample the motion of ``spec.mode`` on its uniform time grid.

    Both modes pitch the body as theta(t) = alpha0 + A*sin(omega*t), so
    q = omega*A*cos(omega*t) in both.  Incidence mode holds the flow angle
    at 0: the relative incidence tracks theta and alpha_dot = q, and the
    out-of-phase response carries the damping sum C_q + C_alphadot.
    Flow-path mode turns the flow with the body, lambda(t) = A*sin(omega*t):
    the relative incidence stays alpha0 and alpha_dot = 0, so the response
    isolates the pure pitch-rate derivatives C_q.
    """
    omega = omega_from_k(spec.reduced_frequency, cond)
    t = sample_grid(spec, omega)
    amp = spec.body_amplitude
    s = np.sin(omega * t)
    c = np.cos(omega * t)
    theta = spec.mean_incidence + amp * s
    q = omega * amp * c
    qhat = q * (cond.ref_chord / (2.0 * cond.freestream_speed))
    if spec.mode is OscillationMode.ALPHA:
        alpha, aoa_rate, aoa_rate_hat = theta, q.copy(), qhat.copy()
    else:
        alpha, aoa_rate, aoa_rate_hat = (
            np.full_like(t, spec.mean_incidence), np.zeros_like(t), np.zeros_like(t)
        )
    return MotionSchedule(
        spec=spec,
        omega=omega,
        time=t,
        relative_aoa=alpha,
        pitch_rate=q,
        nondim_pitch_rate=qhat,
        aoa_rate=aoa_rate,
        nondim_aoa_rate=aoa_rate_hat,
        pitch_accel=-omega * omega * amp * s,
    )
