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

from .errors import NonDimensionalizationUndefined, ZeroAmplitude, ZeroReducedFrequency


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
        if not (math.isfinite(self.freestream_speed) and self.freestream_speed >= 0.0):
            raise ValueError(f"freestream_speed must be >= 0, got {self.freestream_speed}")
        if not (math.isfinite(self.density) and self.density > 0.0):
            raise ValueError(f"density must be > 0, got {self.density}")
        if not (math.isfinite(self.ref_chord) and self.ref_chord > 0.0):
            raise ValueError(f"ref_chord must be > 0, got {self.ref_chord}")
        if not (math.isfinite(self.ref_span) and self.ref_span > 0.0):
            raise ValueError(f"ref_span must be > 0, got {self.ref_span}")
        if not (math.isfinite(self.ref_area) and self.ref_area > 0.0):
            raise ValueError(f"ref_area must be > 0, got {self.ref_area}")
        if self.sound_speed is not None:
            if not (math.isfinite(self.sound_speed) and self.sound_speed > 0.0):
                raise ValueError(f"sound_speed must be > 0, got {self.sound_speed}")
            if self.mach >= 1.0:
                raise ValueError(f"Mach must be < 1, got {self.mach}")

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
        if not math.isfinite(self.mean_incidence):
            raise ValueError(f"mean_incidence must be finite, got {self.mean_incidence}")
        if self.body_amplitude == 0.0:
            raise ZeroAmplitude("body_amplitude must be > 0; a zero-amplitude case has no motion")
        if not (math.isfinite(self.body_amplitude) and self.body_amplitude > 0.0):
            raise ValueError(f"body_amplitude must be > 0, got {self.body_amplitude}")
        if self.reduced_frequency == 0.0:
            raise ZeroReducedFrequency("reduced_frequency must be > 0; rate scaling undefined at 0")
        if not (math.isfinite(self.reduced_frequency) and self.reduced_frequency > 0.0):
            raise ValueError(f"reduced_frequency must be > 0, got {self.reduced_frequency}")
        if int(self.cycles) != self.cycles or self.cycles < 1:
            raise ValueError(f"cycles must be a positive integer, got {self.cycles}")
        if int(self.samples_per_cycle) != self.samples_per_cycle or self.samples_per_cycle < 8:
            raise ValueError(
                f"samples_per_cycle must be an integer >= 8, got {self.samples_per_cycle}"
            )

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

    Field arrays all share one length: cycles * samples_per_cycle.  The
    relative angle of attack satisfies alpha = body_pitch - flow_angle at
    every sample, to rounding.  ``pitch_accel`` is the analytic second
    derivative of the body pitch; the time-marching plant needs it for
    apparent-mass terms.  Plants consume the schedule as whole arrays.
    """

    spec: OscillationSpec
    omega: float                # rad/s
    time: np.ndarray
    body_pitch: np.ndarray
    relative_aoa: np.ndarray
    pitch_rate: np.ndarray
    nondim_pitch_rate: np.ndarray
    aoa_rate: np.ndarray
    nondim_aoa_rate: np.ndarray
    flow_angle: np.ndarray
    pitch_accel: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


def omega_from_k(k: float, cond: FlightCondition) -> float:
    """Angular frequency (rad/s) for reduced frequency k = omega*c/(2V)."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"reduced frequency must be > 0, got {k}")
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
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be > 0, got {omega}")
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
    # relative_aoa is set per mode, never computed as theta - flow: that
    # difference is not exact in floating point
    if spec.mode is OscillationMode.ALPHA:
        alpha, aoa_rate, aoa_rate_hat, flow = theta.copy(), q.copy(), qhat.copy(), np.zeros_like(t)
    else:
        alpha, aoa_rate, aoa_rate_hat, flow = (
            np.full_like(t, spec.mean_incidence), np.zeros_like(t), np.zeros_like(t), amp * s
        )
    return MotionSchedule(
        spec=spec,
        omega=omega,
        time=t,
        body_pitch=theta,
        relative_aoa=alpha,
        pitch_rate=q,
        nondim_pitch_rate=qhat,
        aoa_rate=aoa_rate,
        nondim_aoa_rate=aoa_rate_hat,
        flow_angle=flow,
        pitch_accel=-omega * omega * amp * s,
    )
