"""Prescribed harmonic pitch motions for forced-oscillation testing.

One generator, ``make_schedule``, samples the body motion on a uniform,
endpoint-excluded time grid.  Its phase is sin and cos of 2*pi*m/N for
m = 0..N-1 (N samples per cycle), taken once and repeated each cycle, so
every cycle of the motion, and of whatever a transient-free plant makes of
it, is the same bit for bit.  A ``MotionSchedule`` stores only that grid
and phase; each mode's incidence and rates follow from them and its spec
by one rule, so ``MotionSchedule.with_mode`` flies the same body motion in
another mode by swapping the spec.  Both modes pitch the body the same
way; they differ only in what the freestream does:

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
* nondimensional rates are rate * chord / (2 V) = rate * ``FlightCondition.semichord_time()``;
* t = 0 is the ascending zero crossing of the oscillation (phase 0);
* all rates and accelerations are analytic derivatives of the prescribed
  motion, never finite differences.
"""

from __future__ import annotations

import enum
import math
import sys
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

    def semichord_time(self) -> float:
        """c / (2 V) in s, the scale of every nondimensional rate; hover has none."""
        if self.freestream_speed == 0.0:
            raise NonDimensionalizationUndefined(
                "hover: a nondimensional rate needs a nonzero freestream speed")
        return self.ref_chord / (2.0 * self.freestream_speed)


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
        # MotionSchedule tests ``mode is OscillationMode.ALPHA``: a string would run the q motion
        check(isinstance(self.mode, OscillationMode), "mode", "must be an OscillationMode",
              self.mode)
        check_fields(self, "finite", "mean_incidence")
        check(self.body_amplitude != 0.0, "body_amplitude",
              "must be > 0; a zero-amplitude case has no motion", 0.0, ZeroAmplitude)
        check_fields(self, "> 0", "body_amplitude")
        # below the smallest normal float, extract's quotients lose digits or overflow
        tiny = sys.float_info.min
        check(self.body_amplitude >= tiny, "body_amplitude",
              f"must be >= {tiny!r} rad, the smallest normal float", self.body_amplitude)
        check(self.reduced_frequency != 0.0, "reduced_frequency",
              "must be > 0; rate scaling is undefined at 0", 0.0, ZeroReducedFrequency)
        check_fields(self, "> 0", "reduced_frequency")
        rate_scale = self.reduced_frequency * self.body_amplitude
        check(0.0 < rate_scale < math.inf, "reduced_frequency",
              "must keep the rate scale k * amplitude finite and > 0", self.reduced_frequency)
        check(rate_scale >= tiny, "reduced_frequency",
              f"must keep the rate scale k * amplitude >= {tiny!r}", self.reduced_frequency)
        for field, minimum in (("cycles", 1), ("samples_per_cycle", 8)):
            value = getattr(self, field)
            # a float or bool would render as a config that does not parse back
            whole = isinstance(value, int) and not isinstance(value, bool)
            check(whole and value >= minimum, field, f"must be an integer >= {minimum}", value)
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
        """This spec switched to the given oscillation mode (itself when unchanged)."""
        return self if mode is self.mode else replace(self, mode=mode)


@dataclass(frozen=True, eq=False)
class MotionSchedule:
    """A body motion sampled on a uniform, endpoint-excluded grid, flown in ``spec.mode``.

    The fields are what every mode shares: the time grid and the phase
    ``phase_sin``, ``phase_cos``, each of length cycles * samples_per_cycle.
    Sample n of the phase is sin, cos of 2*pi*m/N with m = n mod N and N =
    samples_per_cycle: omega*t on the grid, sampled on one cycle and
    repeated, so it is exactly periodic.  The body pitches as theta = alpha0 +
    A*sin(omega*t) in both modes, so q and its rate follow from the phase.
    Incidence mode holds the flow at 0: the relative incidence tracks theta
    and alpha_dot = q, so the out-of-phase response carries C_q + C_alphadot.
    Flow-path mode turns the flow with the body: the incidence stays alpha0
    and alpha_dot = 0, isolating C_q.  Those four arrays are properties,
    computed from ``spec`` and the phase on each read; a plant reads each once.
    """

    spec: OscillationSpec
    omega: float                # rad/s
    time: np.ndarray
    phase_sin: np.ndarray
    phase_cos: np.ndarray

    def __len__(self) -> int:
        return len(self.time)

    @property
    def relative_aoa(self) -> np.ndarray:
        """Relative incidence, rad."""
        if self.spec.mode is OscillationMode.ALPHA:
            return self.spec.mean_incidence + self.spec.body_amplitude * self.phase_sin
        return np.full_like(self.phase_sin, self.spec.mean_incidence)

    @property
    def aoa_rate(self) -> np.ndarray:
        """alpha_dot, rad/s."""
        if self.spec.mode is OscillationMode.ALPHA:
            return self.pitch_rate
        return np.zeros_like(self.phase_sin)

    @property
    def pitch_rate(self) -> np.ndarray:
        """q, rad/s."""
        return self.omega * self.spec.body_amplitude * self.phase_cos

    @property
    def pitch_accel(self) -> np.ndarray:
        """The body pitch's second derivative, rad/s^2."""
        return -self.omega * self.omega * self.spec.body_amplitude * self.phase_sin

    def with_mode(self, mode: OscillationMode) -> "MotionSchedule":
        """The same body motion flown in ``mode`` (this schedule when unchanged)."""
        spec = self.spec.with_mode(mode)
        return self if spec is self.spec else replace(self, spec=spec)


def omega_from_k(k: float, cond: FlightCondition) -> float:
    """Angular frequency (rad/s) for reduced frequency k = omega*c/(2V)."""
    check(math.isfinite(k) and k > 0.0, "k", "must be > 0", k)
    cond.semichord_time()   # refuses hover; 2kV/c, not k / semichord_time, keeps omega's bits
    return 2.0 * k * cond.freestream_speed / cond.ref_chord


def sample_grid(spec: OscillationSpec, omega: float) -> np.ndarray:
    """Uniform time stamps spanning ``cycles`` whole periods, endpoint excluded.

    Excluding t = cycles*T keeps the sample set periodic, which in turn
    keeps the harmonic regression basis orthogonal on the grid.  Sample n
    has the phase omega*t = 2*pi*m/N with m = n mod N; ``make_schedule``
    takes the sine and cosine of that phase on one cycle, so they repeat
    exactly, where sin(omega*t) of these time stamps would drift by
    rounding from cycle to cycle.
    """
    check(math.isfinite(omega) and omega > 0.0, "omega", "must be > 0", omega)
    period = 2.0 * math.pi / omega
    n = spec.cycles * spec.samples_per_cycle
    check(math.isfinite(n * period), "omega", "must keep every time stamp finite", omega)
    return np.arange(n) * period / spec.samples_per_cycle


def make_schedule(spec: OscillationSpec, cond: FlightCondition) -> MotionSchedule:
    """Sample the body motion of ``spec`` on its uniform time grid, flown in ``spec.mode``."""
    omega = omega_from_k(spec.reduced_frequency, cond)
    check(math.isfinite(omega * omega * spec.body_amplitude), "omega",
          "must keep the pitch acceleration omega^2 * amplitude finite", omega)
    # one cycle of the phase 2*pi*m/N, repeated: every cycle the same bit for bit
    phase = np.arange(spec.samples_per_cycle) * (2.0 * math.pi / spec.samples_per_cycle)
    return MotionSchedule(spec=spec, omega=omega, time=sample_grid(spec, omega),
                          phase_sin=np.tile(np.sin(phase), spec.cycles),
                          phase_cos=np.tile(np.cos(phase), spec.cycles))
