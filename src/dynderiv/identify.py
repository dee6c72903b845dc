"""First-harmonic regression and derivative extraction.

A coefficient history recorded under harmonic forcing is regressed onto
the basis {1, sin(omega*t), cos(omega*t)} by orthogonal least squares
(never the normal equations, so non-uniform external data does not lose
precision silently).  The in-phase (sin) component scales with the
displacement amplitude and yields static slopes; the out-of-phase (cos)
component scales with the rate amplitude k*A and yields rate derivatives:

* incidence mode:  in-phase / A      -> C_alpha
                   out-of-phase/(kA) -> damping sum C_q + C_alphadot
* flow-path mode:  out-of-phase/(kA) -> C_q
                   in-phase / A      -> contamination diagnostic

``extract`` applies that table for either mode; running both modes and
differencing with ``separate_rates`` separates C_alphadot from C_q.

Only the first harmonic is fitted; higher-harmonic content shows up in
the residual and the quality flags rather than in extra fitted terms.
The phase reference is absolute time with t = 0 at the ascending zero
crossing of the forcing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConditionMismatch, InsufficientSamples, NonFiniteData, check
from .kinematics import FlightCondition, OscillationMode, OscillationSpec
from .series import CHANNELS, CoefficientSeries

_REL_TOL = 1e-9   # relative tolerance for condition matching in separate_rates


@dataclass(frozen=True)
class HarmonicFit:
    """Mean, in-phase and out-of-phase components of one fitted channel.

    y ~= mean + in_phase * sin(omega*t) + out_phase * cos(omega*t).
    """

    mean: float
    in_phase: float          # coefficient of sin(omega*t)
    out_phase: float         # coefficient of cos(omega*t)
    residual_rms: float
    condition_indicator: float
    n_samples: int
    n_periods: int

    @property
    def amplitude(self) -> float:
        """Amplitude of the fitted first harmonic: hypot(in_phase, out_phase)."""
        return math.hypot(self.in_phase, self.out_phase)


def _window(times: np.ndarray, omega: float, skip_cycles: int) -> tuple[slice, int, float]:
    """Post-skip fit window trimmed to whole periods.

    Returns (index slice, whole periods in the window, window end time).
    The window is half-open; on the canonical endpoint-excluded uniform
    grid it keeps exactly (cycles - skip_cycles) * samples_per_cycle
    samples.
    """
    period = 2.0 * math.pi / omega
    # Keeps every difference, span, period count and phase below from overflow.
    t_max = max(abs(float(times[0])), abs(float(times[-1])))
    if t_max * max(omega, 1.0) > 1e300 or period > 1e300:
        raise NonFiniteData(
            f"times up to {t_max:.6g} s at omega {omega:.6g} rad/s are out of range for a fit "
            "(|t| * max(omega, 1) and 2*pi/omega must be <= 1e300)")
    step = float(np.median(np.diff(times))) if len(times) > 1 else 0.0
    tol = 0.25 * step
    span = float(times[-1] + step - times[0])
    n_periods = 0
    if skip_cycles <= (span + tol) / period:    # before multiplying: an int may overflow a float
        start = times[0] + skip_cycles * period
        n_periods = int(math.floor((times[-1] + step - start + tol) / period))
    if n_periods < 1:
        raise InsufficientSamples(
            f"no whole period left after skipping {skip_cycles} cycles "
            f"(span {span:.6g} s, period {period:.6g} s)"
        )
    hi = start + n_periods * period
    i_lo = int(np.searchsorted(times, start - tol))
    i_hi = int(np.searchsorted(times, hi - tol))
    if i_hi - i_lo < 8:
        raise InsufficientSamples(
            f"only {i_hi - i_lo} samples in the fit window; need at least 8"
        )
    return slice(i_lo, i_hi), n_periods, hi


def fit_harmonic(times, values, omega: float, skip_cycles: int = 0) -> HarmonicFit:
    """Least-squares fit of one channel onto {1, sin(omega*t), cos(omega*t)}.

    ``skip_cycles`` whole periods are dropped from the front (start-up
    transients) and the remaining window is trimmed to a whole number of
    periods.  On a uniform periodic grid the fit is exact linear algebra:
    a signal already in the basis span is recovered to machine precision.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    check(times.shape == values.shape and times.ndim == 1, "values",
          "must be a 1-D array as long as times", values.shape)
    check(math.isfinite(omega) and omega > 0.0, "omega", "must be > 0", omega)
    check(skip_cycles >= 0, "skip_cycles", "must be >= 0", skip_cycles)
    if not np.all(np.isfinite(values)):
        raise NonFiniteData("values contain non-finite entries")
    if not np.all(np.isfinite(times)):
        raise NonFiniteData("times contain non-finite entries")

    sel, n_periods, _ = _window(times, omega, skip_cycles)
    t = times[sel]
    y = values[sel]
    design = np.column_stack([np.ones_like(t), np.sin(omega * t), np.cos(omega * t)])
    beta, _, rank, sigma = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        cond = math.inf
    else:
        cond = float(sigma[0] / sigma[-1])
    resid = y - design @ beta
    return HarmonicFit(
        mean=float(beta[0]),
        in_phase=float(beta[1]),
        out_phase=float(beta[2]),
        residual_rms=float(np.sqrt(np.mean(resid * resid))),
        condition_indicator=cond,
        n_samples=len(t),
        n_periods=n_periods,
    )


def fit_series(series: CoefficientSeries, omega: float,
               skip_cycles: int = 0) -> dict[str, HarmonicFit]:
    """Fit every channel present in a series; keys are 'CL', 'CD', 'Cm'."""
    return {
        name: fit_harmonic(series.times, values, omega, skip_cycles)
        for name, values in series.channels().items()
    }


@dataclass(frozen=True)
class ChannelDerivatives:
    """Identified derivatives for one coefficient channel.

    Fields left as None were not identifiable from the runs at hand.
    """

    trim_value: float | None = None
    static_slope: float | None = None          # per rad
    rate_derivative: float | None = None       # per rad (pitch rate)
    damping_sum: float | None = None           # rate + aoa_rate, per rad
    contamination: float | None = None         # flow-path-mode in-phase residue / A
    fit: HarmonicFit | None = None

    @property
    def aoa_rate_derivative(self) -> float | None:
        """Incidence-rate derivative per rad: damping_sum - rate_derivative, once both exist."""
        if self.damping_sum is None or self.rate_derivative is None:
            return None
        return self.damping_sum - self.rate_derivative


@dataclass(frozen=True)
class DerivativeSet:
    """Per-channel derivatives plus the spec and condition of the runs behind them."""

    channels: Mapping[str, ChannelDerivatives]
    spec: OscillationSpec | None = None
    condition: FlightCondition | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", dict(self.channels))
        for name in self.channels:
            check(name in CHANNELS, "channels", f"must be named from {CHANNELS}", name)


def extract(
    fits: Mapping[str, HarmonicFit],
    spec: OscillationSpec,
    condition: FlightCondition | None = None,
) -> DerivativeSet:
    """Derivatives that one mode's fits support, channel by channel.

    Incidence mode: static slope = in-phase / A and damping sum =
    out-of-phase / (k*A); the rate and incidence-rate derivatives only
    appear summed, so they stay unresolved.  Flow-path mode: rate
    derivative = out-of-phase / (k*A), and the in-phase residue over A is
    reported as a contamination diagnostic: the incidence is constant in
    this mode, so for a plant with no apparent-mass physics it must be zero.
    OscillationSpec keeps A > 0 and k*A finite and > 0, so both scalings exist.
    """
    amp = spec.body_amplitude
    k = spec.reduced_frequency
    channels = {}
    for name, fit in fits.items():
        in_phase, out_phase = fit.in_phase / amp, fit.out_phase / (k * amp)
        if spec.mode is OscillationMode.ALPHA:
            parts = {"static_slope": in_phase, "damping_sum": out_phase}
        else:
            parts = {"rate_derivative": out_phase, "contamination": in_phase}
        channels[name] = ChannelDerivatives(trim_value=fit.mean, fit=fit, **parts)
    return DerivativeSet(channels=channels, spec=spec, condition=condition)


def _same(x: float | None, y: float | None) -> bool:
    if x is None or y is None:
        return x is y
    return math.isclose(x, y, rel_tol=_REL_TOL, abs_tol=0.0) or x == y


def separate_rates(alpha_set: DerivativeSet, q_set: DerivativeSet) -> DerivativeSet:
    """Merge the two modes and split the damping sum.

    Each merged channel carries the incidence-mode damping_sum and the
    flow-path-mode rate_derivative, so its aoa_rate_derivative is their
    difference.  Both runs must share the same reduced frequency and flight
    condition (1e-9 relative).
    """
    sa, sq = alpha_set.spec, q_set.spec
    if sa is None or sq is None:
        raise ConditionMismatch("both derivative sets need an oscillation spec to be merged")
    if not _same(sa.reduced_frequency, sq.reduced_frequency):
        raise ConditionMismatch(
            f"reduced frequencies differ: {sa.reduced_frequency} vs {sq.reduced_frequency}"
        )
    ca, cq = alpha_set.condition, q_set.condition
    if (ca is None) != (cq is None):
        raise ConditionMismatch("one derivative set has a flight condition, the other does not")
    if ca is not None and cq is not None:
        for field in ("freestream_speed", "density", "ref_chord", "sound_speed"):
            if not _same(getattr(ca, field), getattr(cq, field)):
                raise ConditionMismatch(
                    f"flight conditions differ in {field}: "
                    f"{getattr(ca, field)} vs {getattr(cq, field)}"
                )

    merged: dict[str, ChannelDerivatives] = {}
    for name in alpha_set.channels.keys() & q_set.channels.keys():
        cha = alpha_set.channels[name]
        chq = q_set.channels[name]
        if cha.damping_sum is None:
            raise ConditionMismatch(f"channel {name}: incidence-mode set carries no damping sum")
        if chq.rate_derivative is None:
            raise ConditionMismatch(
                f"channel {name}: flow-path-mode set carries no rate derivative")
        merged[name] = ChannelDerivatives(
            trim_value=cha.trim_value,
            static_slope=cha.static_slope,
            rate_derivative=chq.rate_derivative,
            damping_sum=cha.damping_sum,
            contamination=chq.contamination,
            fit=cha.fit,
        )
    if not merged:
        raise ConditionMismatch("the two derivative sets share no channels")
    return DerivativeSet(channels=merged, spec=sa, condition=ca)


# ---------------------------------------------------------------------------
# Loop metrics
# ---------------------------------------------------------------------------

class Orientation(enum.Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class LoopMetrics:
    """Area and orientation of one coefficient-vs-angle hysteresis loop.

    signed_area is the trapezoidal loop integral of y over x for the last
    full cycle; for x = A*sin(omega*t) and a first-harmonic response it
    equals pi * A * out_phase, so its sign is the sign of the out-of-phase
    (damping-like) component.  Positive area is labelled counterclockwise.
    """

    signed_area: float

    @property
    def orientation(self) -> Orientation:
        """The sign of ``signed_area``; an area of exactly zero is DEGENERATE."""
        if self.signed_area == 0.0:
            return Orientation.DEGENERATE
        return Orientation.COUNTERCLOCKWISE if self.signed_area > 0.0 else Orientation.CLOCKWISE


def loop_metrics(times, x, y, omega: float, skip_cycles: int = 0) -> LoopMetrics:
    """Signed loop area and orientation of a hysteresis loop.

    x is the angle series (rad), y the coefficient series.  The area is
    the closed trapezoidal integral of y dx over the last full cycle of
    the post-skip window.  Near-zero areas (below the accumulated rounding
    of the sum) are classified DEGENERATE.
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    check(times.shape == x.shape == y.shape, "x, y", "must have the shape of times", times.shape)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NonFiniteData("loop series contain non-finite entries")

    sel, _, hi = _window(times, omega, skip_cycles)
    period = 2.0 * math.pi / omega
    t_w = times[sel]
    last = sel.start + int(np.searchsorted(t_w, hi - period - 0.25 * (t_w[1] - t_w[0])))
    xs = x[last:sel.stop]
    ys = y[last:sel.stop]
    if len(xs) < 8:
        raise InsufficientSamples(f"only {len(xs)} samples in the last cycle; need at least 8")

    dx = np.diff(xs, append=xs[:1])            # wrap around to close the loop
    area = float(np.sum(0.5 * (ys + np.roll(ys, -1)) * dx))

    # classification threshold: accumulated rounding of the trapezoid sum
    scale = float(np.max(np.abs(xs)) * np.max(np.abs(ys)))
    tol = 32.0 * len(xs) * np.finfo(float).eps * scale
    return LoopMetrics(0.0 if abs(area) <= tol else area)


# ---------------------------------------------------------------------------
# Fit quality flags
# ---------------------------------------------------------------------------

RESIDUAL_FLAG = "RESIDUAL"
CONDITIONING_FLAG = "CONDITIONING"
CONTAMINATION_FLAG = "CONTAMINATION"
# flag thresholds; residual and contamination are relative to the fitted amplitude
_RESIDUAL_THRESHOLD = 1e-3
_CONDITIONING_THRESHOLD = 1e6
_CONTAMINATION_THRESHOLD = 0.1


def validate_fit(fit: HarmonicFit, spec: OscillationSpec) -> list[str]:
    """Quality flags for one harmonic fit; empty means clean.

    The contamination check only applies in flow-path mode, where in-phase
    content beyond apparent-mass effects indicates an amplitude mismatch
    upstream.  Never mutates the fit.
    """
    flags: list[str] = []
    amp = fit.amplitude
    if fit.residual_rms > _RESIDUAL_THRESHOLD * amp:
        flags.append(RESIDUAL_FLAG)
    if fit.condition_indicator > _CONDITIONING_THRESHOLD:
        flags.append(CONDITIONING_FLAG)
    if spec.mode is OscillationMode.Q and abs(fit.in_phase) > _CONTAMINATION_THRESHOLD * amp:
        flags.append(CONTAMINATION_FLAG)
    return flags
