"""First-harmonic regression and derivative extraction.

A coefficient history recorded under harmonic forcing is regressed onto
the basis {1, sin(omega*t), cos(omega*t)} by orthogonal least squares
(never the normal equations, so non-uniform external data does not lose
precision silently).  All channels of a series share one fit window and
one SVD factorization of the design matrix; each channel is then one
product with its pseudo-inverse.  A sweep shares one basis, built on the
phase grid omega*t, across both modes, every scenario and the loop metrics,
so its derivatives may differ from per-series fits at rounding level.  A
fit needs more than two samples per period in its window: at two or fewer
the basis cannot resolve the forcing frequency.  The in-phase (sin)
component scales with the displacement amplitude and yields static slopes;
the out-of-phase (cos) component scales with the rate amplitude k*A and
yields rate derivatives:

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

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConditionMismatch, InsufficientSamples, NonFiniteData, _choices, check
from .kinematics import FlightCondition, OscillationMode, OscillationSpec
from .series import CHANNELS, CoefficientSeries

_REL_TOL = 1e-9   # relative tolerance for condition matching in separate_rates
# the table above, as the fields extract fills: mode -> (in-phase / A, out-of-phase / (k*A))
_IDENTIFIES = {OscillationMode.ALPHA: ("static_slope", "damping_sum"),
               OscillationMode.Q: ("contamination", "rate_derivative")}


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


def _whole_skip(skip_cycles: int) -> int:
    """``skip_cycles`` once it is a whole number of cycles: an int >= 0, not a bool."""
    check(isinstance(skip_cycles, int) and not isinstance(skip_cycles, bool), "skip_cycles",
          "must be an integer", skip_cycles)
    check(skip_cycles >= 0, "skip_cycles", "must be >= 0", skip_cycles)
    return skip_cycles


def _window(times: np.ndarray, omega: float, skip_cycles: int) -> tuple[slice, int, int]:
    """Post-skip fit window trimmed to whole periods.

    Returns (index slice, whole periods in it, start index of its last period).
    The window is half-open; on the canonical endpoint-excluded uniform
    grid it keeps exactly (cycles - skip_cycles) * samples_per_cycle
    samples.  It must hold at least 8 samples and more than 2 per period:
    at 2 or fewer the sin/cos basis cannot resolve the forcing frequency
    and the fit is aliased.
    """
    check(math.isfinite(omega) and omega > 0.0, "omega", "must be > 0", omega)
    _whole_skip(skip_cycles)
    if not np.all(np.isfinite(times)):
        raise NonFiniteData("times contain non-finite entries")
    if len(times) == 0:
        raise InsufficientSamples("no samples to fit")
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
    n = i_hi - i_lo
    if n < 8:
        raise InsufficientSamples(f"only {n} samples in the fit window; need at least 8")
    if n <= 2 * n_periods:
        raise InsufficientSamples(
            f"only {n} samples over {n_periods:.6g} periods in the fit window; "
            "need more than 2 per period"
        )
    quarter = 0.25 * (times[i_lo + 1] - times[i_lo])
    last = i_lo + int(np.searchsorted(times[i_lo:i_hi], hi - period - quarter))
    return slice(i_lo, i_hi), n_periods, last


class _Basis(NamedTuple):
    """The fit window of one time base and the factorization its channels share."""

    window: slice
    n_periods: int
    last_cycle: int                  # start index of the window's last whole period
    design: np.ndarray               # window samples x {1, sin(omega*t), cos(omega*t)}
    pinv: np.ndarray                 # 3 x samples pseudo-inverse of design
    condition_indicator: float


def _harmonic_basis(times: np.ndarray, omega: float, skip_cycles: int) -> _Basis:
    """Window, design matrix and its pseudo-inverse from one thin SVD.

    Singular values at or below eps * samples * sigma_max count as zero,
    the rule ``np.linalg.lstsq`` applies with ``rcond=None``; the
    condition indicator is then infinite.
    """
    sel, n_periods, last = _window(times, omega, skip_cycles)
    wt = omega * times[sel]
    design = np.column_stack([np.ones_like(wt), np.sin(wt), np.cos(wt)])
    u, sigma, vt = np.linalg.svd(design, full_matrices=False)
    keep = sigma > np.finfo(float).eps * len(wt) * sigma[0]
    pinv = (vt[keep].T / sigma[keep]) @ u[:, keep].T
    cond = float(sigma[0] / sigma[-1]) if keep.all() else math.inf
    design.flags.writeable = pinv.flags.writeable = False     # one basis may serve a sweep
    return _Basis(sel, n_periods, last, design, pinv, cond)


def fit_harmonic(times, values, omega: float, skip_cycles: int = 0, *,
                 _basis: _Basis | None = None) -> HarmonicFit:
    """Least-squares fit of one channel onto {1, sin(omega*t), cos(omega*t)}.

    ``skip_cycles``, a whole number (an int >= 0, not a bool), counts the
    periods dropped from the front (start-up transients); the remaining
    window is trimmed to a whole number of periods.  On a uniform periodic
    grid the fit is exact linear algebra: a signal already in the basis
    span is recovered to machine precision.
    ``_basis`` is the basis ``fit_series`` shares among the channels.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    check(times.shape == values.shape and times.ndim == 1, "values",
          "must be a 1-D array as long as times", values.shape)
    peak = float(np.abs(values).max(initial=0.0))
    if not math.isfinite(peak):
        raise NonFiniteData("values contain non-finite entries")
    if peak > 1e150:            # coefficients are O(1); keeps the residual's squares finite
        raise NonFiniteData(f"values up to {peak:.6g} are out of range for a fit "
                            "(|value| must be <= 1e150)")
    basis = _basis if _basis is not None else _harmonic_basis(times, omega, skip_cycles)

    y = values[basis.window]
    beta = basis.pinv @ y
    resid = y - basis.design @ beta
    return HarmonicFit(
        mean=float(beta[0]),
        in_phase=float(beta[1]),
        out_phase=float(beta[2]),
        residual_rms=math.sqrt((resid * resid).mean()),
        condition_indicator=basis.condition_indicator,
        n_samples=len(y),
        n_periods=basis.n_periods,
    )


def fit_series(series: CoefficientSeries, omega: float, skip_cycles: int = 0, *,
               _basis: _Basis | None = None) -> dict[str, HarmonicFit]:
    """Fit every channel present in a series; keys are 'CL', 'CD', 'Cm'.

    The channels share one window and one factorization of the design
    matrix; each is still fitted by one ``fit_harmonic`` call.  ``_basis``
    is a basis a caller shares among several series on the same grid.
    """
    basis = _basis if _basis is not None else _harmonic_basis(series.times, omega, skip_cycles)
    return {
        name: fit_harmonic(series.times, values, omega, skip_cycles, _basis=basis)
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
    flags: tuple[str, ...] | None = None       # validate_fit(fit, the run's spec)

    @property
    def aoa_rate_derivative(self) -> float | None:
        """Incidence-rate derivative per rad: damping_sum - rate_derivative, once both exist."""
        if self.damping_sum is None or self.rate_derivative is None:
            return None
        return self.damping_sum - self.rate_derivative


_CHANNEL_RULE = f"must be named {_choices(CHANNELS)}"


@dataclass(frozen=True)
class DerivativeSet:
    """Per-channel derivatives plus the spec and condition of the runs behind them."""

    channels: Mapping[str, ChannelDerivatives]
    spec: OscillationSpec | None = None
    condition: FlightCondition | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", dict(self.channels))
        for name in self.channels:
            check(name in CHANNELS, "channels", _CHANNEL_RULE, name)


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
    Each channel records its fit and ``validate_fit``'s flags for it.
    OscillationSpec keeps A and k*A finite and no smaller than the smallest
    normal float, so both scalings exist; a quotient that still overflows
    raises NonFiniteData naming its channel.
    """
    amp = spec.body_amplitude
    k = spec.reduced_frequency
    in_name, out_name = _IDENTIFIES[spec.mode]
    channels = {}
    for name, fit in fits.items():
        parts = {in_name: fit.in_phase / amp, out_name: fit.out_phase / (k * amp)}
        if not all(map(math.isfinite, parts.values())):
            raise NonFiniteData(f"{name}: in-phase / A and out-of-phase / (k*A) must be finite, "
                                f"got {parts[in_name]} and {parts[out_name]} (A = {amp:.6g})")
        channels[name] = ChannelDerivatives(trim_value=fit.mean, fit=fit,
                                            flags=tuple(validate_fit(fit, spec)), **parts)
    return DerivativeSet(channels=channels, spec=spec, condition=condition)


def _same(x: float | None, y: float | None) -> bool:
    if x is None or y is None:
        return x is y
    return math.isclose(x, y, rel_tol=_REL_TOL, abs_tol=0.0)


def separate_rates(*sets: DerivativeSet) -> DerivativeSet:
    """Merge the derivative sets of distinct modes, given in OscillationMode order.

    A merged channel holds every value some set identified (``extract``
    gives each mode only what ``_IDENTIFIES`` names); where two sets hold a
    value (trim, fit, flags), the first set's wins, as do its spec,
    condition and channel order.  With the alpha and q modes,
    aoa_rate_derivative = damping sum - rate derivative.  All runs must
    share the same reduced frequency and flight condition (1e-9 relative).
    """
    modes = [getattr(s.spec, "mode", None) for s in sets]
    if not sets or None in modes or modes != sorted(set(modes), key=list(OscillationMode).index):
        got = [getattr(m, "value", None) for m in modes]
        raise ConditionMismatch(f"need sets of distinct modes in OscillationMode order, got {got}")
    first = sets[0]
    for s in sets:
        others = [f for m, fields in _IDENTIFIES.items() if m is not s.spec.mode for f in fields]
        if any(getattr(c, f) is not None for c in s.channels.values() for f in others):
            raise ConditionMismatch(f"the {s.spec.mode.value}-mode set holds values another mode "
                                    "identifies: it is merged already")
        if not _same(first.spec.reduced_frequency, s.spec.reduced_frequency):
            raise ConditionMismatch(f"reduced frequencies differ: "
                                    f"{first.spec.reduced_frequency} vs {s.spec.reduced_frequency}")
        ca, cs = first.condition, s.condition
        if (ca is None) != (cs is None):
            raise ConditionMismatch("one derivative set has a flight condition, another does not")
        for field in ("freestream_speed", "density", "ref_chord", "sound_speed"):
            if cs is not None and not _same(getattr(ca, field), getattr(cs, field)):
                raise ConditionMismatch(f"flight conditions differ in {field}: "
                                        f"{getattr(ca, field)} vs {getattr(cs, field)}")

    merged = {}
    for name in first.channels:
        if all(name in s.channels for s in sets):
            held = [vars(s.channels[name]).items() for s in reversed(sets)]   # the first set wins
            merged[name] = ChannelDerivatives(**{f: v for h in held for f, v in h if v is not None})
    if not merged:
        raise ConditionMismatch("the derivative sets share no channels")
    return DerivativeSet(channels=merged, spec=first.spec, condition=first.condition)


# ---------------------------------------------------------------------------
# Loop metrics
# ---------------------------------------------------------------------------

def loop_metrics(times, x, y, omega: float, skip_cycles: int = 0, *,
                 _basis: _Basis | None = None) -> float:
    """Signed area of a hysteresis loop of y over x.

    x is the angle series (rad), y the coefficient series.  The area is
    the closed trapezoidal integral of y dx over the last full cycle of
    the post-skip window.  For x = A*sin(omega*t) on N samples per cycle
    and a first-harmonic response it equals pi * A * out_phase * sin(h)/h
    with h = 2*pi/N (2.6% below pi * A * out_phase at N = 16, 1.3e-5 below
    at N = 720), so its sign is the loop's direction: positive is
    counterclockwise, negative clockwise.  Areas below the accumulated
    rounding of the sum are returned as exactly 0.0.
    ``_basis`` is a fit basis on the same grid; its window replaces a
    second windowing of ``times``.
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    check(times.shape == x.shape == y.shape, "x, y", "must have the shape of times", times.shape)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteData("loop series contain non-finite entries")

    if _basis is None:
        sel, _, last = _window(times, omega, skip_cycles)
    else:
        sel, last = _basis.window, _basis.last_cycle
    xs = x[last:sel.stop]
    ys = y[last:sel.stop]
    if len(xs) < 8:
        raise InsufficientSamples(f"only {len(xs)} samples in the last cycle; need at least 8")

    scale = float(np.abs(xs).max()) * float(np.abs(ys).max())
    if scale > 1e300:           # keeps the trapezoid sum below from overflow
        raise NonFiniteData(f"loop with max|x| * max|y| = {scale:.6g} is out of range "
                            "(must be <= 1e300)")
    # each sample's successor, wrapping around to close the loop
    dx = np.concatenate((xs[1:], xs[:1]))
    dx -= xs
    area = float((0.5 * (ys + np.concatenate((ys[1:], ys[:1]))) * dx).sum())

    # zeroing threshold: accumulated rounding of the trapezoid sum
    tol = 32.0 * len(xs) * np.finfo(float).eps * scale
    return 0.0 if abs(area) <= tol else area


# ---------------------------------------------------------------------------
# Fit quality flags
# ---------------------------------------------------------------------------

RESIDUAL_FLAG = "RESIDUAL"
CONDITIONING_FLAG = "CONDITIONING"
CONTAMINATION_FLAG = "CONTAMINATION"
RESOLUTION_FLAG = "RESOLUTION"
# flag thresholds; residual and contamination are relative to the amplitude, over a floor
_RESIDUAL_THRESHOLD = 1e-3
_CONDITIONING_THRESHOLD = 1e6
_CONTAMINATION_THRESHOLD = 0.1
_RESOLUTION_THRESHOLD = 1e-6     # per rad, in any derivative


def validate_fit(fit: HarmonicFit, spec: OscillationSpec) -> list[str]:
    """Quality flags for one harmonic fit; empty means clean.

    The contamination check applies where ``_IDENTIFIES`` makes the
    in-phase quotient the contamination diagnostic (flow-path mode): there
    in-phase content beyond apparent-mass effects indicates an amplitude
    mismatch upstream.  RESIDUAL and CONTAMINATION need their quantity above
    eps * |mean| * n_samples too, the rounding bound of the fit's sums: a
    channel with no first harmonic otherwise flags its own rounding.
    RESOLUTION is raised when eps * |mean| exceeds 1e-6 * min(A, k*A): the
    rounding of the trim alone then moves a derivative by more than 1e-6
    per rad.  Never mutates the fit.
    """
    flags: list[str] = []
    amp = fit.amplitude
    rounding = np.finfo(float).eps * abs(fit.mean) * fit.n_samples
    if fit.residual_rms > max(_RESIDUAL_THRESHOLD * amp, rounding):
        flags.append(RESIDUAL_FLAG)
    if fit.condition_indicator > _CONDITIONING_THRESHOLD:
        flags.append(CONDITIONING_FLAG)
    if (_IDENTIFIES[spec.mode][0] == "contamination"
            and abs(fit.in_phase) > max(_CONTAMINATION_THRESHOLD * amp, rounding)):
        flags.append(CONTAMINATION_FLAG)
    scale = min(spec.body_amplitude, spec.reduced_frequency * spec.body_amplitude)
    if np.finfo(float).eps * abs(fit.mean) > _RESOLUTION_THRESHOLD * scale:
        flags.append(RESOLUTION_FLAG)
    return flags
