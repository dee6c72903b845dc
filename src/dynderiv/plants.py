"""Surrogate unsteady-aerodynamic plants with known ground truth.

Three models of increasing fidelity stand in for an unsteady flow solver,
so that every identification result in this package can be checked against
a controllable truth source:

* QuasiSteadyPlant -- linear in incidence and the nondimensional rates;
  the identifier must recover its coefficients exactly.
* FlatPlatePlant -- classical thin-airfoil frequency-domain solution
  (Theodorsen); emits the exact first-harmonic response, no transient.
* IndicialPlant -- time-marching Duhamel superposition over the two-pole
  exponential approximation of the Wagner function (R. T. Jones
  constants).  Its lag kernel and ``jones_function`` are exact transform
  pairs, so after the start-up transient its harmonic response must match
  the flat-plate solution evaluated with the Jones deficiency function.

Sign and reference conventions: lift positive up, moment positive nose-up
and taken about the pitch axis; the pitch axis location ``a`` is measured
in semichords aft of midchord (a = -1/2 is the quarter chord).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonDimensionalizationUndefined
from .kinematics import FlightCondition, MotionSchedule, OscillationMode
from .series import CoefficientSeries, SeriesMeta

# Two-pole exponential approximation of the Wagner function (R. T. Jones).
# Fixed, not configurable: keeping them constant makes the indicial plant
# and jones_function an exact transform pair.
WAGNER_A1 = 0.165
WAGNER_B1 = 0.0455
WAGNER_A2 = 0.335
WAGNER_B2 = 0.3

_PITCH_AXIS_BOUND = 2.0


def _check_pitch_axis(a: float) -> None:
    if not (math.isfinite(a) and abs(a) <= _PITCH_AXIS_BOUND):
        raise ValueError(f"pitch_axis must be finite with |a| <= {_PITCH_AXIS_BOUND}, got {a}")


def wagner_function(s):
    """Lift build-up after a step change of incidence, vs distance s in semichords.

    phi(0) = 1 - A1 - A2 = 0.5 and phi -> 1 as s -> infinity.
    """
    s = np.asarray(s, dtype=float)
    return 1.0 - WAGNER_A1 * np.exp(-WAGNER_B1 * s) - WAGNER_A2 * np.exp(-WAGNER_B2 * s)


def theodorsen_function(k: float) -> complex:
    """Lift-deficiency function C(k) = H1(k) / (H1(k) + i H0(k)).

    Hn is the Hankel function of the second kind.  C(0) = 1 by continuity;
    C -> 1/2 as k -> infinity.
    """
    if not (math.isfinite(k) and k >= 0.0):
        raise DomainError(f"reduced frequency must be >= 0, got {k}")
    if k == 0.0:
        return complex(1.0, 0.0)
    from scipy import special  # deferred: the import costs more than most commands

    h1 = special.hankel2(1, k)
    h0 = special.hankel2(0, k)
    return complex(h1 / (h1 + 1j * h0))


def jones_function(k: float) -> complex:
    """Rational lift-deficiency approximation matching the indicial kernel.

    C_J(k) = 1 - A1*ik/(ik + b1) - A2*ik/(ik + b2).  Within 0.03 per part
    of theodorsen_function for k in [0.01, 1].
    """
    if not math.isfinite(k):
        raise DomainError(f"reduced frequency must be finite, got {k}")
    ik = 1j * k
    return complex(1.0 - WAGNER_A1 * ik / (ik + WAGNER_B1) - WAGNER_A2 * ik / (ik + WAGNER_B2))


_KERNELS = {"theodorsen": theodorsen_function, "jones": jones_function}


@dataclass(frozen=True)
class ComplexLoads:
    """First-harmonic coefficient amplitudes per radian of body pitch.

    For a motion theta_osc = A*sin(omega*t), the coefficient response is
    A * (Re(H) sin(omega*t) + Im(H) cos(omega*t)): the real part is the
    in-phase component and the imaginary part the out-of-phase one.
    """

    lift: complex
    moment: complex

    def __post_init__(self) -> None:
        for v in (self.lift, self.moment):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"non-finite complex load {v}")


def pitch_oscillation_loads(k: float, pitch_axis: float, deficiency=theodorsen_function) -> ComplexLoads:
    """Flat-plate loads for harmonic body pitch in a steady freestream.

    This is the frequency-domain truth for the incidence mode: the real
    parts give static slopes, Im/k gives the damping sums.
    """
    _check_pitch_axis(pitch_axis)
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"reduced frequency must be > 0, got {k}")
    a = pitch_axis
    C = deficiency(k)
    circ = C * (1.0 + 1j * k * (0.5 - a))
    lift = 2.0 * math.pi * circ + math.pi * k * (1j + a * k)
    moment = math.pi * (a + 0.5) * circ + (math.pi / 2.0) * (
        (0.125 + a * a) * k * k - 1j * k * (0.5 - a)
    )
    return ComplexLoads(lift=complex(lift), moment=complex(moment))


def q_mode_oscillation_loads(k: float, pitch_axis: float, deficiency=theodorsen_function) -> ComplexLoads:
    """Flat-plate loads for pitching with the incidence held constant.

    The freestream direction oscillates with the body (a plunge-equivalent
    motion), cancelling the uniform incidence change; what remains is the
    pure rotation response, so Im/k gives the pitch-rate derivatives C_q.
    """
    _check_pitch_axis(pitch_axis)
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"reduced frequency must be > 0, got {k}")
    a = pitch_axis
    C = deficiency(k)
    lift = math.pi * a * k * k + 2.0 * math.pi * C * 1j * k * (0.5 - a)
    moment = (
        math.pi * (a + 0.5) * (0.5 - a) * C * 1j * k
        + (math.pi / 2.0) * (0.125 + a * a) * k * k
        - (math.pi / 4.0) * 1j * k
    )
    return ComplexLoads(lift=complex(lift), moment=complex(moment))


_MODE_LOADS = {OscillationMode.ALPHA: pitch_oscillation_loads, OscillationMode.Q: q_mode_oscillation_loads}


@dataclass(frozen=True)
class DragPolar:
    """Quasi-steady drag model used by plants with no unsteady drag physics."""

    CD0: float = 0.0
    CD_alpha: float = 0.0
    CD_q: float = 0.0
    induced_drag_factor: float | None = None

    def __post_init__(self) -> None:
        for name in ("CD0", "CD_alpha", "CD_q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.induced_drag_factor is not None and not (
            math.isfinite(self.induced_drag_factor) and self.induced_drag_factor >= 0.0
        ):
            raise ValueError("induced_drag_factor must be >= 0")

    def evaluate(self, alpha, qhat, cl):
        cd = self.CD0 + self.CD_alpha * alpha + self.CD_q * qhat
        if self.induced_drag_factor is not None:
            cd = cd + self.induced_drag_factor * cl * cl
        return cd


@dataclass(frozen=True)
class QuasiSteadyCoefficients:
    """Linear coefficient model: offsets plus incidence and rate slopes.

    All slopes are per radian.  The drag channel is the ``drag`` polar: it
    has no incidence-rate term by construction, so its damping sum equals
    CD_q, and the optional ``induced_drag_factor`` adds kappa*CL^2.  With
    ``mach_scaling`` on, every slope is multiplied by the subsonic
    compressibility factor 1/sqrt(1 - M^2) when a Mach number is known.

    ``CL_u``/``CD_u``/``Cm_u`` forward-speed derivatives are deliberately
    absent here and reserved (never populated) in DerivativeSet: steady-
    speed oscillation provides no information about them.
    """

    CL0: float = 0.0
    CL_alpha: float = 0.0
    CL_q: float = 0.0
    CL_alphadot: float = 0.0
    CD0: float = 0.0
    CD_alpha: float = 0.0
    CD_q: float = 0.0
    Cm0: float = 0.0
    Cm_alpha: float = 0.0
    Cm_q: float = 0.0
    Cm_alphadot: float = 0.0
    induced_drag_factor: float | None = None
    mach_scaling: bool = False

    def __post_init__(self) -> None:
        for name in ("CL0", "CL_alpha", "CL_q", "CL_alphadot", "Cm0", "Cm_alpha", "Cm_q", "Cm_alphadot"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # built (and so validated) once; not a field, so eq and the config keys ignore it
        drag = DragPolar(self.CD0, self.CD_alpha, self.CD_q, self.induced_drag_factor)
        object.__setattr__(self, "_drag", drag)

    @property
    def drag(self) -> DragPolar:
        """The drag channel: CD0 + CD_alpha*alpha + CD_q*qhat (+ kappa*CL^2)."""
        return self._drag

    def scaled_slopes(self, factor: float) -> "QuasiSteadyCoefficients":
        """Copy with every slope (not the offsets) multiplied by factor."""
        return QuasiSteadyCoefficients(
            CL0=self.CL0,
            CL_alpha=self.CL_alpha * factor,
            CL_q=self.CL_q * factor,
            CL_alphadot=self.CL_alphadot * factor,
            CD0=self.CD0,
            CD_alpha=self.CD_alpha * factor,
            CD_q=self.CD_q * factor,
            Cm0=self.Cm0,
            Cm_alpha=self.Cm_alpha * factor,
            Cm_q=self.Cm_q * factor,
            Cm_alphadot=self.Cm_alphadot * factor,
            induced_drag_factor=self.induced_drag_factor,
            mach_scaling=self.mach_scaling,
        )


def quasi_steady_loads(p: QuasiSteadyCoefficients, s):
    """Evaluate the linear model over a schedule (or any single sample).

    Accepts anything exposing ``relative_aoa``, ``nondim_pitch_rate`` and
    ``nondim_aoa_rate`` (scalars or arrays); returns the (CL, CD, Cm)
    triple with matching shape.
    """
    alpha = s.relative_aoa
    qhat = s.nondim_pitch_rate
    adot = s.nondim_aoa_rate
    cl = p.CL0 + p.CL_alpha * alpha + p.CL_q * qhat + p.CL_alphadot * adot
    cd = p.drag.evaluate(alpha, qhat, cl)
    cm = p.Cm0 + p.Cm_alpha * alpha + p.Cm_q * qhat + p.Cm_alphadot * adot
    return cl, cd, cm


def prandtl_glauert(mach: float) -> float:
    """Subsonic compressibility scaling 1/sqrt(1 - M^2)."""
    if not (0.0 <= mach < 1.0):
        raise ValueError(f"Mach must lie in [0, 1), got {mach}")
    return 1.0 / math.sqrt(1.0 - mach * mach)


def _wagner_lag(d_ae: np.ndarray, r: float) -> np.ndarray:
    """One Wagner lag state: x[0] = d_ae[0], x[n] = r*x[n-1] + sqrt(r)*d_ae[n].

    Evaluated as a log-step scan: after the pass with stride s, x[n] sums
    the last 2s weighted inputs.  Every weight r**s is <= 1, so nothing
    overflows however long the history.
    """
    x = d_ae * math.sqrt(r)
    x[0] = d_ae[0]
    stride = 1
    while stride < len(x):
        x[stride:] += r**stride * x[:-stride]
        stride *= 2
    return x


# ---------------------------------------------------------------------------
# Plant objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiSteadyPlant:
    """Linear plant; the identification round trip on it is exact."""

    coefficients: QuasiSteadyCoefficients

    name = "quasi-steady"

    def _effective(self, cond: FlightCondition) -> QuasiSteadyCoefficients:
        p = self.coefficients
        if p.mach_scaling and cond.mach is not None and cond.mach > 0.0:
            return p.scaled_slopes(prandtl_glauert(cond.mach))
        return p

    def coefficient_histories(self, schedule: MotionSchedule, cond: FlightCondition):
        cl, cd, cm = quasi_steady_loads(self._effective(cond), schedule)
        return np.asarray(cl), np.asarray(cd), np.asarray(cm)

    def static_coefficients(self, alpha0: float, cond: FlightCondition):
        """Coefficients at the mean incidence with all rates zero."""
        p = self._effective(cond)
        cl = p.CL0 + p.CL_alpha * alpha0
        cd = p.drag.evaluate(alpha0, 0.0, cl)
        cm = p.Cm0 + p.Cm_alpha * alpha0
        return cl, cd, cm


@dataclass(frozen=True)
class FlatPlatePlant:
    """Frequency-domain flat-plate oracle; emits the exact steady-state response.

    No start-up transient and no drag model (the drag channel is zero).
    ``kernel`` picks the lift-deficiency function: "theodorsen" (exact) or
    "jones" (the rational approximation the indicial plant realizes).
    """

    pitch_axis: float = -0.5
    kernel: str = "theodorsen"

    name = "flat-plate"

    def __post_init__(self) -> None:
        _check_pitch_axis(self.pitch_axis)
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; options: {sorted(_KERNELS)}")

    def loads(self, k: float, mode: OscillationMode) -> ComplexLoads:
        return _MODE_LOADS[mode](k, self.pitch_axis, deficiency=_KERNELS[self.kernel])

    def coefficient_histories(self, schedule: MotionSchedule, cond: FlightCondition):
        spec = schedule.spec
        loads = self.loads(spec.reduced_frequency, spec.mode)
        amp = spec.body_amplitude
        alpha0 = spec.mean_incidence
        phase = schedule.omega * schedule.time
        sin_p, cos_p = np.sin(phase), np.cos(phase)
        cl0, _, cm0 = self.static_coefficients(alpha0, cond)
        cl = cl0 + amp * (loads.lift.real * sin_p + loads.lift.imag * cos_p)
        cm = cm0 + amp * (loads.moment.real * sin_p + loads.moment.imag * cos_p)
        return cl, np.zeros_like(cl), cm

    def static_coefficients(self, alpha0: float, cond: FlightCondition):
        cl = 2.0 * math.pi * alpha0
        cm = math.pi * (self.pitch_axis + 0.5) * alpha0
        return cl, 0.0, cm


@dataclass(frozen=True)
class IndicialPlant:
    """Time-marching plant: Duhamel superposition over the Wagner kernel.

    The effective incidence is taken at the three-quarter-chord point:
    alpha_e = alpha + (1/2 - a) * (c/2) * q / V.  The circulatory downwash
    uses the body rotation rate q, not alpha_dot: a rotating freestream
    direction adds no chordwise velocity gradient, so in flow-path mode
    (alpha_dot = 0) the rotation still forces the wake lag.

    Each Wagner pole b_j lags the increments of alpha_e through the exact
    exponential integrator x[n] = r*x[n-1] + sqrt(r)*d_alpha_e[n] with
    r = exp(-b_j*ds), ds = 2*V*dt/c, constant on the required uniform grid.
    The first sample enters as a jump from rest (phi(0+) = 0.5); the
    start-up transient stays in the output for the identifier to skip.
    Apparent-mass terms use the schedule's analytic rates.  Drag comes from
    the quasi-steady polar only (there is no indicial drag model here).
    """

    pitch_axis: float = -0.5
    drag: DragPolar = DragPolar()

    name = "indicial"

    def __post_init__(self) -> None:
        _check_pitch_axis(self.pitch_axis)

    def coefficient_histories(self, schedule: MotionSchedule, cond: FlightCondition):
        if cond.freestream_speed == 0.0:
            raise NonDimensionalizationUndefined("indicial plant needs a nonzero freestream speed")
        dt = np.diff(schedule.time)
        if dt.size and not (dt[0] > 0.0 and np.all(np.abs(dt - dt[0]) <= 1e-9 * dt[0])):
            raise DomainError("indicial plant needs a uniform, increasing time grid")
        a = self.pitch_axis
        b_over_v = cond.ref_chord / (2.0 * cond.freestream_speed)   # semichord / speed, s
        ds = dt[0] / b_over_v if dt.size else 0.0

        alpha_e = schedule.relative_aoa + (0.5 - a) * b_over_v * schedule.pitch_rate
        d_ae = np.diff(alpha_e, prepend=0.0)
        x1 = _wagner_lag(d_ae, math.exp(-WAGNER_B1 * ds))
        x2 = _wagner_lag(d_ae, math.exp(-WAGNER_B2 * ds))

        q, adot, accel = schedule.pitch_rate, schedule.aoa_rate, schedule.pitch_accel
        cl_circ = 2.0 * math.pi * (alpha_e - WAGNER_A1 * x1 - WAGNER_A2 * x2)
        cl_app = math.pi * (b_over_v * adot - a * b_over_v * b_over_v * accel)
        cm_app = (math.pi / 2.0) * (
            -b_over_v * a * (q - adot)
            - b_over_v * (0.5 - a) * q
            - b_over_v * b_over_v * (0.125 + a * a) * accel
        )
        cl = cl_circ + cl_app
        cm = (a + 0.5) * cl_circ / 2.0 + cm_app
        cd = self.drag.evaluate(schedule.relative_aoa, schedule.nondim_pitch_rate, cl)
        return cl, cd, cm

    def static_coefficients(self, alpha0: float, cond: FlightCondition):
        cl = 2.0 * math.pi * alpha0
        cm = math.pi * (self.pitch_axis + 0.5) * alpha0
        cd = self.drag.evaluate(alpha0, 0.0, cl)
        return cl, float(cd), cm


Plant = QuasiSteadyPlant | FlatPlatePlant | IndicialPlant


def simulate(plant: Plant, schedule: MotionSchedule, cond: FlightCondition) -> CoefficientSeries:
    """Run a plant over a motion schedule and package the result."""
    if len(schedule) == 0:
        raise ValueError("schedule is empty")
    cl, cd, cm = plant.coefficient_histories(schedule, cond)
    meta = SeriesMeta(
        source=plant.name,
        spec=schedule.spec,
        condition=cond,
        uniform_grid=True,
    )
    return CoefficientSeries(times=schedule.time.copy(), CL=cl, CD=cd, Cm=cm, meta=meta)
