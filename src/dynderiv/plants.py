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

from .errors import (
    ConditionMismatch,
    DomainError,
    InsufficientSamples,
    NonDimensionalizationUndefined,
    _choices,
    check,
    check_fields,
)
from .kinematics import FlightCondition, MotionSchedule, OscillationMode, omega_from_k
from .series import CoefficientSeries

# Two-pole exponential approximation of the Wagner function (R. T. Jones).
# Fixed, not configurable: keeping them constant makes the indicial plant
# and jones_function an exact transform pair.
WAGNER_A1 = 0.165
WAGNER_B1 = 0.0455
WAGNER_A2 = 0.335
WAGNER_B2 = 0.3

_PITCH_AXIS_BOUND = 2.0


def _check_pitch_axis(a: float) -> None:
    check(math.isfinite(a) and abs(a) <= _PITCH_AXIS_BOUND, "pitch_axis",
          f"must be finite with |a| <= {_PITCH_AXIS_BOUND}", a)


# Each method is used where C(k) from it is within 2.6e-16 of a 50-digit mpmath value.
_SERIES_MAX_K = 3.0
_ASYMPTOTIC_MIN_K = 18.0


def _hankel_ratio_series(k: float) -> complex:
    """H0(k) / H1(k) from the ascending series (A&S 9.1.10, 9.1.11, 9.1.13).

    Both Hankel functions are scaled by k, which keeps Y1's leading
    -2/(pi k) finite at subnormal k.
    """
    q = -0.25 * k * k
    t0 = t1 = 1.0                # with i = m - 1: q^i / (i!)^2 and q^i / (i! (i+1)!)
    j0 = j1 = s0 = s1 = h = 0.0  # h is the harmonic number H_i
    for m in range(1, 40):
        j0 += t0
        j1 += t1
        s0 += h * t0
        s1 += (2.0 * h + 1.0 / m) * t1  # psi(i+1) + psi(i+2) + 2 gamma
        h += 1.0 / m
        t0 *= q / (m * m)
        t1 *= q / (m * (m + 1))
        if abs(t0) + abs(t1) < 1e-18:
            break
    lg = math.log(k) - math.log(2.0) + np.euler_gamma  # k / 2 underflows at k = 5e-324
    kj1 = 0.5 * k * k * j1
    ky0 = (2.0 / math.pi) * (lg * j0 - s0) * k
    ky1 = (2.0 / math.pi) * (lg * kj1 - 0.25 * k * k * s1 - 1.0)
    return complex(k * j0, -ky0) / complex(kj1, -ky1)


def _hankel_ratio_miller(k: float) -> complex:
    """H0(k) / H1(k): J_n by Miller's backward recurrence, normalised by
    J0 + 2 sum J_2m = 1, and Y0, Y1 by their Neumann series (A&S 9.1.88)."""
    jn1, jn = 0.0, 1.0  # starting 32 orders above k gives 2.5e-16 in C for k < 18
    norm = s0 = s1 = j1 = 0.0
    for n in range(2 * (int(k) // 2 + 16), 0, -1):
        jn1, jn = jn, 2.0 * n / k * jn - jn1  # jn is now J_(n-1), unnormalised
        m, odd = divmod(n, 2)
        if not odd and m > 1:                 # J_(2m-1), m >= 2
            s1 += (2 * m - 1) / (m * (m - 1)) * (jn if m % 2 == 0 else -jn)
        elif n == 2:
            j1 = jn
        elif odd and m:                       # J_2m, m >= 1
            norm += 2.0 * jn
            s0 += jn / m if m % 2 else -jn / m
    norm += jn
    j0, j1 = jn / norm, j1 / norm
    lg = math.log(0.5 * k) + np.euler_gamma
    y0 = (2.0 / math.pi) * (lg * j0 + 2.0 * s0 / norm)
    y1 = (2.0 / math.pi) * ((lg - 1.0) * j1 + s1 / norm - j0 / k)
    return complex(j0, -y0) / complex(j1, -y1)


def _hankel_ratio_asymptotic(k: float) -> complex:
    """H0(k) / H1(k) from Hankel's expansion (A&S 9.2.5-9.2.10).

    Hn(k) = sqrt(2 / (pi k)) (Pn - i Qn) exp(-i (k - (2n + 1) pi / 4)), so
    H0 / H1 = -i (P0 - i Q0) / (P1 - i Q1): no sine or cosine of k is needed.
    Each sum stops at its smallest term or once terms no longer change it.
    """
    sums = []
    for mu in (0.0, 4.0):  # 4 n^2
        term = total = 1.0 + 0.0j
        j = 1
        while True:
            nxt = term * (-1j * (mu - (2 * j - 1) ** 2) / (8.0 * j)) / k
            if total + nxt == total or abs(nxt) >= abs(term):
                break
            total += nxt
            term = nxt
            j += 1
        sums.append(total)
    return -1j * sums[0] / sums[1]


def theodorsen_function(k: float) -> complex:
    """Lift-deficiency function C(k) = H1(k) / (H1(k) + i H0(k)).

    Hn is the Hankel function of the second kind.  C(0) = 1 by continuity;
    C -> 1/2 as k -> infinity.  Finite for every finite k >= 0.
    """
    check(math.isfinite(k) and k >= 0.0, "k", "must be >= 0", k)
    if k == 0.0:
        return complex(1.0, 0.0)
    if k <= _SERIES_MAX_K:
        ratio = _hankel_ratio_series(k)
    elif k < _ASYMPTOTIC_MIN_K:
        ratio = _hankel_ratio_miller(k)
    else:
        ratio = _hankel_ratio_asymptotic(k)
    return 1.0 / (1.0 + 1j * ratio)


def jones_function(k: float) -> complex:
    """Rational lift-deficiency approximation matching the indicial kernel.

    C_J(k) = 1 - A1*ik/(ik + b1) - A2*ik/(ik + b2).  Within 0.03 per part
    of theodorsen_function for k in [0.01, 1].
    """
    check(math.isfinite(k), "k", "must be finite", k)
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
        for field in ("lift", "moment"):
            v = getattr(self, field)
            check(math.isfinite(v.real) and math.isfinite(v.imag), field, "must be finite", v)


def pitch_oscillation_loads(k: float, pitch_axis: float,
                            deficiency=theodorsen_function) -> ComplexLoads:
    """Flat-plate loads for harmonic body pitch in a steady freestream.

    This is the frequency-domain truth for the incidence mode: the real
    parts give static slopes, Im/k gives the damping sums.
    """
    _check_pitch_axis(pitch_axis)
    check(math.isfinite(k) and k > 0.0, "k", "must be > 0", k)
    a = pitch_axis
    C = deficiency(k)
    circ = C * (1.0 + 1j * k * (0.5 - a))
    lift = 2.0 * math.pi * circ + math.pi * k * (1j + a * k)
    moment = math.pi * (a + 0.5) * circ + (math.pi / 2.0) * (
        (0.125 + a * a) * k * k - 1j * k * (0.5 - a)
    )
    return ComplexLoads(lift=complex(lift), moment=complex(moment))


def q_mode_oscillation_loads(k: float, pitch_axis: float,
                             deficiency=theodorsen_function) -> ComplexLoads:
    """Flat-plate loads for pitching with the incidence held constant.

    The freestream direction oscillates with the body (a plunge-equivalent
    motion), cancelling the uniform incidence change; what remains is the
    pure rotation response, so Im/k gives the pitch-rate derivatives C_q.
    """
    _check_pitch_axis(pitch_axis)
    check(math.isfinite(k) and k > 0.0, "k", "must be > 0", k)
    a = pitch_axis
    C = deficiency(k)
    lift = math.pi * a * k * k + 2.0 * math.pi * C * 1j * k * (0.5 - a)
    moment = (
        math.pi * (a + 0.5) * (0.5 - a) * C * 1j * k
        + (math.pi / 2.0) * (0.125 + a * a) * k * k
        - (math.pi / 4.0) * 1j * k
    )
    return ComplexLoads(lift=complex(lift), moment=complex(moment))


_MODE_LOADS = {OscillationMode.ALPHA: pitch_oscillation_loads,
               OscillationMode.Q: q_mode_oscillation_loads}


def _check_drag(plant) -> None:
    """The drag polar's range rules, for plants that carry one."""
    check_fields(plant, "finite", "CD0", "CD_alpha", "CD_q")
    if plant.induced_drag_factor is not None:
        check_fields(plant, ">= 0", "induced_drag_factor")


def _drag(plant, alpha, qhat, cl, f: float = 1.0):
    """Quasi-steady drag CD0 + f*(CD_alpha*alpha + CD_q*qhat), plus kappa*CL^2 when set."""
    cd = plant.CD0 + plant.CD_alpha * f * alpha + plant.CD_q * f * qhat
    if plant.induced_drag_factor is not None:
        cd = cd + plant.induced_drag_factor * cl * cl
    return cd


def _check_moving(plant, cond: FlightCondition) -> None:
    """Refuse hover: each plant's rates and reduced frequency are per unit of speed."""
    if cond.freestream_speed == 0.0:
        raise NonDimensionalizationUndefined(f"{plant.name} plant needs a nonzero freestream speed")


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


def _flat_plate_trim(pitch_axis: float, alpha0: float) -> tuple[float, float]:
    """Steady thin-airfoil (CL, Cm) at incidence ``alpha0``, moment about the pitch axis."""
    return 2.0 * math.pi * alpha0, math.pi * (pitch_axis + 0.5) * alpha0


# ---------------------------------------------------------------------------
# Plant objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiSteadyPlant:
    """Linear plant: offsets plus incidence and rate slopes; the round trip on it is exact.

    All slopes are per radian.  The drag channel has no incidence-rate term
    by construction, so its damping sum equals CD_q, and the optional
    ``induced_drag_factor`` adds kappa*CL^2.  With ``mach_scaling`` on,
    every slope is multiplied by the subsonic compressibility factor
    1/sqrt(1 - M^2) when a Mach number is known.

    ``CL_u``/``CD_u``/``Cm_u`` forward-speed derivatives are deliberately
    absent: steady-speed oscillation provides no information about them.
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

    name = "quasi-steady"

    def __post_init__(self) -> None:
        check_fields(self, "finite", "CL0", "CL_alpha", "CL_q", "CL_alphadot",
                     "Cm0", "Cm_alpha", "Cm_q", "Cm_alphadot")
        _check_drag(self)

    def _loads(self, cond: FlightCondition, alpha, qhat, adot):
        """(CL, CD, Cm) of the linear model at incidence ``alpha`` and rates ``qhat``, ``adot``.

        With ``mach_scaling`` and a Mach number above 0, every slope takes
        the Prandtl-Glauert factor 1/sqrt(1 - M^2) (FlightCondition keeps M < 1).
        """
        f = 1.0
        if self.mach_scaling and cond.mach is not None and cond.mach > 0.0:
            f = 1.0 / math.sqrt(1.0 - cond.mach * cond.mach)
        cl = (self.CL0 + self.CL_alpha * f * alpha + self.CL_q * f * qhat
              + self.CL_alphadot * f * adot)
        cd = _drag(self, alpha, qhat, cl, f)
        cm = (self.Cm0 + self.Cm_alpha * f * alpha + self.Cm_q * f * qhat
              + self.Cm_alphadot * f * adot)
        return cl, cd, cm

    def coefficient_histories(self, schedule: MotionSchedule, cond: FlightCondition):
        _check_moving(self, cond)
        scale = cond.ref_chord / (2.0 * cond.freestream_speed)     # rate -> rate * c / (2 V)
        return self._loads(cond, schedule.relative_aoa, schedule.pitch_rate * scale,
                           schedule.aoa_rate * scale)

    def static_coefficients(self, alpha0: float, cond: FlightCondition):
        """Coefficients at the mean incidence with all rates zero."""
        return self._loads(cond, alpha0, 0.0, 0.0)


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
        check(isinstance(self.kernel, str) and self.kernel in _KERNELS, "kernel",
              f"must be {_choices(_KERNELS)}", self.kernel)

    def loads(self, k: float, mode: OscillationMode) -> ComplexLoads:
        return _MODE_LOADS[mode](k, self.pitch_axis, deficiency=_KERNELS[self.kernel])

    def coefficient_histories(self, schedule: MotionSchedule, cond: FlightCondition):
        _check_moving(self, cond)
        spec = schedule.spec
        loads = self.loads(spec.reduced_frequency, spec.mode)
        amp = spec.body_amplitude
        alpha0 = spec.mean_incidence
        sin_p, cos_p = schedule.phase_sin, schedule.phase_cos
        cl0, _, cm0 = self.static_coefficients(alpha0, cond)
        cl = cl0 + amp * (loads.lift.real * sin_p + loads.lift.imag * cos_p)
        cm = cm0 + amp * (loads.moment.real * sin_p + loads.moment.imag * cos_p)
        return cl, np.zeros_like(cl), cm

    def static_coefficients(self, alpha0: float, cond: FlightCondition):
        cl, cm = _flat_plate_trim(self.pitch_axis, alpha0)
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
    CD0: float = 0.0
    CD_alpha: float = 0.0
    CD_q: float = 0.0
    induced_drag_factor: float | None = None

    name = "indicial"

    def __post_init__(self) -> None:
        _check_pitch_axis(self.pitch_axis)
        _check_drag(self)

    def coefficient_histories(self, schedule: MotionSchedule, cond: FlightCondition):
        _check_moving(self, cond)
        dt = np.diff(schedule.time)
        if dt.size and not (dt[0] > 0.0 and np.all(np.abs(dt - dt[0]) <= 1e-9 * dt[0])):
            raise DomainError("schedule.time", "must be a uniform, increasing grid")
        a = self.pitch_axis
        b_over_v = cond.ref_chord / (2.0 * cond.freestream_speed)   # semichord / speed, s
        ds = dt[0] / b_over_v if dt.size else 0.0

        alpha, q = schedule.relative_aoa, schedule.pitch_rate
        alpha_e = alpha + (0.5 - a) * b_over_v * q
        d_ae = np.diff(alpha_e, prepend=0.0)
        x1 = _wagner_lag(d_ae, math.exp(-WAGNER_B1 * ds))
        x2 = _wagner_lag(d_ae, math.exp(-WAGNER_B2 * ds))

        adot, accel = schedule.aoa_rate, schedule.pitch_accel
        cl_circ = 2.0 * math.pi * (alpha_e - WAGNER_A1 * x1 - WAGNER_A2 * x2)
        cl_app = math.pi * (b_over_v * adot - a * b_over_v * b_over_v * accel)
        cm_app = (math.pi / 2.0) * (
            -b_over_v * a * (q - adot)
            - b_over_v * (0.5 - a) * q
            - b_over_v * b_over_v * (0.125 + a * a) * accel
        )
        cl = cl_circ + cl_app
        cm = (a + 0.5) * cl_circ / 2.0 + cm_app
        cd = _drag(self, alpha, q * b_over_v, cl)
        return cl, cd, cm

    def static_coefficients(self, alpha0: float, cond: FlightCondition):
        cl, cm = _flat_plate_trim(self.pitch_axis, alpha0)
        cd = _drag(self, alpha0, 0.0, cl)
        return cl, float(cd), cm


Plant = QuasiSteadyPlant | FlatPlatePlant | IndicialPlant


def simulate(plant: Plant, schedule: MotionSchedule, cond: FlightCondition) -> CoefficientSeries:
    """Run a plant over a motion schedule and package the result.

    ``cond`` must give the schedule's angular frequency from its reduced
    frequency, else ``ConditionMismatch``; a hover condition gives none
    (``NonDimensionalizationUndefined``).  An overflow inside the plant is
    not warned about: CoefficientSeries rejects the non-finite channel it
    leaves, with the channel's name.
    """
    if len(schedule) == 0:
        raise InsufficientSamples("schedule is empty")
    omega = omega_from_k(schedule.spec.reduced_frequency, cond)
    if omega != schedule.omega:
        raise ConditionMismatch(f"the condition gives omega = {omega!r} rad/s at "
                                f"k = {schedule.spec.reduced_frequency!r}, the schedule "
                                f"was made for {schedule.omega!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        cl, cd, cm = plant.coefficient_histories(schedule, cond)
    return CoefficientSeries(times=schedule.time.copy(), CL=cl, CD=cd, Cm=cm)
