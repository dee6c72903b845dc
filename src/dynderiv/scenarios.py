"""The identification pipeline and transition-flight scenario sweeps.

``identify_modes`` is the one forced-oscillation pipeline: for each mode it
runs schedule -> plant -> first-harmonic fit -> extract, and with both
modes it separates the rate terms.  A sweep runs it for each scenario of
an eVTOL transition from hover to wing-borne flight and summarizes the
incidence-mode loop shapes.  Hover (zero forward speed) is degenerate for
everything nondimensionalized by speed, so it reports static trim values
only rather than fabricated dynamics.
Every scenario of a sweep samples the same phase grid omega*t = 2*pi*n/N,
and ``make_schedule`` takes the phase's sine and cosine as those of
2*pi*m/N with m = n mod N, one cycle repeated.  So one harmonic basis on
that grid serves both modes, every scenario and the loop metrics;
derivatives may differ at rounding level from fits on each scenario's own
time stamps.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import DynDerivError, InsufficientSamples, _choices, check, check_fields
from .identify import (
    ChannelDerivatives,
    DerivativeSet,
    _Basis,
    _harmonic_basis,
    _whole_skip,
    extract,
    fit_series,
    loop_metrics,
    separate_rates,
)
from .kinematics import (
    FlightCondition,
    MotionSchedule,
    OscillationMode,
    OscillationSpec,
    make_schedule,
    sample_grid,
)
from .plants import IndicialPlant, Plant, simulate
from .series import CHANNELS, CoefficientSeries

# Skip no cycles for transient-free plants, two for anything with start-up
# lag dynamics.  Two cycles leave exp(-4*pi*0.0455/k) of the slow Wagner
# pole's start-up term: 1.1e-5 at k = 0.05, 3.3e-3 at 0.1, 5.7e-2 at 0.2
# and 0.15 at 0.3, so below 0.2% only for k <= 0.092 (the ROADMAP item on
# the indicial start-up skip derives it from k and that pole instead).
DEFAULT_SKIP_TRANSIENT = 2


def _run_skip(plant: Plant, cycles: int, modes: tuple, skip_cycles: int | None) -> int:
    """The start-up cycles a run skips, by the one rule of SweepPlan and identify_modes."""
    # the types first: set() of an unhashable entry is a bare TypeError
    check(all(isinstance(m, OscillationMode) for m in modes) and 0 < len(set(modes)) == len(modes),
          "modes", "must name one or more OscillationModes, none twice", modes)
    settling = DEFAULT_SKIP_TRANSIENT if isinstance(plant, IndicialPlant) else 0
    skip = settling if skip_cycles is None else _whole_skip(skip_cycles)
    if skip >= cycles:
        default = " (the plant's default)" if skip_cycles is None else ""
        raise InsufficientSamples(f"oscillation.skip_cycles is {skip}{default} but "
                                  f"oscillation.cycles is {cycles}: no cycle is left to fit")
    return skip


# a scenario name is part of a file name and a CSV cell
_NAME = re.compile(r"[A-Za-z0-9._-]+")
# speed_basis -> the freestream speed a scenario flies at, m/s
_SPEED_BASES = {"forward": lambda s: s.forward_velocity,
                "total": lambda s: math.hypot(s.forward_velocity, s.vertical_velocity)}


@dataclass(frozen=True)
class TransitionScenario:
    """One snapshot of the hover-to-cruise transition."""

    name: str
    altitude: float             # m above ground
    vertical_velocity: float    # m/s
    forward_velocity: float     # m/s

    def __post_init__(self) -> None:
        check(isinstance(self.name, str) and _NAME.fullmatch(self.name) is not None, "name",
              "must be one or more of A-Z, a-z, 0-9, '.', '_' and '-'", self.name)
        check_fields(self, ">= 0", "altitude", "forward_velocity")
        check_fields(self, "finite", "vertical_velocity")


def builtin_scenarios() -> list[TransitionScenario]:
    """The three stock transition snapshots: beginning, middle, end."""
    return [
        TransitionScenario("transition-beginning", 15.0, 0.0, 0.0),
        TransitionScenario("mid-transition", 200.0, 2.5, 33.0),
        TransitionScenario("transition-end", 450.0, 0.0, 66.0),
    ]


# AGARD CT2 dynamic pitch-oscillation test point, usable as a reference
# oscillation for any geometry (chord/speed come from the caller).
AGARD_CT2_MEAN_INCIDENCE_DEG = 3.16
AGARD_CT2_AMPLITUDE_DEG = 4.59
AGARD_CT2_REDUCED_FREQUENCY = 0.0811


def agard_ct2_preset(
    mode: OscillationMode = OscillationMode.ALPHA,
    cycles: int = 3,
    samples_per_cycle: int = 720,
) -> OscillationSpec:
    """The AGARD CT2 oscillation spec.

    The test point flies at Mach 0.6; chord, speed, and density are the
    caller's.
    """
    return OscillationSpec.from_degrees(
        mode=mode,
        mean_incidence_deg=AGARD_CT2_MEAN_INCIDENCE_DEG,
        amplitude_deg=AGARD_CT2_AMPLITUDE_DEG,
        reduced_frequency=AGARD_CT2_REDUCED_FREQUENCY,
        cycles=cycles,
        samples_per_cycle=samples_per_cycle,
    )


@dataclass(frozen=True)
class SweepPlan:
    """Everything needed to run a scenario matrix.

    The oscillation spec is a template; each scenario substitutes its
    speed into the condition template and runs the mode pair.  ``modes``
    defaults to both; a single-mode plan extracts what that mode alone
    supports (no separation).  ``speed_basis`` picks what counts as the
    freestream speed for scenarios with a climb component: the forward
    velocity (default) or the total velocity.
    """

    scenarios: tuple[TransitionScenario, ...]
    oscillation: OscillationSpec
    condition: FlightCondition
    plant: Plant
    modes: tuple[OscillationMode, ...] = (OscillationMode.ALPHA, OscillationMode.Q)
    skip_cycles: int | None = None      # None -> the plant's default
    speed_basis: str = "forward"

    def __post_init__(self) -> None:
        check(len(self.scenarios) > 0, "scenarios", "must not be empty", self.scenarios)
        # names differing only in case would share a loops_<name>.csv on some filesystems
        folded = [s.name.casefold() for s in self.scenarios]
        repeated = [s.name for i, s in enumerate(self.scenarios) if folded[i] in folded[:i]]
        check(not repeated, "scenarios", f"must not repeat a scenario name: {repeated}")
        check(isinstance(self.speed_basis, str) and self.speed_basis in _SPEED_BASES,
              "speed_basis", f"must be {_choices(_SPEED_BASES)}", self.speed_basis)
        self.effective_skip()           # checks modes and skip_cycles
        # canonical form: the template's mode is the first planned mode
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "oscillation", self.oscillation.with_mode(self.modes[0]))

    def effective_skip(self) -> int:
        return _run_skip(self.plant, self.oscillation.cycles, self.modes, self.skip_cycles)

    def scenario_speed(self, scenario: TransitionScenario) -> float:
        return _SPEED_BASES[self.speed_basis](scenario)

    def scenario_condition(self, scenario: TransitionScenario) -> FlightCondition:
        """The condition template at the speed ``scenario`` flies."""
        return replace(self.condition, freestream_speed=self.scenario_speed(scenario))


class SweepStatus(enum.Enum):
    OK = "OK"
    STATIC_ONLY = "STATIC_ONLY"
    FAILED = "FAILED"


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Outcome for one scenario of a sweep.

    A scenario that ran the incidence mode keeps that run as ``incidence``,
    the pair (incidence history in rad, coefficient series), so report
    writers can emit loop data without re-running the plant.
    """

    scenario: TransitionScenario
    status: SweepStatus
    derivatives: DerivativeSet | None = None
    loops: dict[str, float] | None = None          # channel -> signed loop area
    failure_reason: str | None = None
    incidence: tuple[np.ndarray, CoefficientSeries] | None = None


@dataclass(frozen=True)
class SweepReport:
    """Per-scenario results, always in plan order."""

    results: tuple[ScenarioResult, ...]
    plan: SweepPlan


def _static_only_result(
    plan: SweepPlan, scenario: TransitionScenario, cond: FlightCondition
) -> ScenarioResult:
    trims = plan.plant.static_coefficients(plan.oscillation.mean_incidence, cond)
    channels = {name: ChannelDerivatives(trim_value=float(v)) for name, v in zip(CHANNELS, trims)}
    derivatives = DerivativeSet(channels=channels, condition=cond)
    return ScenarioResult(scenario, SweepStatus.STATIC_ONLY, derivatives)


def identify_modes(
    plant: Plant,
    spec: OscillationSpec,
    cond: FlightCondition,
    modes: tuple[OscillationMode, ...] = (OscillationMode.ALPHA, OscillationMode.Q),
    skip_cycles: int | None = None,
    _basis: _Basis | None = None,
) -> tuple[DerivativeSet, tuple[MotionSchedule, CoefficientSeries] | None]:
    """Identify the derivatives of ``plant`` from forced oscillation in ``modes``.

    One schedule of ``spec``'s body motion (its own mode is ignored) is
    flown in each mode, and each mode runs simulate -> fit_series ->
    extract, fitting after ``skip_cycles`` start-up cycles, by a sweep
    plan's rule (None: the plant's default); the modes share the motion's
    time grid and phase, and one basis, built on those times, or ``_basis``
    from a sweep.  The mode sets are merged by separate_rates, so one mode
    gives a set equal to its own.
    Returns (derivatives, incidence), where incidence is the incidence-mode
    (schedule, series) pair, or None when that mode did not run.
    """
    skip_cycles = _run_skip(plant, spec.cycles, modes, skip_cycles)
    sets: dict[OscillationMode, DerivativeSet] = {}
    incidence = None
    motion = make_schedule(spec.with_mode(modes[0]), cond)
    for mode in modes:
        schedule = motion.with_mode(mode)
        series = simulate(plant, schedule, cond)
        if _basis is None:          # every mode flies on the motion's times
            _basis = _harmonic_basis(series.times, schedule.omega, skip_cycles)
        fits = fit_series(series, schedule.omega, skip_cycles, _basis=_basis)
        sets[mode] = extract(fits, schedule.spec, cond)
        if mode is OscillationMode.ALPHA:
            incidence = (schedule, series)
    return separate_rates(*(sets[m] for m in OscillationMode if m in sets)), incidence


def _run_one(plan: SweepPlan, scenario: TransitionScenario, basis: _Basis) -> ScenarioResult:
    cond = plan.scenario_condition(scenario)
    if cond.freestream_speed == 0.0:
        # hover: nondimensional rates are undefined, so no dynamics
        return _static_only_result(plan, scenario, cond)

    derivatives, incidence = identify_modes(plan.plant, plan.oscillation, cond, plan.modes,
                                            plan.skip_cycles, basis)
    if incidence is None:
        return ScenarioResult(scenario, SweepStatus.OK, derivatives)
    schedule, series = incidence
    alpha = schedule.relative_aoa
    loops = {
        name: loop_metrics(series.times, alpha, y, schedule.omega, _basis=basis)
        for name, y in series.channels().items()
    }
    return ScenarioResult(scenario, SweepStatus.OK, derivatives, loops,
                          incidence=(alpha, series))


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Run every scenario; order follows the plan.

    A scenario that raises a ``DynDerivError`` gets a FAILED row and the
    sweep goes on; any other exception is a bug and propagates.  The
    sweep's basis cannot fail: the spec keeps at least 8 samples per cycle
    and the plan a skip that leaves at least one cycle.
    """
    basis = _harmonic_basis(sample_grid(plan.oscillation, 1.0), 1.0, plan.effective_skip())
    results = []
    for scenario in plan.scenarios:
        try:
            results.append(_run_one(plan, scenario, basis))
        except DynDerivError as exc:
            results.append(
                ScenarioResult(
                    scenario=scenario,
                    status=SweepStatus.FAILED,
                    failure_reason=f"{type(exc).__name__}: {exc}",
                )
            )
    return SweepReport(results=tuple(results), plan=plan)
