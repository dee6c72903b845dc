"""The identification pipeline and transition-flight scenario sweeps.

``identify_modes`` is the one forced-oscillation pipeline: for each mode it
runs schedule -> plant -> first-harmonic fit -> extract, and with both
modes it separates the rate terms.  A sweep runs it for each scenario of
an eVTOL transition from hover to wing-borne flight and summarizes the
incidence-mode loop shapes.  Hover (zero forward speed) is degenerate for
everything nondimensionalized by speed, so it reports static trim values
only rather than fabricated dynamics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientSamples, TooFewPoints
from .identify import (
    ChannelDerivatives,
    DerivativeSet,
    LoopMetrics,
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
)
from .plants import IndicialPlant, Plant, simulate
from .series import CHANNELS, CoefficientSeries

# Skip no cycles for transient-free plants, two for anything with start-up
# lag dynamics (the slow Wagner pole decays below 0.2% within two cycles
# at k >= 0.05).
DEFAULT_SKIP_TRANSIENT = 2


@dataclass(frozen=True)
class TransitionScenario:
    """One snapshot of the hover-to-cruise transition."""

    name: str
    altitude: float             # m above ground
    vertical_velocity: float    # m/s
    forward_velocity: float     # m/s

    def __post_init__(self) -> None:
        if not (math.isfinite(self.altitude) and self.altitude >= 0.0):
            raise ValueError(f"altitude must be >= 0, got {self.altitude}")
        for field in ("vertical_velocity", "forward_velocity"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"{field} must be finite")

    def climb_incidence(self) -> float:
        """Incidence shift atan2(w, V) implied by the climb triangle.

        Not folded into the oscillation automatically; callers who want the
        vertical velocity reflected in the mean incidence set it themselves.
        """
        return math.atan2(self.vertical_velocity, self.forward_velocity)


def builtin_scenarios() -> list[TransitionScenario]:
    """The three stock transition snapshots: beginning, middle, end."""
    return [
        TransitionScenario("transition-beginning", 15.0, 0.0, 0.0),
        TransitionScenario("mid-transition", 200.0, 2.5, 33.0),
        TransitionScenario("transition-end", 450.0, 0.0, 66.0),
    ]


# AGARD CT2 dynamic pitch-oscillation test point, usable as a reference
# oscillation for any geometry (chord/speed come from the caller).
AGARD_CT2_MACH = 0.6
AGARD_CT2_MEAN_INCIDENCE_DEG = 3.16
AGARD_CT2_AMPLITUDE_DEG = 4.59
AGARD_CT2_REDUCED_FREQUENCY = 0.0811


def agard_ct2_preset(
    mode: OscillationMode = OscillationMode.ALPHA,
    cycles: int = 3,
    samples_per_cycle: int = 720,
) -> tuple[OscillationSpec, float]:
    """The AGARD CT2 oscillation spec plus its Mach number.

    Returns (spec, mach).  Only the Mach number of the flow condition is
    part of the preset; chord, speed, and density are the caller's.
    """
    spec = OscillationSpec.from_degrees(
        mode=mode,
        mean_incidence_deg=AGARD_CT2_MEAN_INCIDENCE_DEG,
        amplitude_deg=AGARD_CT2_AMPLITUDE_DEG,
        reduced_frequency=AGARD_CT2_REDUCED_FREQUENCY,
        cycles=cycles,
        samples_per_cycle=samples_per_cycle,
    )
    return spec, AGARD_CT2_MACH


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
    skip_cycles: int | None = None      # None -> 0, or 2 for the indicial plant
    speed_basis: str = "forward"

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("scenario list is empty")
        if not self.modes:
            raise ValueError("mode list is empty")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes in plan")
        if self.speed_basis not in ("forward", "total"):
            raise ValueError(f"speed_basis must be 'forward' or 'total', got {self.speed_basis!r}")
        if self.skip_cycles is not None and self.skip_cycles < 0:
            raise ValueError("skip_cycles must be >= 0")
        # canonical form: the template's mode is the first planned mode
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "oscillation", self.oscillation.with_mode(self.modes[0]))
        skip, cycles = self.effective_skip(), self.oscillation.cycles
        if skip >= cycles:
            default = " (the plant's default)" if self.skip_cycles is None else ""
            raise InsufficientSamples(
                f"oscillation.skip_cycles is {skip}{default} but oscillation.cycles is "
                f"{cycles}: no cycle is left to fit"
            )

    def effective_skip(self) -> int:
        if self.skip_cycles is not None:
            return self.skip_cycles
        return DEFAULT_SKIP_TRANSIENT if isinstance(self.plant, IndicialPlant) else 0

    def scenario_speed(self, scenario: TransitionScenario) -> float:
        if self.speed_basis == "total":
            return math.hypot(scenario.forward_velocity, scenario.vertical_velocity)
        return scenario.forward_velocity


class SweepStatus(enum.Enum):
    OK = "OK"
    STATIC_ONLY = "STATIC_ONLY"
    FAILED = "FAILED"


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Outcome for one scenario of a sweep.

    For successful scenarios the incidence-mode coefficient series and its
    incidence history ride along so report writers can emit loop data
    without re-running the plant.
    """

    scenario: TransitionScenario
    status: SweepStatus
    derivatives: DerivativeSet | None = None
    loops: dict[str, LoopMetrics] | None = None
    condition: FlightCondition | None = None
    failure_reason: str | None = None
    incidence_series: "CoefficientSeries | None" = None
    incidence_history: "np.ndarray | None" = None


@dataclass(frozen=True)
class SweepReport:
    """Per-scenario results, always in plan order."""

    results: tuple[ScenarioResult, ...]
    plan: SweepPlan

    def ok_results(self) -> list[ScenarioResult]:
        return [r for r in self.results if r.status is SweepStatus.OK]


def _static_only_result(
    plan: SweepPlan, scenario: TransitionScenario, cond: FlightCondition
) -> ScenarioResult:
    alpha0 = plan.oscillation.mean_incidence
    cl, cd, cm = plan.plant.static_coefficients(alpha0, cond)
    channels = {
        name: ChannelDerivatives(trim_value=float(value))
        for name, value in zip(CHANNELS, (cl, cd, cm))
    }
    derivatives = DerivativeSet(
        channels=channels, provenance=("static",), spec=None, condition=cond
    )
    return ScenarioResult(
        scenario=scenario,
        status=SweepStatus.STATIC_ONLY,
        derivatives=derivatives,
        condition=cond,
    )


def identify_modes(
    plant: Plant,
    spec: OscillationSpec,
    cond: FlightCondition,
    modes: tuple[OscillationMode, ...] = (OscillationMode.ALPHA, OscillationMode.Q),
    skip_cycles: int = 0,
) -> tuple[DerivativeSet, tuple[MotionSchedule, CoefficientSeries] | None]:
    """Identify the derivatives of ``plant`` from forced oscillation in ``modes``.

    Each mode of ``spec`` (its own mode is ignored) runs schedule ->
    simulate -> fit_series -> extract, fitting after ``skip_cycles``
    start-up cycles.  With both modes the two sets are merged by
    separate_rates; with one, that mode's set is returned as it is.
    Returns (derivatives, incidence), where incidence is the incidence-mode
    (schedule, series) pair, or None when that mode did not run.
    """
    sets: dict[OscillationMode, DerivativeSet] = {}
    incidence = None
    for mode in modes:
        mode_spec = spec.with_mode(mode)
        schedule = make_schedule(mode_spec, cond)
        series = simulate(plant, schedule, cond)
        sets[mode] = extract(fit_series(series, schedule.omega, skip_cycles), mode_spec, cond)
        if mode is OscillationMode.ALPHA:
            incidence = (schedule, series)
    if OscillationMode.ALPHA in sets and OscillationMode.Q in sets:
        return separate_rates(sets[OscillationMode.ALPHA], sets[OscillationMode.Q]), incidence
    (only,) = sets.values()
    return only, incidence


def _run_one(plan: SweepPlan, scenario: TransitionScenario) -> ScenarioResult:
    speed = plan.scenario_speed(scenario)
    cond = replace(plan.condition, freestream_speed=speed)
    if speed == 0.0:
        # hover: nondimensional rates are undefined, so no dynamics
        return _static_only_result(plan, scenario, cond)

    skip = plan.effective_skip()
    derivatives, incidence = identify_modes(plan.plant, plan.oscillation, cond, plan.modes, skip)
    loops = series = history = None
    if incidence is not None:
        schedule, series = incidence
        history = schedule.relative_aoa
        loops = {
            name: loop_metrics(series.times, history, values, schedule.omega, skip)
            for name, values in series.channels().items()
        }
    return ScenarioResult(
        scenario=scenario,
        status=SweepStatus.OK,
        derivatives=derivatives,
        loops=loops,
        condition=cond,
        incidence_series=series,
        incidence_history=history,
    )


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Run every scenario; failures are isolated, order follows the plan."""
    results = []
    for scenario in plan.scenarios:
        try:
            results.append(_run_one(plan, scenario))
        except Exception as exc:  # noqa: BLE001 - per-scenario isolation contract
            results.append(
                ScenarioResult(
                    scenario=scenario,
                    status=SweepStatus.FAILED,
                    failure_reason=f"{type(exc).__name__}: {exc}",
                )
            )
    return SweepReport(results=tuple(results), plan=plan)


# ---------------------------------------------------------------------------
# Trend tables
# ---------------------------------------------------------------------------

_TREND_FIELDS = (
    ("static_slope", "alpha"),
    ("rate_derivative", "q"),
    ("aoa_rate_derivative", "alphadot"),
    ("damping_sum", "damping"),
)


@dataclass(frozen=True)
class TrendRow:
    """One derivative tracked across scenarios ordered by freestream speed."""

    quantity: str
    scenario_names: tuple[str, ...]
    speeds: tuple[float, ...]
    values: tuple[float, ...]
    deltas: tuple[float, ...]
    annotation: str


@dataclass(frozen=True)
class TrendTable:
    rows: tuple[TrendRow, ...]


def _annotate(deltas: tuple[float, ...]) -> str:
    if all(d == 0.0 for d in deltas):
        return "constant"
    if all(d > 0.0 for d in deltas):
        return "increasing"
    if all(d < 0.0 for d in deltas):
        return "decreasing"
    return "mixed"


def trend_table(report: SweepReport) -> TrendTable:
    """Derivative-vs-speed table over the successful scenarios.

    Rows follow the freestream speed each scenario flew, which is the
    total speed under ``speed_basis="total"``.  Nondimensional derivatives
    of a speed-independent plant do not change with speed, so with
    compressibility scaling off every delta is zero; the annotations make
    any actual speed trend explicit.
    """
    ok = report.ok_results()
    if len(ok) < 2:
        raise TooFewPoints(f"need at least 2 successful scenarios, got {len(ok)}")
    ok = sorted(ok, key=lambda r: r.condition.freestream_speed)
    rows = []
    for channel in CHANNELS:
        for field, suffix in _TREND_FIELDS:
            values = []
            for result in ok:
                ch = result.derivatives.channels.get(channel) if result.derivatives else None
                values.append(None if ch is None else getattr(ch, field))
            if any(v is None for v in values):
                continue
            deltas = tuple(b - a for a, b in zip(values, values[1:]))
            rows.append(
                TrendRow(
                    quantity=f"{channel}_{suffix}",
                    scenario_names=tuple(r.scenario.name for r in ok),
                    speeds=tuple(r.condition.freestream_speed for r in ok),
                    values=tuple(values),
                    deltas=deltas,
                    annotation=_annotate(deltas),
                )
            )
    return TrendTable(rows=tuple(rows))
