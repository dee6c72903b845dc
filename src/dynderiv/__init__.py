"""Forced-oscillation identification of longitudinal dynamic derivatives.

Generate prescribed harmonic pitch motions, drive surrogate unsteady-
aerodynamic plants (or ingest external solver output), regress the
coefficient histories onto in-phase/out-of-phase components, and separate
pitch-rate from incidence-rate derivatives across transition-flight
scenarios.
"""

__version__ = "0.1.0"

from .errors import (
    ConditionMismatch,
    ConfigError,
    DomainError,
    DynDerivError,
    InsufficientSamples,
    MalformedDocument,
    MissingKey,
    MissingTimeColumn,
    MonitorError,
    NoCoefficientColumn,
    NonFiniteData,
    NonFiniteValue,
    NonMonotonicTime,
    NonDimensionalizationUndefined,
    TooFewPoints,
    UnitViolation,
    UnknownKey,
    ZeroAmplitude,
    ZeroReducedFrequency,
)
from .kinematics import (
    FlightCondition,
    MotionSchedule,
    OscillationMode,
    OscillationSpec,
    make_schedule,
    omega_from_k,
    sample_grid,
)
from .series import CHANNELS, CoefficientSeries, SeriesMeta
from .plants import (
    ComplexLoads,
    DragPolar,
    FlatPlatePlant,
    IndicialPlant,
    QuasiSteadyCoefficients,
    QuasiSteadyPlant,
    jones_function,
    pitch_oscillation_loads,
    prandtl_glauert,
    q_mode_oscillation_loads,
    quasi_steady_loads,
    simulate,
    theodorsen_function,
    wagner_function,
)
from .identify import (
    ChannelDerivatives,
    DerivativeSet,
    HarmonicFit,
    LoopMetrics,
    Orientation,
    extract,
    fit_harmonic,
    fit_series,
    loop_metrics,
    separate_rates,
    validate_fit,
)
from .scenarios import (
    AGARD_CT2_MACH,
    ScenarioResult,
    SweepPlan,
    SweepReport,
    SweepStatus,
    TransitionScenario,
    TrendRow,
    TrendTable,
    agard_ct2_preset,
    builtin_scenarios,
    identify_modes,
    run_sweep,
    trend_table,
)
from .config import parse_case_config, render_case_config
from .io import (
    atomic_write,
    parse_monitor_table,
    write_derivative_table,
    write_loop_table,
    write_report,
    write_series,
)
from .validate import run_validation
