"""Exception hierarchy.

Everything raised on purpose by this package derives from DynDerivError,
so callers can catch one type at the boundary. Subclasses are split by
surface: kinematics/nondimensionalization, identification, scenario
sweeps, and the two text interfaces (case configs and monitor tables).
"""


class DynDerivError(ValueError):
    """Base class for all domain errors raised by dynderiv."""


# --- kinematics / plants ---------------------------------------------------

class NonDimensionalizationUndefined(DynDerivError):
    """Zero freestream speed: reduced frequency and rate scales are undefined."""


class DomainError(DynDerivError):
    """Argument outside the mathematical domain of a special function."""


# --- identification --------------------------------------------------------

class InsufficientSamples(DynDerivError):
    """Not enough samples (or whole periods) left after skipping transients."""


class NonFiniteData(DynDerivError):
    """NaN or infinity in a sampled signal."""


class ZeroAmplitude(DynDerivError):
    """Oscillation amplitude is zero; displacement scaling is undefined."""


class ZeroReducedFrequency(DynDerivError):
    """Reduced frequency is zero; rate scaling is undefined."""


class ConditionMismatch(DynDerivError):
    """Derivative sets to be merged came from different test conditions."""


# --- scenarios -------------------------------------------------------------

class TooFewPoints(DynDerivError):
    """Fewer than two successful scenarios; no trend can be formed."""


# --- case config documents -------------------------------------------------

class ConfigError(DynDerivError):
    """Base class for case-config document errors."""


class MalformedDocument(ConfigError):
    """Document is not valid JSON or not an object at the top level."""


class MissingKey(ConfigError):
    """A required key is absent."""


class UnknownKey(ConfigError):
    """A key is present that the schema does not define."""


class UnitViolation(ConfigError):
    """A value is outside its physical range (negative chord, Mach >= 1, ...)."""


# --- monitor tables --------------------------------------------------------

class MonitorError(DynDerivError):
    """Base class for coefficient-monitor ingestion errors."""


class MissingTimeColumn(MonitorError):
    """No column recognized as time."""


class NoCoefficientColumn(MonitorError):
    """No lift, drag, or moment column recognized."""


class NonMonotonicTime(MonitorError):
    """Time stamps are not strictly increasing."""


class NonFiniteValue(MonitorError):
    """A data cell is NaN, infinite, or not a number at all."""
