"""Exception hierarchy and the range-rule helper.

Everything raised on purpose by this package derives from DynDerivError,
so callers can catch one type at the boundary. Subclasses are split by
surface: kinematics/nondimensionalization, identification, scenario
sweeps, and the two text interfaces (case configs and monitor tables).
Value objects enforce each of their range rules through ``check``.
"""

import math


class DynDerivError(ValueError):
    """Base class for all domain errors raised by dynderiv."""


# --- kinematics / plants ---------------------------------------------------

class NonDimensionalizationUndefined(DynDerivError):
    """Zero freestream speed: reduced frequency and rate scales are undefined."""


class DomainError(DynDerivError):
    """A value outside its valid range.

    ``field`` names the constructor field or argument holding the value and
    ``rule`` the range it breaks ("must be > 0"), so a caller that knows the
    value by another name (a config key, in degrees) can report it so.
    """

    def __init__(self, field: str, rule: str, value: object = None):
        super().__init__(f"{field} {rule}" + ("" if value is None else f", got {value!r}"))
        self.field = field
        self.rule = rule


def check(ok: bool, field: str, rule: str, value: object = None, error: type = DomainError) -> None:
    """Raise ``error(field, rule, value)`` unless ``ok``."""
    if not ok:
        raise error(field, rule, value)


def _choices(values) -> str:
    """A closed list for a message: 'a', 'b' or 'c', and 'a' for a single value."""
    *rest, last = map(repr, values)
    return f"{', '.join(rest)} or {last}" if rest else last


_STANDARD_RULES = {
    "finite": math.isfinite,
    "> 0": lambda v: math.isfinite(v) and v > 0.0,
    ">= 0": lambda v: math.isfinite(v) and v >= 0.0,
}


def check_fields(obj: object, rule: str, *fields: str) -> None:
    """Check each named field of ``obj`` against "finite", "> 0" or ">= 0"."""
    test = _STANDARD_RULES[rule]
    for field in fields:
        value = getattr(obj, field)
        check(test(value), field, f"must be {rule}", value)


# --- identification --------------------------------------------------------

class InsufficientSamples(DynDerivError):
    """Not enough samples (or whole periods) left after skipping transients."""


class NonFiniteData(DynDerivError):
    """NaN or infinity in a sampled signal."""


class ZeroAmplitude(DomainError):
    """Oscillation amplitude is zero; displacement scaling is undefined."""


class ZeroReducedFrequency(DomainError):
    """Reduced frequency is zero; rate scaling is undefined."""


class ConditionMismatch(DynDerivError):
    """Inputs came from different test conditions: derivative sets to be merged, or a
    schedule and the condition a plant is simulated at."""


# --- case config documents -------------------------------------------------

class ConfigError(DynDerivError):
    """Base class for case-config document errors."""


class MalformedDocument(ConfigError):
    """Document is not valid JSON or not an object at the top level."""


class MissingKey(ConfigError):
    """A required key is absent."""


class UnknownKey(ConfigError):
    """A key is present that the config tables do not define."""


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
