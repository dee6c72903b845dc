"""Case-config documents: the JSON description of a sweep plan.

A config is one strict JSON object with four blocks (``condition``,
``oscillation``, ``plant``, ``scenarios``) plus an optional top-level
``speed_basis``.  Angles are degrees here and nowhere else inside the
package.  One table per block maps each key to the constructor field it
fills; the table rejects unknown keys, checks JSON types and finiteness,
and renders plans back to text.  The range rules belong to the value
objects: their ``DomainError`` is re-raised as a ``UnitViolation`` that
names the key, its line, and the value as written.  Lines are those of
``io._lines``, the one text rule of configs and monitor tables alike.

``render_case_config`` emits the canonical form: sorted keys, explicit
scenario list, two-space indent.  Rendering picks degree values whose
parse reproduces the stored radians bit-for-bit where such a value
exists, so ``parse_case_config(render_case_config(plan)) == plan`` for
every plan whose angles came from degrees (every parsed config).  Other
radians may have no degree preimage; those parse back one ulp off.
"""

from __future__ import annotations

import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Callable, Iterator, NamedTuple, get_args, get_type_hints

from .errors import (
    DomainError,
    InsufficientSamples,
    MalformedDocument,
    MissingKey,
    UnitViolation,
    UnknownKey,
    _choices,
)
from .io import _lines
from .kinematics import FlightCondition, OscillationMode, OscillationSpec
from .plants import Plant
from .scenarios import SweepPlan, TransitionScenario, builtin_scenarios


def _degrees_preimage(radians_value: float) -> float:
    """Degree value whose math.radians() reproduces the input bit-for-bit.

    math.radians(math.degrees(x)) can land one ulp off; searching the
    immediate neighbors restores the exact preimage whenever the value is
    reachable from a degree input at all (it always is for values that
    entered through a config).  Other values get math.degrees(x), whose
    radians are the next float up or down.
    """
    d = math.degrees(radians_value)
    if math.radians(d) == radians_value:
        return d
    lo = hi = d
    for _ in range(8):
        lo = math.nextafter(lo, -math.inf)
        if math.radians(lo) == radians_value:
            return lo
        hi = math.nextafter(hi, math.inf)
        if math.radians(hi) == radians_value:
            return hi
    return d


def _same(value: Any) -> Any:
    return value


def _is_number(value: Any) -> bool:
    # JSON gives exact ints and floats (not bools); the bound rejects nan, inf and huge ints
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


class _Kind(NamedTuple):
    """The JSON type of a config value and its conversions to and from a field."""

    noun: str
    accepts: Callable[[Any], bool]
    parse: Callable[[Any], Any] = _same
    render: Callable[[Any], Any] = _same


_MODE_VALUES = tuple(m.value for m in OscillationMode)   # a tuple: entries may be unhashable
_KINDS = {
    "number": _Kind("a finite number", _is_number, float),
    "degrees": _Kind("a finite number", _is_number, math.radians, _degrees_preimage),
    "integer": _Kind("an integer", lambda v: type(v) is int),
    "boolean": _Kind("a boolean", lambda v: type(v) is bool),
    "string": _Kind("a string", lambda v: type(v) is str),
    "modes": _Kind(
        f"a list of {_choices(_MODE_VALUES)} entries",
        lambda v: type(v) is list and all(m in _MODE_VALUES for m in v),
        lambda v: tuple(OscillationMode(m) for m in v),
        lambda modes: [m.value for m in modes],
    ),
    "block": _Kind("a block", lambda v: True),     # parsed later by the block's own table
}


class _Key(NamedTuple):
    """Where one config key goes: the constructor field it fills, and its kind."""

    field: str
    kind: str
    required: bool = True
    nullable: bool = False      # JSON null is accepted and means None


# top-level keys -> SweepPlan fields; ``modes`` and ``skip_cycles`` sit in
# the oscillation block
_PLAN = {
    "condition": _Key("condition", "block"),
    "oscillation": _Key("oscillation", "block"),
    "plant": _Key("plant", "block"),
    "scenarios": _Key("scenarios", "block"),
    "speed_basis": _Key("speed_basis", "string", required=False),
}
_CONDITION = {
    "speed_m_s": _Key("freestream_speed", "number"),
    "sound_speed_m_s": _Key("sound_speed", "number", required=False, nullable=True),
    "density_kg_m3": _Key("density", "number"),
    "chord_m": _Key("ref_chord", "number"),
    "span_m": _Key("ref_span", "number"),
    "area_m2": _Key("ref_area", "number"),
}
_OSCILLATION = {
    "modes": _Key("modes", "modes"),
    "mean_incidence_deg": _Key("mean_incidence", "degrees"),
    "amplitude_deg": _Key("body_amplitude", "degrees"),
    "reduced_frequency": _Key("reduced_frequency", "number"),
    "cycles": _Key("cycles", "integer"),
    "samples_per_cycle": _Key("samples_per_cycle", "integer"),
    "skip_cycles": _Key("skip_cycles", "integer", required=False, nullable=True),
}
_SCENARIO = {
    "name": _Key("name", "string"),
    "altitude_m": _Key("altitude", "number"),
    "vertical_velocity_m_s": _Key("vertical_velocity", "number"),
    "forward_velocity_m_s": _Key("forward_velocity", "number"),
}
# a plant field's type hint -> the kind of its config key
_HINTS = {float: {"kind": "number"}, float | None: {"kind": "number", "nullable": True},
          bool: {"kind": "boolean"}, str: {"kind": "string"}}


def _plant_keys(cls: type[Plant]) -> dict[str, _Key]:
    """A plant's config keys: one optional key per dataclass field, named like the field."""
    return {k: _Key(k, required=False, **_HINTS[h]) for k, h in get_type_hints(cls).items()}


# plant.kind -> (table of the other keys, plant class whose fields they are)
_PLANTS = {cls.name: (_plant_keys(cls), cls) for cls in get_args(Plant)}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


_SPACE = re.compile(r"[ \t\n\r]*")     # JSON whitespace


def _key_line(text: str, path: str) -> str:
    """' (line N)' where the key at ``path`` ('scenarios[1].altitude_m') is written, else ''.

    Walks the text along the path, so the key is found inside its own block.
    A parent that is not a list or an object, as written, gives ''.
    """
    decode, skip = json.JSONDecoder().raw_decode, lambda i: _SPACE.match(text, i).end()
    at = pos = skip(0)                      # the empty path is the document itself
    for index, key in re.findall(r"\[(\d+)\]|([^.\[]+)", path):
        if text[pos] != ("[" if index else "{"):
            return ""
        want, found, i, pos = int(index) if index else key, None, 0, skip(pos + 1)
        while text[pos] not in "]}":
            name, at = i, pos
            if not index:
                name, pos = decode(text, pos)
                pos = skip(skip(pos) + 1)           # past the colon
            if name == want:
                found = at, pos     # the last of duplicate keys, as json.loads keeps it
            pos = skip(decode(text, pos)[1])
            pos, i = skip(pos + (text[pos] == ",")), i + 1
        if found is None:
            return ""
        at, pos = found
    return f" (line {text.count(chr(10), 0, at) + 1})"


def _missing(text: str, path: str) -> MissingKey:
    """The absent key is nowhere in the text, so the error cites its block's line."""
    block = _key_line(text, path.rpartition(".")[0])
    return MissingKey(f"missing required key '{path}'{block}")


def _fields(text: str, obj: Any, table: dict[str, _Key], path: str) -> dict[str, Any]:
    """Constructor arguments from the keys of ``table`` that ``obj`` holds."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"'{path}' must be an object{_key_line(text, path)}")
    for key in obj:
        if key not in table:
            where = _join(path, key)
            raise UnknownKey(f"unknown key '{where}'{_key_line(text, where)}")
    out = {}
    for key, spec in table.items():
        if key not in obj:
            if spec.required:
                raise _missing(text, _join(path, key))
            continue
        raw, kind = obj[key], _KINDS[spec.kind]
        if raw is None and spec.nullable:
            out[spec.field] = None
        elif kind.accepts(raw):
            out[spec.field] = kind.parse(raw)
        else:
            where = _join(path, key)
            raise UnitViolation(f"'{where}' must be {kind.noun}{_key_line(text, where)}")
    return out


@contextmanager
def _reported(text: str, obj: dict, table: dict[str, _Key], path: str) -> Iterator[None]:
    """Re-raise a constructor's DomainError under the key of its field."""
    try:
        yield
    except DomainError as exc:
        key = next((k for k, spec in table.items() if spec.field == exc.field), None)
        if key is None:
            raise
        where = _join(path, key)
        # a whole block is not worth echoing back
        written = "" if table[key].kind == "block" else f", got {obj.get(key)!r}"
        raise UnitViolation(f"'{where}' {exc.rule}{written}{_key_line(text, where)}") from exc


def _build(text: str, factory: Callable[..., Any], obj: Any, table: dict[str, _Key], path: str):
    """``factory`` called with the fields of ``obj``; range errors name their key."""
    kwargs = _fields(text, obj, table, path)
    with _reported(text, obj, table, path):
        return factory(**kwargs)


def _parse_plant(text: str, obj: Any) -> Plant:
    if not isinstance(obj, dict):
        raise MalformedDocument(f"'plant' must be an object{_key_line(text, 'plant')}")
    if "kind" not in obj:
        raise _missing(text, "plant.kind")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _PLANTS:
        raise UnitViolation(f"'plant.kind' must be {_choices(_PLANTS)}, got {kind!r}"
                            f"{_key_line(text, 'plant.kind')}")
    table, cls = _PLANTS[kind]
    return _build(text, cls, {k: v for k, v in obj.items() if k != "kind"}, table, "plant")


def _parse_scenarios(text: str, obj: Any) -> tuple[TransitionScenario, ...]:
    if obj == "builtin":
        return tuple(builtin_scenarios())
    if not isinstance(obj, list):
        raise UnitViolation("'scenarios' must be \"builtin\" or a non-empty list"
                            + _key_line(text, "scenarios"))
    return tuple(
        _build(text, TransitionScenario, entry, _SCENARIO, f"scenarios[{i}]")
        for i, entry in enumerate(obj)
    )


def parse_case_config(text: str) -> SweepPlan:
    """Parse and validate one case-config document into a SweepPlan."""
    text = "\n".join(_lines(text))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be a JSON object")
    args = _fields(text, doc, _PLAN, "")
    args["condition"] = _build(text, FlightCondition, doc["condition"], _CONDITION, "condition")
    oscillation = _fields(text, doc["oscillation"], _OSCILLATION, "oscillation")
    args["modes"] = oscillation.pop("modes")
    args["skip_cycles"] = oscillation.pop("skip_cycles", None)
    with _reported(text, doc["oscillation"], _OSCILLATION, "oscillation"):
        # a template: SweepPlan gives it the first planned mode
        args["oscillation"] = OscillationSpec(mode=OscillationMode.ALPHA, **oscillation)
    args["plant"] = _parse_plant(text, doc["plant"])
    args["scenarios"] = _parse_scenarios(text, doc["scenarios"])
    try:
        with _reported(text, doc, _PLAN, ""):
            with _reported(text, doc["oscillation"], _OSCILLATION, "oscillation"):
                plan = SweepPlan(**args)
    except InsufficientSamples as exc:      # the run rule: no cycle is left after the skip
        line = _key_line(text, "oscillation.skip_cycles") or _key_line(text, "oscillation.cycles")
        raise InsufficientSamples(f"{exc}{line}") from exc
    _check_flown_speeds(text, plan)
    return plan


def _check_flown_speeds(text: str, plan: SweepPlan) -> None:
    """Each scenario's condition must hold (Mach < 1) at the speed it flies.

    The speed follows ``speed_basis``; the error names the scenario's
    forward velocity and its line.
    """
    for i, scenario in enumerate(plan.scenarios):
        try:
            plan.scenario_condition(scenario)
        except DomainError as exc:
            where = f"scenarios[{i}].forward_velocity_m_s"
            raise UnitViolation(
                f"'{where}' gives a {plan.speed_basis} speed that {exc.rule}, "
                f"got {plan.scenario_speed(scenario)!r} m/s against "
                f"{plan.condition.sound_speed!r} m/s{_key_line(text, where)}"
            ) from exc


def _render(table: dict[str, _Key], fields: dict[str, Any]) -> dict[str, Any]:
    """The config block of ``table`` for the given constructor fields."""
    return {key: _KINDS[spec.kind].render(fields[spec.field]) for key, spec in table.items()}


def _scenario_docs(plan: SweepPlan) -> list[dict[str, Any]]:
    """The canonical config entries of a plan's scenarios, its document's ``scenarios``."""
    return [_render(_SCENARIO, asdict(s)) for s in plan.scenarios]


def _plan_doc(plan: SweepPlan) -> dict[str, Any]:
    """The canonical config document of a plan, which a JSON round trip leaves unchanged."""
    oscillation = {**asdict(plan.oscillation), "modes": plan.modes, "skip_cycles": plan.skip_cycles}
    table, _ = _PLANTS[plan.plant.name]
    return {
        "condition": _render(_CONDITION, asdict(plan.condition)),
        "oscillation": _render(_OSCILLATION, oscillation),
        "plant": {"kind": plan.plant.name, **_render(table, asdict(plan.plant))},
        "scenarios": _scenario_docs(plan),
        "speed_basis": plan.speed_basis,
    }


def render_case_config(plan: SweepPlan) -> str:
    """Canonical JSON rendering of a plan.

    parse(render(plan)) == plan when the plan's angles came from degrees;
    otherwise each angle parses back within one ulp.
    """
    return json.dumps(_plan_doc(plan), indent=2, sort_keys=True) + "\n"
