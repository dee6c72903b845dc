"""The error contract: value objects name the field at fault, and src/ raises no bare ValueError."""

import ast
import math
from pathlib import Path

import pytest

from dynderiv import (
    DomainError,
    FlatPlatePlant,
    FlightCondition,
    IndicialPlant,
    OscillationMode,
    OscillationSpec,
    QuasiSteadyPlant,
    SweepPlan,
    TransitionScenario,
    ZeroAmplitude,
    ZeroReducedFrequency,
    builtin_scenarios,
    errors,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "dynderiv"
ALPHA = OscillationMode.ALPHA


def _condition(**overrides):
    return FlightCondition(**{"freestream_speed": 100.0, "density": 1.225, "ref_chord": 0.2,
                              "ref_span": 1.0, "ref_area": 0.2, **overrides})


def _plan(**overrides):
    return SweepPlan(**{"scenarios": builtin_scenarios(),
                        "oscillation": OscillationSpec(ALPHA, 0.0, 0.05, 0.1),
                        "condition": _condition(),
                        "plant": QuasiSteadyPlant(), **overrides})


# (field at fault, constructor call, error type when narrower than DomainError)
FIELD_CASES = [
    ("freestream_speed", lambda: _condition(freestream_speed=-1.0)),
    ("freestream_speed", lambda: _condition(freestream_speed=400.0, sound_speed=340.0)),
    ("density", lambda: _condition(density=0.0)),
    ("ref_chord", lambda: _condition(ref_chord=-1.0)),
    ("sound_speed", lambda: _condition(sound_speed=math.nan)),
    ("mean_incidence", lambda: OscillationSpec(ALPHA, math.inf, 0.05, 0.1)),
    ("body_amplitude", lambda: OscillationSpec(ALPHA, 0.0, 0.0, 0.1), ZeroAmplitude),
    ("body_amplitude", lambda: OscillationSpec(ALPHA, 0.0, -0.05, 0.1)),
    ("reduced_frequency", lambda: OscillationSpec(ALPHA, 0.0, 0.05, 0.0), ZeroReducedFrequency),
    ("cycles", lambda: OscillationSpec(ALPHA, 0.0, 0.05, 0.1, cycles=0)),
    ("samples_per_cycle", lambda: OscillationSpec(ALPHA, 0.0, 0.05, 0.1, samples_per_cycle=7.5)),
    ("name", lambda: TransitionScenario("", 0.0, 0.0, 10.0)),
    ("altitude", lambda: TransitionScenario("a", -1.0, 0.0, 10.0)),
    ("vertical_velocity", lambda: TransitionScenario("a", 0.0, math.nan, 10.0)),
    ("forward_velocity", lambda: TransitionScenario("a", 0.0, 0.0, -10.0)),
    ("CD_q", lambda: IndicialPlant(CD_q=math.inf)),
    ("induced_drag_factor", lambda: IndicialPlant(induced_drag_factor=-0.1)),
    ("Cm_q", lambda: QuasiSteadyPlant(Cm_q=math.nan)),
    ("induced_drag_factor", lambda: QuasiSteadyPlant(induced_drag_factor=-0.1)),
    ("pitch_axis", lambda: FlatPlatePlant(pitch_axis=5.0)),
    ("kernel", lambda: FlatPlatePlant(kernel="fourier")),
    ("pitch_axis", lambda: IndicialPlant(pitch_axis=-3.0)),
    ("scenarios", lambda: _plan(scenarios=())),
    ("modes", lambda: _plan(modes=())),
    ("modes", lambda: _plan(modes=(ALPHA, ALPHA))),
    ("speed_basis", lambda: _plan(speed_basis="diagonal")),
    ("skip_cycles", lambda: _plan(skip_cycles=-1)),
]


@pytest.mark.parametrize("field, build, error", [(*case, DomainError)[:3] for case in FIELD_CASES],
                         ids=[case[0] for case in FIELD_CASES])
def test_value_object_domain_error_names_its_field(field, build, error):
    with pytest.raises(error) as info:
        build()
    assert info.value.field == field
    assert str(info.value).startswith(f"{field} {info.value.rule}")


def test_an_unhashable_speed_basis_is_a_domain_error():
    with pytest.raises(DomainError) as info:
        _plan(speed_basis=["forward"])
    assert info.value.field == "speed_basis"


@pytest.mark.parametrize("values, spelled", [
    (["one"], "'one'"), (("a", "b"), "'a' or 'b'"), ({"a": 1, "b": 2, "c": 3}, "'a', 'b' or 'c'")])
def test_a_closed_list_is_spelled_as_its_values(values, spelled):
    assert errors._choices(values) == spelled


@pytest.mark.parametrize("name", ["a b", "a,b", "../x", "a\n"])
def test_scenario_name_is_safe_as_a_file_name_and_a_csv_cell(name):
    with pytest.raises(DomainError) as info:
        TransitionScenario(name, 0.0, 0.0, 10.0)
    assert info.value.field == "name"


def test_scenario_names_are_distinct():
    twice = [TransitionScenario("x", 0.0, 0.0, 10.0), TransitionScenario("x", 0.0, 0.0, 20.0)]
    with pytest.raises(DomainError) as info:
        _plan(scenarios=twice)
    assert info.value.field == "scenarios"
    _plan(scenarios=[twice[0], TransitionScenario("x.2", 0.0, 0.0, 20.0)])


def _raises_value_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_value_error_is_raised(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if _raises_value_error(node)]
    assert lines == [], f"{module.name} raises ValueError at lines {lines}"
