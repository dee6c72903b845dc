"""Case-config documents: strict validation and the canonical round trip."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynderiv import (
    FlatPlatePlant,
    IndicialPlant,
    InsufficientSamples,
    MalformedDocument,
    MissingKey,
    OscillationMode,
    QuasiSteadyPlant,
    UnitViolation,
    UnknownKey,
    agard_ct2_preset,
    parse_case_config,
    render_case_config,
    run_sweep,
)


AGARD_K = 0.0811
AGARD_AMP_DEG = 4.59
AGARD_MEAN_DEG = 3.16


def config_doc(**overrides):
    """The reference case config, with the top-level keys in ``overrides`` replaced."""
    doc = {
        "condition": {
            "speed_m_s": 100.0,
            "sound_speed_m_s": None,
            "density_kg_m3": 1.225,
            "chord_m": 0.2299,
            "span_m": 0.6096,
            "area_m2": 0.1238,
        },
        "oscillation": {
            "modes": ["alpha", "q"],
            "mean_incidence_deg": AGARD_MEAN_DEG,
            "amplitude_deg": AGARD_AMP_DEG,
            "reduced_frequency": AGARD_K,
            "cycles": 3,
            "samples_per_cycle": 720,
            "skip_cycles": None,
        },
        "plant": {
            "kind": "quasi-steady",
            "CL0": 0.2, "CL_alpha": 5.0, "CL_q": 4.0, "CL_alphadot": 6.0,
            "CD0": 0.02, "CD_alpha": 0.3, "CD_q": 0.1,
            "Cm0": -0.05, "Cm_alpha": -1.2, "Cm_q": -3.0, "Cm_alphadot": -1.2,
            "induced_drag_factor": None,
            "mach_scaling": False,
        },
        "scenarios": "builtin",
    }
    doc.update(overrides)
    return doc


def doc_text(doc=None):
    return json.dumps(doc if doc is not None else config_doc(), indent=2)


class TestParse:
    def test_minimal_builtin_doc(self):
        plan = parse_case_config(doc_text())
        assert len(plan.scenarios) == 3
        assert plan.scenarios[0].name == "transition-beginning"
        assert plan.speed_basis == "forward"
        assert isinstance(plan.plant, QuasiSteadyPlant)
        assert plan.plant.Cm_q == -3.0

    def test_reference_oscillation_matches_preset(self):
        plan = parse_case_config(doc_text())
        preset = agard_ct2_preset(mode=OscillationMode.ALPHA)
        assert plan.oscillation == preset
        assert plan.modes == (OscillationMode.ALPHA, OscillationMode.Q)

    def test_degrees_at_the_boundary(self):
        plan = parse_case_config(doc_text())
        assert plan.oscillation.mean_incidence == math.radians(3.16)
        assert plan.oscillation.body_amplitude == math.radians(4.59)

    def test_explicit_scenario_list(self):
        doc = config_doc()
        doc["scenarios"] = [
            {"name": "one", "altitude_m": 10.0, "vertical_velocity_m_s": 0.0,
             "forward_velocity_m_s": 20.0},
        ]
        plan = parse_case_config(doc_text(doc))
        assert plan.scenarios[0].name == "one"
        assert plan.scenarios[0].forward_velocity == 20.0

    def test_flat_plate_plant(self):
        doc = config_doc()
        doc["plant"] = {"kind": "flat-plate", "pitch_axis": -0.5, "kernel": "jones"}
        plan = parse_case_config(doc_text(doc))
        assert plan.plant == FlatPlatePlant(pitch_axis=-0.5, kernel="jones")

    def test_indicial_plant(self):
        doc = config_doc()
        doc["plant"] = {"kind": "indicial", "pitch_axis": -0.5,
                        "CD0": 0.02, "CD_alpha": 0.3, "CD_q": 0.0,
                        "induced_drag_factor": 0.05}
        plan = parse_case_config(doc_text(doc))
        assert plan.plant == IndicialPlant(
            pitch_axis=-0.5, CD0=0.02, CD_alpha=0.3, CD_q=0.0, induced_drag_factor=0.05
        )


class TestErrors:
    def test_negative_chord_names_the_key(self):
        doc = config_doc()
        doc["condition"]["chord_m"] = -1.0
        with pytest.raises(UnitViolation, match="chord_m"):
            parse_case_config(doc_text(doc))

    def test_missing_key_named_with_line(self):
        # the missing key is written nowhere, so the error cites its block's line
        nameless = {k: v for k, v in ONE_SCENARIO[0].items() if k != "name"}
        for path, block, drop in (
            ("condition.density_kg_m3", '  "condition": {',
             lambda d: d["condition"].pop("density_kg_m3")),
            ("plant.kind", '  "plant": {', lambda d: d["plant"].pop("kind")),
            ("scenarios[1].name", '    {', lambda d: d.update(scenarios=[*ONE_SCENARIO, nameless])),
        ):
            doc = config_doc()
            drop(doc)
            text = doc_text(doc)
            line = [i for i, row in enumerate(text.splitlines(), start=1) if row == block][-1]
            with pytest.raises(MissingKey) as info:
                parse_case_config(text)
            assert str(info.value) == f"missing required key '{path}' (line {line})"

    def test_unknown_key_rejected(self):
        doc = config_doc()
        doc["condition"]["color"] = "red"
        with pytest.raises(UnknownKey, match="condition.color"):
            parse_case_config(doc_text(doc))

    def test_unknown_top_level_key(self):
        doc = config_doc()
        doc["extra"] = 1
        with pytest.raises(UnknownKey, match="extra"):
            parse_case_config(doc_text(doc))

    def test_error_carries_line_number(self):
        doc = config_doc()
        doc["condition"]["chord_m"] = -1.0
        text = doc_text(doc)
        expected_line = next(
            i for i, line in enumerate(text.splitlines(), start=1) if '"chord_m"' in line
        )
        with pytest.raises(UnitViolation, match=f"line {expected_line}"):
            parse_case_config(text)

    def test_error_in_a_later_scenario_cites_its_own_line(self):
        doc = config_doc()
        doc["scenarios"] = [dict(ONE_SCENARIO[0]), dict(ONE_SCENARIO[0], name="two", altitude_m=-1)]
        text = doc_text(doc)
        first, second = [i for i, row in enumerate(text.splitlines(), start=1)
                         if '"altitude_m"' in row]
        with pytest.raises(UnitViolation) as info:
            parse_case_config(text)
        assert str(info.value) == f"'scenarios[1].altitude_m' must be >= 0, got -1 (line {second})"

    def test_scenario_names_are_distinct(self):
        doc = config_doc()
        doc["scenarios"] = [dict(ONE_SCENARIO[0], name=name) for name in ("a-b", "x", "a-b")]
        text = doc_text(doc)
        line = next(i for i, row in enumerate(text.splitlines(), start=1) if '"scenarios"' in row)
        with pytest.raises(UnitViolation) as info:
            parse_case_config(text)
        assert str(info.value) == (
            f"'scenarios' must not repeat a scenario name: ['a-b'] (line {line})")

    def test_scenario_names_differ_in_more_than_case(self):
        # loops_Climb.csv and loops_climb.csv are one file on case-insensitive filesystems
        doc = config_doc()
        doc["scenarios"] = [dict(ONE_SCENARIO[0], name=name) for name in ("Climb", "x", "climb")]
        text = doc_text(doc)
        line = next(i for i, row in enumerate(text.splitlines(), start=1) if '"scenarios"' in row)
        with pytest.raises(UnitViolation) as info:
            parse_case_config(text)
        assert str(info.value) == (
            f"'scenarios' must not repeat a scenario name: ['climb'] (line {line})")

    def test_malformed_json(self):
        with pytest.raises(MalformedDocument):
            parse_case_config("{not json")

    def test_non_object_top_level(self):
        with pytest.raises(MalformedDocument):
            parse_case_config("[1, 2, 3]")

    def test_supersonic_condition_rejected(self):
        doc = config_doc()
        doc["condition"]["sound_speed_m_s"] = 50.0
        with pytest.raises(UnitViolation, match="Mach"):
            parse_case_config(doc_text(doc))

    @pytest.mark.parametrize("speed_basis, forward, climb", [
        ("forward", 400.0, 0.0),
        ("total", 300.0, 200.0),      # 360 m/s in total
    ])
    def test_supersonic_scenario_rejected_at_parse_time(self, speed_basis, forward, climb):
        doc = config_doc()
        doc["condition"]["sound_speed_m_s"] = 340.0
        doc["speed_basis"] = speed_basis
        doc["scenarios"] = [
            {"name": "slow", "altitude_m": 10.0, "vertical_velocity_m_s": 0.0,
             "forward_velocity_m_s": 50.0},
            {"name": "fast", "altitude_m": 10.0, "vertical_velocity_m_s": climb,
             "forward_velocity_m_s": forward},
        ]
        text = doc_text(doc)
        line = text.splitlines().index('      "forward_velocity_m_s": %r' % forward) + 1
        with pytest.raises(UnitViolation) as info:
            parse_case_config(text)
        message = str(info.value)
        assert message.startswith("'scenarios[1].forward_velocity_m_s' ")
        assert f"{speed_basis} speed" in message and "Mach must be < 1" in message
        assert message.endswith(f"(line {line})")
        if speed_basis == "total":
            doc["speed_basis"] = "forward"        # 300 m/s forward alone is subsonic
            assert parse_case_config(doc_text(doc)).scenarios[1].forward_velocity == 300.0

    def test_supersonic_builtin_scenario_is_named_without_a_line(self):
        doc = config_doc()
        doc["condition"].update(speed_m_s=50.0, sound_speed_m_s=60.0)   # transition-end flies 66
        doc["scenarios"] = "builtin"
        with pytest.raises(UnitViolation) as info:
            parse_case_config(doc_text(doc))
        assert str(info.value) == (
            "'scenarios[2].forward_velocity_m_s' gives a forward speed that must be below "
            "the sound speed (Mach must be < 1), got 66.0 m/s against 60.0 m/s")

    def test_bad_mode_name(self):
        doc = config_doc()
        doc["oscillation"]["modes"] = ["alpha", "roll"]
        with pytest.raises(UnitViolation, match="modes"):
            parse_case_config(doc_text(doc))

    def test_bad_plant_kind(self):
        doc = config_doc()
        doc["plant"] = {"kind": "wind-tunnel"}
        with pytest.raises(UnitViolation, match="plant.kind"):
            parse_case_config(doc_text(doc))

    def test_wrongly_typed_plant_keys_are_reported_in_field_order(self):
        # the quasi-steady fields run CL*, CD*, Cm*: CD0 is reported before Cm0
        doc = config_doc()
        doc["plant"].update(Cm0="low", CD0="high")
        with pytest.raises(UnitViolation, match=r"^'plant\.CD0' must be a finite number \(line"):
            parse_case_config(doc_text(doc))

    def test_string_where_number_expected(self):
        doc = config_doc()
        doc["condition"]["speed_m_s"] = "fast"
        with pytest.raises(UnitViolation, match="speed_m_s"):
            parse_case_config(doc_text(doc))


ONE_SCENARIO = [{"name": "one", "altitude_m": 10.0, "vertical_velocity_m_s": 0.0,
                 "forward_velocity_m_s": 20.0}]

# (config path, bad value as written, plant block or None, words of the broken rule)
RANGE_CASES = [
    ("condition.chord_m", -1, None, "must be > 0"),
    ("condition.speed_m_s", -5.0, None, "must be >= 0"),
    ("condition.speed_m_s", 400.0, None, "Mach must be < 1"),    # sound speed is 340 m/s
    ("condition.sound_speed_m_s", 0, None, "must be > 0"),
    ("oscillation.amplitude_deg", 0, None, "must be > 0"),
    ("oscillation.amplitude_deg", -2.5, None, "must be > 0"),
    ("oscillation.reduced_frequency", 0.0, None, "must be > 0"),
    ("oscillation.cycles", 0, None, "must be an integer >= 1"),
    ("oscillation.samples_per_cycle", 4, None, "must be an integer >= 8"),
    ("oscillation.skip_cycles", -1, None, "must be >= 0"),
    ("oscillation.modes", ["q", "q"], None, "none twice"),
    ("plant.induced_drag_factor", -0.1, {"kind": "quasi-steady"}, "must be >= 0"),
    ("plant.induced_drag_factor", -0.1, {"kind": "indicial"}, "must be >= 0"),
    ("plant.pitch_axis", 5.0, {"kind": "flat-plate"}, "|a| <= 2"),
    ("plant.pitch_axis", -3, {"kind": "indicial"}, "|a| <= 2"),
    ("plant.kernel", "fourier", {"kind": "flat-plate"}, "must be 'theodorsen' or 'jones'"),
    ("scenarios[0].altitude_m", -10.0, None, "must be >= 0"),
    ("scenarios[0].forward_velocity_m_s", -1, None, "must be >= 0"),
    ("scenarios[0].forward_velocity_m_s", 400.0, None, "Mach must be < 1"),
    ("speed_basis", "diagonal", None, "must be 'forward' or 'total'"),
]


def _indicial_default_skip(doc):
    # the indicial plant skips 2 cycles by default, and skip_cycles is not written
    doc["oscillation"].pop("skip_cycles")
    doc["oscillation"]["cycles"] = 2
    doc["plant"] = {"kind": "indicial"}


# (document edit, error type, message before its line, start of the line the error cites)
LINE_CASES = [
    (lambda d: d.update(condition=[1]), MalformedDocument,
     "'condition' must be an object", '"condition": ['),
    (lambda d: d.update(oscillation="fast"), MalformedDocument,
     "'oscillation' must be an object", '"oscillation": "fast"'),
    (lambda d: d.update(scenarios=[*ONE_SCENARIO, 7]), MalformedDocument,
     "'scenarios[1]' must be an object", "7"),
    (lambda d: d.update(plant=None), MalformedDocument,
     "'plant' must be an object", '"plant": null'),
    (lambda d: d["plant"].update(kind=3), UnitViolation,
     "'plant.kind' must be 'quasi-steady', 'flat-plate' or 'indicial', got 3", '"kind": 3'),
    (lambda d: d.update(scenarios={}), UnitViolation,
     "'scenarios' must be \"builtin\" or a non-empty list", '"scenarios": {}'),
    (lambda d: d["oscillation"].update(skip_cycles=3), InsufficientSamples,
     "oscillation.skip_cycles is 3 but oscillation.cycles is 3: no cycle is left to fit",
     '"skip_cycles": 3'),
    (_indicial_default_skip, InsufficientSamples,
     "oscillation.skip_cycles is 2 (the plant's default) but oscillation.cycles is 2: "
     "no cycle is left to fit", '"cycles": 2'),
]


@pytest.mark.parametrize("edit, error, message, written", LINE_CASES,
                         ids=["condition", "oscillation", "scenarios-entry", "plant", "plant-kind",
                              "scenarios", "skip-written", "skip-default"])
def test_error_ends_with_the_line_its_key_is_written_on(edit, error, message, written):
    doc = config_doc()
    edit(doc)
    text = doc_text(doc)
    (line,) = [i for i, row in enumerate(text.splitlines(), start=1)
               if row.strip().startswith(written)]
    with pytest.raises(error) as info:
        parse_case_config(text)
    assert str(info.value) == f"{message} (line {line})"


class TestRangeRules:
    """Every range rule a config can reach is reported under its key, line and value."""

    @pytest.mark.parametrize(
        "path, value, plant, rule", RANGE_CASES,
        ids=[f"{plant['kind'] + ':' if plant else ''}{path}={value!r}"
             for path, value, plant, _ in RANGE_CASES],
    )
    def test_bad_value_names_key_line_and_value_as_written(self, path, value, plant, rule):
        doc = config_doc()
        doc["condition"]["sound_speed_m_s"] = 340.0
        if plant is not None:
            doc["plant"] = dict(plant)
        if path.startswith("scenarios"):
            doc["scenarios"] = json.loads(json.dumps(ONE_SCENARIO))
        *blocks, key = path.replace("[0]", ".0").split(".")
        target = doc
        for block in blocks:
            target = target[int(block) if block.isdigit() else block]
        target[key] = value
        text = doc_text(doc)
        line = next(i for i, row in enumerate(text.splitlines(), start=1) if f'"{key}"' in row)
        with pytest.raises(UnitViolation) as info:
            parse_case_config(text)
        message = str(info.value)
        assert message.startswith(f"'{path}' ")
        assert f"(line {line})" in message
        assert f"got {value!r}" in message      # degrees as written, never radians
        assert rule in message


class TestRoundTrip:
    def test_parse_render_identity(self):
        plan = parse_case_config(doc_text())
        assert parse_case_config(render_case_config(plan)) == plan

    def test_render_is_byte_stable(self):
        plan = parse_case_config(doc_text())
        text = render_case_config(plan)
        assert render_case_config(parse_case_config(text)) == text

    @pytest.mark.parametrize("kind", ["flat-plate", "indicial"])
    def test_other_plants_round_trip(self, kind):
        doc = config_doc()
        if kind == "flat-plate":
            doc["plant"] = {"kind": kind, "pitch_axis": 0.25, "kernel": "theodorsen"}
        else:
            doc["plant"] = {"kind": kind, "pitch_axis": -0.3, "CD0": 0.01,
                            "CD_alpha": 0.0, "CD_q": 0.0, "induced_drag_factor": None}
        plan = parse_case_config(doc_text(doc))
        assert parse_case_config(render_case_config(plan)) == plan

    @given(
        mean_deg=st.floats(-20, 20, allow_nan=False),
        amp_deg=st.floats(0.01, 30, allow_nan=False),
        k=st.floats(0.001, 1.0, allow_nan=False),
        speed=st.floats(1.0, 300.0, allow_nan=False),
        slope=st.floats(-20, 20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity_property(self, mean_deg, amp_deg, k, speed, slope):
        doc = config_doc()
        doc["condition"]["speed_m_s"] = speed
        doc["oscillation"]["mean_incidence_deg"] = mean_deg
        doc["oscillation"]["amplitude_deg"] = amp_deg
        doc["oscillation"]["reduced_frequency"] = k
        doc["plant"]["CL_alpha"] = slope
        plan = parse_case_config(doc_text(doc))
        assert parse_case_config(render_case_config(plan)) == plan

    @given(mean=st.floats(-1.5, 1.5), amplitude=st.floats(1e-300, 1.5))
    @example(mean=0.09959158233129625, amplitude=0.08)    # no degree value gives this mean
    @settings(max_examples=200, deadline=None)
    def test_free_radians_parse_back_within_one_ulp(self, mean, amplitude):
        # radians that came from no degree value render to the nearest degrees there are
        plan = parse_case_config(doc_text())
        oscillation = replace(plan.oscillation, mean_incidence=mean, body_amplitude=amplitude)
        plan = replace(plan, oscillation=oscillation)
        back = parse_case_config(render_case_config(plan))
        for x, y in ((mean, back.oscillation.mean_incidence),
                     (amplitude, back.oscillation.body_amplitude)):
            assert y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
        assert replace(back, oscillation=oscillation) == plan

    def test_rendered_plan_runs(self, condition):
        # a rendered config is a complete, runnable case description
        plan = parse_case_config(render_case_config(parse_case_config(doc_text())))
        report = run_sweep(plan)
        assert len(report.results) == 3

