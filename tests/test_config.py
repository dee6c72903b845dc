"""Case-config documents: strict validation and the canonical round trip."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynderiv import (
    FlatPlatePlant,
    IndicialPlant,
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
from dynderiv import config


def base_doc():
    return {
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
            "mean_incidence_deg": 3.16,
            "amplitude_deg": 4.59,
            "reduced_frequency": 0.0811,
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


def doc_text(doc=None):
    return json.dumps(doc if doc is not None else base_doc(), indent=2)


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
        doc = base_doc()
        doc["scenarios"] = [
            {"name": "one", "altitude_m": 10.0, "vertical_velocity_m_s": 0.0,
             "forward_velocity_m_s": 20.0},
        ]
        plan = parse_case_config(doc_text(doc))
        assert plan.scenarios[0].name == "one"
        assert plan.scenarios[0].forward_velocity == 20.0

    def test_flat_plate_plant(self):
        doc = base_doc()
        doc["plant"] = {"kind": "flat-plate", "pitch_axis": -0.5, "kernel": "jones"}
        plan = parse_case_config(doc_text(doc))
        assert plan.plant == FlatPlatePlant(pitch_axis=-0.5, kernel="jones")

    def test_indicial_plant(self):
        doc = base_doc()
        doc["plant"] = {"kind": "indicial", "pitch_axis": -0.5,
                        "CD0": 0.02, "CD_alpha": 0.3, "CD_q": 0.0,
                        "induced_drag_factor": 0.05}
        plan = parse_case_config(doc_text(doc))
        assert plan.plant == IndicialPlant(
            pitch_axis=-0.5, CD0=0.02, CD_alpha=0.3, CD_q=0.0, induced_drag_factor=0.05
        )


class TestErrors:
    def test_negative_chord_names_the_key(self):
        doc = base_doc()
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
            doc = base_doc()
            drop(doc)
            text = doc_text(doc)
            line = [i for i, row in enumerate(text.splitlines(), start=1) if row == block][-1]
            with pytest.raises(MissingKey) as info:
                parse_case_config(text)
            assert str(info.value) == f"missing required key '{path}' (line {line})"

    def test_unknown_key_rejected(self):
        doc = base_doc()
        doc["condition"]["color"] = "red"
        with pytest.raises(UnknownKey, match="condition.color"):
            parse_case_config(doc_text(doc))

    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["extra"] = 1
        with pytest.raises(UnknownKey, match="extra"):
            parse_case_config(doc_text(doc))

    def test_error_carries_line_number(self):
        doc = base_doc()
        doc["condition"]["chord_m"] = -1.0
        text = doc_text(doc)
        expected_line = next(
            i for i, line in enumerate(text.splitlines(), start=1) if '"chord_m"' in line
        )
        with pytest.raises(UnitViolation, match=f"line {expected_line}"):
            parse_case_config(text)

    def test_error_in_a_later_scenario_cites_its_own_line(self):
        doc = base_doc()
        doc["scenarios"] = [dict(ONE_SCENARIO[0]), dict(ONE_SCENARIO[0], name="two", altitude_m=-1)]
        text = doc_text(doc)
        first, second = [i for i, row in enumerate(text.splitlines(), start=1)
                         if '"altitude_m"' in row]
        with pytest.raises(UnitViolation) as info:
            parse_case_config(text)
        assert str(info.value) == f"'scenarios[1].altitude_m' must be >= 0, got -1 (line {second})"

    def test_scenario_names_are_distinct(self):
        doc = base_doc()
        doc["scenarios"] = [dict(ONE_SCENARIO[0], name=name) for name in ("a-b", "x", "a-b")]
        text = doc_text(doc)
        line = next(i for i, row in enumerate(text.splitlines(), start=1) if '"scenarios"' in row)
        with pytest.raises(UnitViolation) as info:
            parse_case_config(text)
        assert str(info.value) == (
            f"'scenarios' must not repeat a scenario name: ['a-b'] (line {line})")

    def test_scenario_names_differ_in_more_than_case(self):
        # loops_Climb.csv and loops_climb.csv are one file on case-insensitive filesystems
        doc = base_doc()
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
        doc = base_doc()
        doc["condition"]["sound_speed_m_s"] = 50.0
        with pytest.raises(UnitViolation, match="Mach"):
            parse_case_config(doc_text(doc))

    @pytest.mark.parametrize("speed_basis, forward, climb", [
        ("forward", 400.0, 0.0),
        ("total", 300.0, 200.0),      # 360 m/s in total
    ])
    def test_supersonic_scenario_rejected_at_parse_time(self, speed_basis, forward, climb):
        doc = base_doc()
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
        doc = base_doc()
        doc["condition"].update(speed_m_s=50.0, sound_speed_m_s=60.0)   # transition-end flies 66
        doc["scenarios"] = "builtin"
        with pytest.raises(UnitViolation) as info:
            parse_case_config(doc_text(doc))
        assert str(info.value) == (
            "'scenarios[2].forward_velocity_m_s' gives a forward speed that must be below "
            "the sound speed (Mach must be < 1), got 66.0 m/s against 60.0 m/s")

    def test_bad_mode_name(self):
        doc = base_doc()
        doc["oscillation"]["modes"] = ["alpha", "roll"]
        with pytest.raises(UnitViolation, match="modes"):
            parse_case_config(doc_text(doc))

    def test_bad_plant_kind(self):
        doc = base_doc()
        doc["plant"] = {"kind": "wind-tunnel"}
        with pytest.raises(UnitViolation, match="plant.kind"):
            parse_case_config(doc_text(doc))

    def test_wrongly_typed_plant_keys_are_reported_in_field_order(self):
        # the quasi-steady fields run CL*, CD*, Cm*: CD0 is reported before Cm0
        doc = base_doc()
        doc["plant"].update(Cm0="low", CD0="high")
        with pytest.raises(UnitViolation, match=r"^'plant\.CD0' must be a finite number \(line"):
            parse_case_config(doc_text(doc))

    def test_string_where_number_expected(self):
        doc = base_doc()
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
    ("plant.kernel", "fourier", {"kind": "flat-plate"}, "must be one of"),
    ("scenarios[0].altitude_m", -10.0, None, "must be >= 0"),
    ("scenarios[0].forward_velocity_m_s", -1, None, "must be >= 0"),
    ("scenarios[0].forward_velocity_m_s", 400.0, None, "Mach must be < 1"),
    ("speed_basis", "diagonal", None, "must be 'forward' or 'total'"),
]


class TestRangeRules:
    """Every range rule a config can reach is reported under its key, line and value."""

    @pytest.mark.parametrize(
        "path, value, plant, rule", RANGE_CASES,
        ids=[f"{plant['kind'] + ':' if plant else ''}{path}={value!r}"
             for path, value, plant, _ in RANGE_CASES],
    )
    def test_bad_value_names_key_line_and_value_as_written(self, path, value, plant, rule):
        doc = base_doc()
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
        doc = base_doc()
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
        doc = base_doc()
        doc["condition"]["speed_m_s"] = speed
        doc["oscillation"]["mean_incidence_deg"] = mean_deg
        doc["oscillation"]["amplitude_deg"] = amp_deg
        doc["oscillation"]["reduced_frequency"] = k
        doc["plant"]["CL_alpha"] = slope
        plan = parse_case_config(doc_text(doc))
        assert parse_case_config(render_case_config(plan)) == plan

    def test_rendered_plan_runs(self, condition):
        # a rendered config is a complete, runnable case description
        plan = parse_case_config(render_case_config(parse_case_config(doc_text())))
        report = run_sweep(plan)
        assert len(report.results) == 3


def _schema_blocks():
    """(block name, schema object, config key table) for every block of a case config."""
    from importlib import resources

    schema = json.loads(
        resources.files("dynderiv").joinpath("schema/case_config.schema.json").read_text()
    )
    props = schema["properties"]
    plants = {p["properties"]["kind"]["const"]: p for p in props["plant"]["oneOf"]}
    assert set(plants) == set(config._PLANTS)
    kind = {"kind": config._Key("kind", "string")}      # read before the plant's own table
    return [
        ("top level", schema, config._PLAN),
        ("condition", props["condition"], config._CONDITION),
        ("oscillation", props["oscillation"], config._OSCILLATION),
        ("scenarios[]", props["scenarios"]["oneOf"][1]["items"], config._SCENARIO),
    ] + [(f"plant {name}", plants[name], {**kind, **table})
         for name, (table, _) in config._PLANTS.items()]


SCHEMA_BLOCKS = _schema_blocks()


class TestSchemaKeys:
    """The shipped schema and the config tables name the same keys, block by block."""

    @pytest.mark.parametrize("name, block, table", SCHEMA_BLOCKS,
                             ids=[name for name, _, _ in SCHEMA_BLOCKS])
    def test_properties_and_required_match_the_table(self, name, block, table):
        assert set(block["properties"]) == set(table)
        assert set(block.get("required", [])) == {k for k, spec in table.items() if spec.required}

    def test_modes_enum_is_oscillation_mode(self):
        (oscillation,) = [block for name, block, _ in SCHEMA_BLOCKS if name == "oscillation"]
        assert oscillation["properties"]["modes"]["items"]["enum"] == \
            [m.value for m in OscillationMode]


class TestShippedSchema:
    @pytest.fixture
    def schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        with resources.files("dynderiv").joinpath("schema/case_config.schema.json").open() as fh:
            return jsonschema, json.load(fh)

    def test_rendered_config_satisfies_schema(self, schema):
        jsonschema, doc_schema = schema
        plan = parse_case_config(doc_text())
        jsonschema.validate(json.loads(render_case_config(plan)), doc_schema)

    def test_schema_rejects_negative_chord(self, schema):
        jsonschema, doc_schema = schema
        doc = base_doc()
        doc["condition"]["chord_m"] = -1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, doc_schema)

    def test_schema_rejects_unsafe_scenario_names(self, schema):
        jsonschema, doc_schema = schema
        doc = base_doc()
        doc["scenarios"] = [dict(ONE_SCENARIO[0], name="a,b")]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, doc_schema)

    def test_schema_rejects_unknown_keys(self, schema):
        jsonschema, doc_schema = schema
        doc = base_doc()
        doc["condition"]["color"] = "red"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, doc_schema)
