"""Tests for the declarative scenario spec and its JSON round-trip."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from strategies import scenario_specs

from repro.cli import main
from repro.scenarios.patterns import (
    ConstantPattern,
    DiurnalPattern,
    HotspotPattern,
    RampPattern,
)
from repro.scenarios.registry import all_scenarios, get_scenario
from repro.scenarios.spec import NocChannel, ScenarioSpec


class TestValidation:
    def test_minimal_spec(self):
        spec = ScenarioSpec(name="x", configuration="A")
        assert spec.mode == "steady"
        assert spec.load is None

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ScenarioSpec(name="x", configuration="A", mode="warp")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="", configuration="A")

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="epoch"):
            ScenarioSpec(name="x", configuration="A", num_epochs=0)

    def test_rejects_spatial_ambient(self):
        with pytest.raises(ValueError, match="chip-global"):
            ScenarioSpec(
                name="x",
                configuration="A",
                ambient_celsius=HotspotPattern(center=(0, 0), peak=2.0),
            )

    def test_rejects_spatial_snr(self):
        with pytest.raises(ValueError, match="chip-global"):
            ScenarioSpec(
                name="x",
                configuration="A",
                snr_db=HotspotPattern(center=(0, 0), peak=2.0),
            )

    def test_rejects_non_pattern_channel(self):
        with pytest.raises(TypeError):
            ScenarioSpec(name="x", configuration="A", load=1.5)

    @pytest.mark.parametrize("configuration", [5, "Z", ["A"], None])
    def test_rejects_unknown_or_wrong_typed_configuration(self, configuration):
        with pytest.raises(ValueError, match="unknown configuration"):
            ScenarioSpec(name="x", configuration=configuration)

    @pytest.mark.parametrize("scheme", [["a"], 5, "checkerboard", "threshold-static"])
    def test_rejects_unknown_or_wrong_typed_scheme(self, scheme):
        with pytest.raises(ValueError, match="unknown scheme"):
            ScenarioSpec(name="x", configuration="A", scheme=scheme)

    def test_chip_names_are_case_insensitive(self):
        assert ScenarioSpec(name="x", configuration="e").configuration == "e"


class TestJsonRoundTrip:
    def test_full_spec_round_trips(self):
        spec = ScenarioSpec(
            name="everything",
            configuration="C",
            scheme="rotation",
            period_us=437.2,
            mode="transient",
            num_epochs=17,
            settle_epochs=8,
            thermal_method="spectral",
            transient_steps_per_epoch=4,
            include_migration_energy=False,
            policy_params={"skip_first": False},
            feedback_stride=4,
            feedback_predictor="previous",
            load=ConstantPattern(1.1) * HotspotPattern(center=(2, 2), peak=1.5),
            ambient_celsius=RampPattern(start=0.0, end=5.0),
            snr_db=DiurnalPattern(mean=2.5, amplitude=0.5, period_epochs=8.0),
            description="kitchen sink",
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec

    def test_json_is_plain_data(self):
        payload = json.loads(get_scenario("hotspot-attack").to_json())
        assert payload["configuration"] == "E"
        assert payload["load"]["kind"] == "product"

    def test_none_channels_round_trip(self):
        spec = ScenarioSpec(name="bare", configuration="B")
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.load is None and rebuilt.snr_db is None

    def test_unknown_fields_rejected(self):
        payload = ScenarioSpec(name="x", configuration="A").to_dict()
        payload["frobnicate"] = True
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"name": "y"}, "missing scenario fields: \\['configuration'\\]"),
            ({}, "missing scenario fields: \\['name', 'configuration'\\]"),
            ([], "a scenario must be a JSON object, got \\[\\]"),
            (5, "a scenario must be a JSON object, got 5"),
            (
                {"name": "y", "configuration": "A", "noc": [1]},
                "a NoC channel must be a JSON object",
            ),
        ],
        ids=["no-configuration", "empty", "list", "number", "noc-list"],
    )
    def test_non_object_or_missing_field_is_a_value_error(self, payload, message):
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_dict(payload)

    def test_policy_params_round_trip(self):
        spec = ScenarioSpec(
            name="x", configuration="B", scheme="threshold-xy-shift",
            policy_params={"trigger_celsius": 88.5},
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.policy_params == {"trigger_celsius": 88.5}
        assert rebuilt == spec

    def test_empty_policy_params_round_trip(self):
        # {} must stay {} through JSON, not collapse to null.
        spec = ScenarioSpec(name="x", configuration="A", policy_params={})
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.policy_params == {}
        assert rebuilt == spec


class TestFeedbackFields:
    def test_defaults(self):
        spec = ScenarioSpec(name="x", configuration="A")
        assert spec.feedback_stride == 1
        assert spec.feedback_predictor == "hold"
        assert spec.policy_params is None

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="feedback_stride"):
            ScenarioSpec(name="x", configuration="A", feedback_stride=0)

    def test_rejects_bad_predictor(self):
        with pytest.raises(ValueError, match="feedback_predictor"):
            ScenarioSpec(name="x", configuration="A", feedback_predictor="oracle")

    def test_rejects_non_dict_policy_params(self):
        with pytest.raises(ValueError, match="policy_params"):
            ScenarioSpec(name="x", configuration="A", policy_params=[("a", 1)])

    def test_rejects_policy_params_that_set_the_period(self):
        with pytest.raises(ValueError, match="period_us"):
            ScenarioSpec(name="x", configuration="A", policy_params={"period_us": 5})


class TestRegistry:
    def test_at_least_eight_scenarios(self):
        assert len(all_scenarios()) >= 8

    def test_both_modes_present(self):
        modes = {spec.mode for spec in all_scenarios()}
        assert modes == {"steady", "transient"}

    def test_every_scenario_round_trips(self):
        for spec in all_scenarios():
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=100, deadline=None)
    @given(spec=scenario_specs())
    def test_generated_specs_round_trip_through_canonical_json(self, spec):
        """Every drawn spec, patterns and policy parameters included, comes
        back equal from its canonical JSON, through the typed pattern
        constructors, and writes the same canonical JSON again."""
        text = spec.canonical_json()
        rebuilt = ScenarioSpec.from_dict(json.loads(text))
        assert rebuilt == spec
        assert rebuilt.canonical_json() == text

    def test_get_scenario_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_names_unique(self):
        names = [spec.name for spec in all_scenarios()]
        assert len(set(names)) == len(names)


def _string_fields(cls):
    return [field.name for field in dataclasses.fields(cls) if field.type == "str"]


#: JSON values that are not strings.
NOT_STRINGS = st.sampled_from([5, 2.5, True, None, [], {}, [["a", 1]]])


@st.composite
def string_field_edits(draw):
    """A registry spec with one string field (top level or in its NoC
    channel) replaced by a value of another JSON type."""
    spec = draw(st.sampled_from(all_scenarios()))
    payload = spec.to_dict()
    # A non-string chip or scheme is refused as an unknown one (see
    # TestValidation); every other string field by its type.
    targets = [
        (payload, name)
        for name in _string_fields(ScenarioSpec)
        if name not in ("configuration", "scheme")
    ]
    if payload["noc"] is not None:
        targets += [(payload["noc"], name) for name in _string_fields(NocChannel)]
    owner, name = draw(st.sampled_from(targets))
    owner[name] = draw(NOT_STRINGS)
    return payload, name


def run_spec(payload):
    """``scenario run --spec`` on ``payload``: (exit code, stdout, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "spec.json"
        path.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["scenario", "run", "--spec", str(path)])
    return code, out.getvalue(), err.getvalue().splitlines()


#: Wrong-typed string fields that ran with exit 0, or crashed with an
#: ``unhashable type`` traceback from the NoC model's cache key, before
#: ``str`` fields were type-checked: (scenario, field path, value).
STRING_FIELD_CASES = [
    ("steady-baseline", ("name",), 5),
    ("steady-baseline", ("name",), True),
    ("steady-baseline", ("name",), [["a", 1]]),
    ("steady-baseline", ("description",), 5),
    ("steady-baseline", ("description",), True),
    ("steady-baseline", ("description",), []),
    ("steady-baseline", ("description",), {}),
    ("steady-baseline", ("description",), None),
    ("noc-congestion-burst", ("noc", "routing"), []),
    ("noc-congestion-burst", ("noc", "routing"), {}),
    ("noc-congestion-burst", ("noc", "routing"), [["a", 1]]),
]


class TestStringFields:
    @settings(max_examples=60, deadline=None)
    @given(edit=string_field_edits())
    def test_wrong_typed_string_field_is_one_line_error(self, edit):
        """``scenario run --spec`` refuses the spec in one stderr line naming
        the field, exit 1, nothing on stdout."""
        payload, name = edit
        code, out, lines = run_spec(payload)
        assert code == 1
        assert out == ""
        assert len(lines) == 1
        assert lines[0].startswith(f"{name} must be a string, got ")

    @pytest.mark.parametrize(
        "scenario,path,value",
        STRING_FIELD_CASES,
        ids=[f"{c[0]}-{'.'.join(c[1])}-{json.dumps(c[2])}" for c in STRING_FIELD_CASES],
    )
    def test_former_escapes_are_refused(self, scenario, path, value):
        payload = get_scenario(scenario).to_dict()
        owner = payload
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        code, out, lines = run_spec(payload)
        assert (code, out) == (1, "")
        assert lines == [f"{path[-1]} must be a string, got {value!r}"]
