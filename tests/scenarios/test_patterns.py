"""Tests for the scenario pattern catalog: shapes, values, composition."""

import dataclasses

import numpy as np
import pytest

from repro.noc import MeshTopology
from repro.scenarios import get_scenario, patterns
from repro.scenarios.patterns import (
    BurstPattern,
    ConstantPattern,
    DiurnalPattern,
    DutyCyclePattern,
    FaultPattern,
    HotspotPattern,
    ProductPattern,
    RampPattern,
    StepPattern,
    SumPattern,
    WallClockPattern,
    pattern_from_dict,
)
from repro.scenarios.spec import ScenarioSpec

MESH = MeshTopology(4, 4)


class TestTemporalPatterns:
    def test_constant(self):
        values = ConstantPattern(1.5).evaluate(6)
        assert values.shape == (6,)
        assert np.all(values == 1.5)

    def test_step(self):
        values = StepPattern(before=1.0, after=2.0, step_epoch=3).evaluate(6)
        assert values.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_ramp_holds_outside_window(self):
        values = RampPattern(start=0.0, end=1.0, start_epoch=2, end_epoch=4).evaluate(7)
        assert values.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]

    def test_ramp_defaults_to_whole_horizon(self):
        values = RampPattern(start=1.0, end=3.0).evaluate(5)
        assert values.tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_ramp_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            RampPattern(start=0.0, end=1.0, start_epoch=5, end_epoch=5)

    def test_ramp_start_beyond_horizon_holds_start_value(self):
        """A defaulted window starting past the horizon never ramps."""
        values = RampPattern(start=0.5, end=2.0, start_epoch=10).evaluate(5)
        assert values.tolist() == [0.5] * 5

    def test_ramp_start_at_final_epoch_degenerates_to_step(self):
        values = RampPattern(start=0.0, end=1.0, start_epoch=4).evaluate(6)
        assert np.all(np.isfinite(values))
        assert values.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    def test_single_burst(self):
        values = BurstPattern(base=1.0, peak=2.0, start_epoch=2, length=2).evaluate(6)
        assert values.tolist() == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]

    def test_recurring_burst(self):
        values = BurstPattern(
            base=0.0, peak=1.0, start_epoch=1, length=1, every=3
        ).evaluate(7)
        assert values.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]

    def test_burst_recurrence_shorter_than_length_rejected(self):
        with pytest.raises(ValueError):
            BurstPattern(base=1.0, peak=2.0, start_epoch=0, length=4, every=2)

    def test_diurnal_period_and_mean(self):
        pattern = DiurnalPattern(mean=1.0, amplitude=0.5, period_epochs=8.0)
        values = pattern.evaluate(16)
        assert values[0] == pytest.approx(1.0)
        assert values[2] == pytest.approx(1.5)
        assert values[6] == pytest.approx(0.5)
        assert values[8] == pytest.approx(values[0])
        assert float(values.mean()) == pytest.approx(1.0)

    def test_duty_cycle(self):
        values = DutyCyclePattern(
            on_value=1.0, off_value=0.2, on_epochs=2, off_epochs=1
        ).evaluate(7)
        assert values.tolist() == [1.0, 1.0, 0.2, 1.0, 1.0, 0.2, 1.0]

    def test_duty_cycle_holds_on_before_start(self):
        values = DutyCyclePattern(
            on_value=1.0, off_value=0.2, on_epochs=1, off_epochs=1, start_epoch=3
        ).evaluate(7)
        assert values.tolist() == [1.0, 1.0, 1.0, 1.0, 0.2, 1.0, 0.2]


class TestSpatialPatterns:
    def test_hotspot_shape_and_peak(self):
        pattern = HotspotPattern(center=(1, 2), peak=2.0, sigma=0.8)
        matrix = pattern.evaluate(5, MESH)
        assert matrix.shape == (5, MESH.num_nodes)
        assert matrix[0, MESH.node_id((1, 2))] == pytest.approx(2.0)
        # Far corner stays near the background.
        assert matrix[0, MESH.node_id((3, 0))] == pytest.approx(1.0, abs=1e-2)
        # Constant over epochs.
        assert np.array_equal(matrix[0], matrix[-1])

    def test_hotspot_requires_topology(self):
        with pytest.raises(ValueError, match="spatial"):
            HotspotPattern(center=(1, 1), peak=2.0).evaluate(5)

    def test_hotspot_outside_mesh_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            HotspotPattern(center=(9, 9), peak=2.0).evaluate(5, MESH)

    def test_fault_window(self):
        pattern = FaultPattern(units=((0, 0),), level=0.25, start_epoch=2, end_epoch=4)
        matrix = pattern.evaluate(6, MESH)
        column = matrix[:, MESH.node_id((0, 0))]
        assert column.tolist() == [1.0, 1.0, 0.25, 0.25, 1.0, 1.0]
        # Other units untouched.
        untouched = np.delete(matrix, MESH.node_id((0, 0)), axis=1)
        assert np.all(untouched == 1.0)

    def test_fault_persists_without_end(self):
        matrix = FaultPattern(units=((1, 1),), start_epoch=3).evaluate(6, MESH)
        assert matrix[5, MESH.node_id((1, 1))] == 0.0

    def test_fault_needs_units(self):
        with pytest.raises(ValueError):
            FaultPattern(units=())


class TestComposition:
    def test_sum_of_temporals(self):
        pattern = ConstantPattern(1.0) + DiurnalPattern(
            mean=0.0, amplitude=0.5, period_epochs=8.0
        )
        assert isinstance(pattern, SumPattern)
        values = pattern.evaluate(8)
        assert values.shape == (8,)
        assert values[2] == pytest.approx(1.5)

    def test_product_broadcasts_temporal_over_spatial(self):
        pattern = ConstantPattern(2.0) * HotspotPattern(center=(0, 0), peak=1.5)
        matrix = pattern.evaluate(4, MESH)
        assert matrix.shape == (4, MESH.num_nodes)
        assert matrix[0, MESH.node_id((0, 0))] == pytest.approx(3.0)

    def test_operators_flatten(self):
        pattern = ConstantPattern(1.0) + ConstantPattern(2.0) + ConstantPattern(3.0)
        assert len(pattern.terms) == 3
        assert np.all(pattern.evaluate(3) == 6.0)

    def test_is_spatial_propagates(self):
        spatial = ConstantPattern(1.0) * FaultPattern(units=((0, 0),))
        temporal = ConstantPattern(1.0) * ConstantPattern(2.0)
        assert spatial.is_spatial
        assert not temporal.is_spatial

    def test_empty_combinators_rejected(self):
        with pytest.raises(ValueError):
            SumPattern(terms=())
        with pytest.raises(ValueError):
            ProductPattern(factors=())


class TestSerialization:
    CATALOG = [
        ConstantPattern(1.25),
        StepPattern(before=1.0, after=0.5, step_epoch=7),
        RampPattern(start=0.5, end=1.5, start_epoch=2, end_epoch=9),
        BurstPattern(base=1.0, peak=1.8, start_epoch=3, length=2, every=6),
        DiurnalPattern(mean=1.0, amplitude=0.4, period_epochs=12.0, phase_epochs=3.0),
        DutyCyclePattern(on_value=1.0, off_value=0.3, on_epochs=4, off_epochs=2),
        HotspotPattern(center=(2, 1), peak=1.9, sigma=1.2, background=0.9),
        FaultPattern(units=((0, 1), (3, 3)), level=0.1, start_epoch=5, end_epoch=9),
        ConstantPattern(2.0) + DiurnalPattern(mean=0.0, amplitude=0.2, period_epochs=6.0),
        ConstantPattern(1.1) * HotspotPattern(center=(1, 1), peak=1.4),
    ]

    @pytest.mark.parametrize("pattern", CATALOG, ids=lambda p: p.kind)
    def test_round_trip(self, pattern):
        rebuilt = pattern_from_dict(pattern.to_dict())
        assert rebuilt == pattern
        expected = pattern.evaluate(9, MESH)
        assert np.array_equal(rebuilt.evaluate(9, MESH), expected)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern kind"):
            pattern_from_dict({"kind": "frobnicate"})

    def test_payload_must_carry_kind(self):
        with pytest.raises(ValueError, match="kind"):
            pattern_from_dict({"value": 1.0})


#: One pattern of every kind, for the per-field type checks below.
ONE_PER_KIND = [
    *TestSerialization.CATALOG[:8],
    SumPattern(terms=(ConstantPattern(1.0),)),
    ProductPattern(factors=(ConstantPattern(1.0),)),
    WallClockPattern(inner=ConstantPattern(1.0), inner_step_s=0.5, epoch_duration_s=1e-4),
]

NUMBER_KINDS = {"int": "integer", "Optional[int]": "integer"}
NUMBER_KINDS.update({"float": "real", "Optional[float]": "real"})


def _number_fields():
    """``(pattern, field, its kind)`` for every int and float field of
    every pattern kind."""
    return [
        (pattern, field.name, NUMBER_KINDS[field.type])
        for pattern in ONE_PER_KIND
        for field in dataclasses.fields(pattern)
        if field.type in NUMBER_KINDS
    ]


def test_one_pattern_per_kind():
    assert sorted(pattern.kind for pattern in ONE_PER_KIND) == sorted(
        patterns._PATTERN_KINDS
    )


@pytest.mark.parametrize("bad", [True, "1", [1]], ids=["true", "string", "list"])
@pytest.mark.parametrize(
    "pattern, name, kind",
    _number_fields(),
    ids=[f"{pattern.kind}.{name}" for pattern, name, _ in _number_fields()],
)
def test_number_field_of_the_wrong_json_type_is_refused(pattern, name, kind, bad):
    """A pattern built from JSON refuses a boolean, a string or a list where
    a number goes (before the pattern's own checks could trip over it)."""
    payload = {**pattern.to_dict(), name: bad}
    with pytest.raises(ValueError, match=f"{name} must be an? {kind}"):
        pattern_from_dict(payload)


@pytest.mark.parametrize(
    "pattern, name",
    [(pattern, name) for pattern, name, kind in _number_fields() if kind == "integer"],
    ids=[f"{p.kind}.{n}" for p, n, k in _number_fields() if k == "integer"],
)
def test_integer_field_refuses_a_float(pattern, name):
    payload = {**pattern.to_dict(), name: 4.5}
    with pytest.raises(ValueError, match=f"{name} must be an integer, got 4.5"):
        pattern_from_dict(payload)


#: (scenario, path to the pattern, field, JSON value, kind of the pattern):
#: nested pattern and coordinate fields of registry specs, edited one at a
#: time to a value of the wrong JSON shape.
NESTED_EDITS = [
    ("hotspot-attack", ("load",), "factors", 5, "product"),
    ("hotspot-attack", ("load", "factors", 0), "center", 5, "hotspot"),
    ("hotspot-attack", ("load", "factors", 0), "center", ["a", 1], "hotspot"),
    ("hotspot-attack", ("load", "factors", 0), "center", [2.5, 2], "hotspot"),
    ("hotspot-attack", ("load", "factors", 0), "center", [True, 2], "hotspot"),
    ("pe-fault-transient", ("load",), "units", 5, "fault"),
    ("pe-fault-transient", ("load",), "units", [["a", 1]], "fault"),
    ("pe-fault-transient", ("load",), "units", [[1, 2.0]], "fault"),
    ("pe-fault-transient", ("load",), "units", [[1, True], [2, 2]], "fault"),
    ("pe-fault-transient", ("load",), "units", [[1]], "fault"),
    ("ambient-swing-transient", ("ambient_celsius",), "terms", 5, "sum"),
]


@pytest.mark.parametrize(
    "scenario, path, name, bad, kind",
    NESTED_EDITS,
    ids=[f"{s}.{'.'.join(map(str, p))}.{n}={b!r}" for s, p, n, b, _ in NESTED_EDITS],
)
def test_nested_and_coordinate_fields_take_their_json_shape(scenario, path, name, bad, kind):
    """A list of pattern objects, or of two integers per coordinate: any
    other shape is one ``ValueError`` naming the pattern kind and the field,
    before the pattern could trip over it."""
    payload = get_scenario(scenario).to_dict()
    target = payload
    for key in path:
        target = target[key]
    target[name] = bad
    with pytest.raises(ValueError, match=rf"^{kind} pattern: {name} must be a list of "):
        ScenarioSpec.from_dict(payload)
