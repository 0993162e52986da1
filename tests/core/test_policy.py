"""Tests for the reconfiguration policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chips import get_configuration
from repro.core.metrics import ThermalMetrics
from repro.core.policy import (
    AdaptiveMigrationPolicy,
    NoMigrationPolicy,
    PeriodicMigrationPolicy,
    PolicyContext,
    ThresholdMigrationPolicy,
    make_policy,
)
from repro.migration.transforms import MigrationTransform


def _context(mesh, epoch=1, peak=90.0, hottest=(2, 2)):
    per_unit = {coord: 60.0 for coord in mesh.coordinates()}
    per_unit[hottest] = peak
    return PolicyContext(
        epoch_index=epoch,
        current_thermal=ThermalMetrics.from_map(per_unit),
        current_power_map={coord: 1.0 for coord in mesh.coordinates()},
        topology=mesh,
    )


class TestNoMigration:
    def test_never_migrates(self, mesh4):
        policy = NoMigrationPolicy()
        for epoch in range(5):
            assert policy.decide(_context(mesh4, epoch=epoch)) is None


class TestPeriodic:
    def test_applies_same_transform_every_epoch(self, mesh4):
        policy = PeriodicMigrationPolicy(mesh4, "xy-shift", period_us=109.0)
        first = policy.decide(_context(mesh4, epoch=1))
        second = policy.decide(_context(mesh4, epoch=2))
        assert first is second
        assert first.name == "xy-shift"

    def test_skips_first_epoch_by_default(self, mesh4):
        policy = PeriodicMigrationPolicy(mesh4, "rotation")
        assert policy.decide(_context(mesh4, epoch=0)) is None
        assert policy.decide(_context(mesh4, epoch=1)) is not None

    def test_no_skip_option(self, mesh4):
        policy = PeriodicMigrationPolicy(mesh4, "rotation", skip_first=False)
        assert policy.decide(_context(mesh4, epoch=0)) is not None

    def test_invalid_period(self, mesh4):
        with pytest.raises(ValueError):
            PeriodicMigrationPolicy(mesh4, "rotation", period_us=0)

    def test_name_embeds_scheme(self, mesh4):
        assert PeriodicMigrationPolicy(mesh4, "x-mirror").name == "periodic-x-mirror"


class TestThreshold:
    def test_migrates_only_above_trigger(self, mesh4):
        policy = ThresholdMigrationPolicy(mesh4, "xy-shift", trigger_celsius=80.0)
        hot = _context(mesh4, peak=92.0)
        cool = _context(mesh4, peak=70.0)
        assert policy.decide(hot) is not None
        assert policy.decide(cool) is None
        assert policy.migrations_triggered == 1

    def test_no_thermal_info_no_migration(self, mesh4):
        policy = ThresholdMigrationPolicy(mesh4, "xy-shift", trigger_celsius=80.0)
        context = PolicyContext(
            epoch_index=0, current_thermal=None, current_power_map={}, topology=mesh4
        )
        assert policy.decide(context) is None

    def test_reset_clears_counter(self, mesh4):
        policy = ThresholdMigrationPolicy(mesh4, "xy-shift", trigger_celsius=80.0)
        policy.decide(_context(mesh4, peak=95.0))
        policy.reset()
        assert policy.migrations_triggered == 0


class TestAdaptive:
    def test_picks_a_candidate(self, mesh5):
        policy = AdaptiveMigrationPolicy(mesh5)
        transform = policy.decide(_context(mesh5, hottest=(2, 2)))
        assert transform is not None
        assert transform.name in {t.name for t in policy.candidates}

    def test_avoids_fixed_point_on_central_hotspot(self, mesh5):
        """With the hotspot at the 5x5 centre (a fixed point of rotation and
        mirroring), the adaptive policy must pick a translation."""
        policy = AdaptiveMigrationPolicy(mesh5)
        transform = policy.decide(_context(mesh5, hottest=(2, 2)))
        assert transform.name in ("right-shift", "xy-shift")

    def test_moves_corner_hotspot_far(self, mesh4):
        policy = AdaptiveMigrationPolicy(mesh4)
        transform = policy.decide(_context(mesh4, hottest=(3, 3)))
        moved = transform((3, 3))
        assert mesh4.manhattan_distance((3, 3), moved) >= 2

    def test_non_square_mesh_drops_rotation(self, mesh3x2):
        policy = AdaptiveMigrationPolicy(mesh3x2)
        names = {t.name for t in policy.candidates}
        assert "rotation" not in names
        assert names  # still has candidates

    def test_choices_recorded_and_reset(self, mesh5):
        policy = AdaptiveMigrationPolicy(mesh5)
        policy.decide(_context(mesh5))
        policy.decide(_context(mesh5))
        assert len(policy.choices) == 2
        policy.reset()
        assert policy.choices == []

    def test_requires_candidates(self, mesh3x2):
        with pytest.raises(ValueError):
            AdaptiveMigrationPolicy(mesh3x2, candidate_schemes=["rotation"])

    @given(chip=st.sampled_from("ABCDE"), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_choices_match_per_decision_fixed_points(self, chip, data):
        """Precomputed penalties choose exactly what per-decision scoring chose."""
        mesh = get_configuration(chip).topology
        hottest = data.draw(
            st.lists(st.sampled_from(list(mesh.coordinates())), min_size=1, max_size=20)
        )
        policy = AdaptiveMigrationPolicy(mesh)
        chosen = [policy.decide(_context(mesh, hottest=unit)).name for unit in hottest]
        assert chosen == [_reference_choice(policy.candidates, unit) for unit in hottest]
        assert policy.choices == chosen

    def test_decide_makes_no_fixed_points_call(self, mesh5, monkeypatch):
        policy = AdaptiveMigrationPolicy(mesh5)

        def forbidden(self):
            raise AssertionError("fixed_points() called while deciding")

        monkeypatch.setattr(MigrationTransform, "fixed_points", forbidden)
        for unit in mesh5.coordinates():
            policy.decide(_context(mesh5, hottest=unit))
        assert len(policy.choices) == mesh5.num_nodes


def _reference_choice(candidates, hottest):
    """The adaptive score with each candidate's fixed points recomputed."""
    best, best_score = None, None
    for transform in candidates:
        distance = transform.topology.manhattan_distance(hottest, transform(hottest))
        score = distance - len(transform.fixed_points()) * 0.25
        if best_score is None or score > best_score:
            best, best_score = transform, score
    return best.name


class TestFactory:
    def test_static(self, mesh4):
        assert isinstance(make_policy("static", mesh4), NoMigrationPolicy)

    def test_scheme_names(self, mesh4):
        policy = make_policy("xy-shift", mesh4, period_us=437.2)
        assert isinstance(policy, PeriodicMigrationPolicy)
        assert policy.period_us == 437.2

    def test_adaptive(self, mesh4):
        assert isinstance(make_policy("adaptive", mesh4), AdaptiveMigrationPolicy)

    def test_threshold(self, mesh4):
        policy = make_policy("threshold-xy-shift", mesh4, trigger_celsius=85.0)
        assert isinstance(policy, ThresholdMigrationPolicy)
        assert policy.trigger_celsius == 85.0
