"""Tests for the reconfiguration policies."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chips import get_configuration
from repro.core.policy import (
    AdaptiveMigrationPolicy,
    NoMigrationPolicy,
    PeriodicMigrationPolicy,
    POLICY_SCHEMES,
    PolicyContext,
    ThresholdMigrationPolicy,
    make_policy,
)
from repro.migration.transforms import FIGURE1_SCHEMES, MigrationTransform, make_transform
from repro.noc.topology import MeshTopology


def _context(mesh, epoch=1, peak=90.0, hottest=(2, 2)):
    row = np.full(mesh.num_nodes, 60.0)
    row[mesh.node_id(hottest)] = peak
    return PolicyContext(epoch_index=epoch, unit_celsius=row)


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
        assert policy.decide(PolicyContext(epoch_index=0)) is None

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
        assert sum(policy.choice_counts.values()) == 2
        policy.reset()
        assert policy.choice_counts == {}

    def test_requires_candidates(self, mesh3x2):
        with pytest.raises(ValueError):
            AdaptiveMigrationPolicy(mesh3x2, candidate_schemes=["rotation"])

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2)], ids=["square", "non-square"])
    def test_unknown_candidate_is_refused_by_name(self, shape):
        # A misspelled scheme is refused, not dropped like rotation on a
        # non-square mesh.
        mesh = MeshTopology(*shape)
        with pytest.raises(ValueError, match="policy 'adaptive': .*'xy-shfit'"):
            make_policy("adaptive", mesh, candidate_schemes=["xy-shift", "xy-shfit"])
        policy = make_policy("adaptive", mesh, candidate_schemes=["rotation", "xy-shift"])
        expected = ["rotation", "xy-shift"] if mesh.is_square else ["xy-shift"]
        assert [t.name for t in policy.candidates] == expected

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
        assert policy.choice_counts == Counter(chosen)

    def test_decide_makes_no_fixed_points_call(self, mesh5, monkeypatch):
        policy = AdaptiveMigrationPolicy(mesh5)

        def forbidden(self):
            raise AssertionError("fixed_points() called while deciding")

        monkeypatch.setattr(MigrationTransform, "fixed_points", forbidden)
        for unit in mesh5.coordinates():
            policy.decide(_context(mesh5, hottest=unit))
        assert sum(policy.choice_counts.values()) == mesh5.num_nodes


def _reference_choice(candidates, hottest):
    """The adaptive score with each candidate's fixed points recomputed."""
    best, best_score = None, None
    for transform in candidates:
        distance = transform.topology.manhattan_distance(hottest, transform(hottest))
        score = distance - len(transform.fixed_points()) * 0.25
        if best_score is None or score > best_score:
            best, best_score = transform, score
    return best.name


def _seed_decide(topology, candidate_schemes, row):
    """The seed adaptive decision, verbatim on a dict view of ``row``.

    Candidates are built as the seed did (transforms the mesh rejects are
    skipped), the hottest unit is ``max`` over the dict and every candidate
    is scored per decision; the first best score wins.
    """
    candidates = []
    for scheme in candidate_schemes:
        try:
            candidates.append(make_transform(scheme, topology))
        except ValueError:
            continue
    per_unit = dict(zip(topology.coordinates(), row.tolist()))
    hottest = max(per_unit, key=per_unit.get)
    best, best_score = None, None
    for transform in candidates:
        displaced = transform(hottest)
        score = topology.manhattan_distance(hottest, displaced) - len(
            transform.fixed_points()
        ) * 0.25
        if best_score is None or score > best_score:
            best, best_score = transform, score
    return best.name


_MESH_SHAPES = [(w, h) for w in range(2, 6) for h in range(2, 6)] + [(4, 1)]


class TestAdaptiveTable:
    """The hottest-unit table against the seed scoring loop (the oracle)."""

    @pytest.mark.parametrize("shape", _MESH_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_table_matches_seed_loop_for_every_unit(self, shape):
        mesh = MeshTopology(*shape)
        policy = AdaptiveMigrationPolicy(mesh)
        for unit in mesh.coordinates():
            row = np.full(mesh.num_nodes, 50.0)
            row[mesh.node_id(unit)] = 80.0
            expected = _seed_decide(mesh, FIGURE1_SCHEMES, row)
            assert policy.choice_by_unit[mesh.node_id(unit)].name == expected
            assert policy.decide(PolicyContext(0, row)).name == expected

    @given(
        shape=st.sampled_from(_MESH_SHAPES),
        schemes=st.lists(st.sampled_from(FIGURE1_SCHEMES), min_size=1, max_size=5, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_candidate_subsets_match_seed_loop(self, shape, schemes):
        mesh = MeshTopology(*shape)
        square = shape[0] == shape[1]
        if schemes == ["rotation"] and not square:
            with pytest.raises(ValueError, match="no valid candidate"):
                AdaptiveMigrationPolicy(mesh, candidate_schemes=schemes)
            return
        policy = AdaptiveMigrationPolicy(mesh, candidate_schemes=schemes)
        if "rotation" in schemes and not square:
            assert "rotation" not in {t.name for t in policy.candidates}
        for index in range(mesh.num_nodes):
            row = np.zeros(mesh.num_nodes)
            row[index] = 1.0
            assert policy.choice_by_unit[index].name == _seed_decide(mesh, schemes, row)

    @given(shape=st.sampled_from(_MESH_SHAPES), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tied_maxima_pick_first_in_row_major_order(self, shape, data):
        mesh = MeshTopology(*shape)
        tied = data.draw(
            st.lists(st.integers(0, mesh.num_nodes - 1), min_size=2, max_size=4, unique=True)
        )
        row = np.full(mesh.num_nodes, 45.0)
        row[tied] = 70.0
        policy = AdaptiveMigrationPolicy(mesh)
        choice = policy.decide(PolicyContext(0, row))
        assert choice is policy.choice_by_unit[min(tied)]
        assert choice.name == _seed_decide(mesh, FIGURE1_SCHEMES, row)

    def test_no_feedback_row_picks_first_candidate(self, mesh4):
        policy = AdaptiveMigrationPolicy(mesh4, candidate_schemes=["xy-shift", "rotation"])
        assert policy.decide(PolicyContext(epoch_index=0)).name == "xy-shift"
        assert policy.choice_counts == {"xy-shift": 1}


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

    @pytest.mark.parametrize(
        "scheme,keyword,value",
        [
            ("adaptive", "candidate_schemes", 5),
            ("adaptive", "candidate_schemes", "rotation"),
            ("adaptive", "candidate_schemes", [1]),
            ("threshold-xy-shift", "trigger_celsius", "hot"),
            ("threshold-xy-shift", "trigger_celsius", True),
            ("rotation", "skip_first", 1),
        ],
    )
    def test_wrong_typed_keyword_names_policy_and_keyword(
        self, mesh4, scheme, keyword, value
    ):
        with pytest.raises(ValueError, match=f"policy '{scheme}': {keyword}"):
            make_policy(scheme, mesh4, **{keyword: value})

    def test_every_listed_scheme_builds(self, mesh4):
        for scheme in POLICY_SCHEMES:
            threshold = scheme.startswith("threshold-")
            keywords = {"trigger_celsius": 80.0} if threshold else {}
            assert make_policy(scheme, mesh4, **keywords) is not None
