"""Integration tests across the whole stack.

These exercise the paper's experiments end to end, at reduced epoch counts,
and assert the qualitative results the paper reports (the shapes, not the
exact degrees).
"""

import pytest

from repro import (
    ExperimentSettings,
    NoMigrationPolicy,
    PeriodicMigrationPolicy,
    ThermalExperiment,
    get_configuration,
)
from repro.analysis import generate_figure1
from repro.chips import all_configurations
from repro.core.policy import make_policy
from repro.migration import FIGURE1_SCHEMES


FAST = ExperimentSettings(num_epochs=21, mode="steady", settle_epochs=20)


@pytest.fixture(scope="module")
def figure1():
    """Figure 1 at reduced epoch count (orbit lengths still divide 20)."""
    return generate_figure1(num_epochs=21)


class TestFigure1Shapes:
    def test_all_bars_present(self, figure1):
        assert len(figure1.cells) == 5 * len(FIGURE1_SCHEMES)

    def test_xy_shift_has_highest_average_reduction(self, figure1):
        """Paper: X-Y shifting has the highest average reduction (4.62 degC)."""
        best = figure1.best_scheme()
        assert best == "xy-shift"
        assert figure1.average_reduction("xy-shift") > 2.0

    def test_rotation_second_on_average(self, figure1):
        """Paper: rotation follows X-Y shift, ahead of the single-direction
        X mirror and right shift."""
        rotation = figure1.average_reduction("rotation")
        assert rotation > figure1.average_reduction("x-mirror")
        assert rotation > figure1.average_reduction("right-shift")

    def test_maximum_reduction_several_degrees(self, figure1):
        """Paper: peak temperature reduced by up to ~8 degC."""
        assert 4.0 < figure1.max_reduction() < 12.0

    def test_rotation_negative_or_negligible_on_E(self, figure1):
        """Paper: rotation results in higher peak temperature on E."""
        assert figure1.reduction("E", "rotation") < 0.5

    def test_mirroring_weak_on_odd_meshes(self, figure1):
        """Rotation/mirroring ignore the central PE of the 5x5 chips, so they
        do much better on A/B than on C/D/E."""
        even_avg = (figure1.reduction("A", "xy-mirror") + figure1.reduction("B", "xy-mirror")) / 2
        odd_avg = (
            figure1.reduction("C", "xy-mirror")
            + figure1.reduction("D", "xy-mirror")
            + figure1.reduction("E", "xy-mirror")
        ) / 3
        assert even_avg > odd_avg + 1.0
        rotation_even = sum(figure1.reduction(c, "rotation") for c in "AB") / 2
        rotation_odd = sum(figure1.reduction(c, "rotation") for c in "CDE") / 3
        assert rotation_even > rotation_odd

    def test_right_shift_poor_where_hot_row_exists(self, figure1):
        """The warm band means right-shifting alone cannot balance heat."""
        for config in ("A", "B", "C", "D"):
            assert figure1.reduction(config, "right-shift") < figure1.reduction(
                config, "xy-shift"
            )

    def test_translation_more_effective_on_odd_meshes(self, figure1):
        """Paper: for the larger (5x5) configurations translation wins."""
        for config in ("C", "D", "E"):
            assert figure1.reduction(config, "xy-shift") >= figure1.reduction(
                config, "rotation"
            )

    def test_no_scheme_catastrophically_backfires(self, figure1):
        for cell in figure1.cells:
            assert cell.reduction_celsius > -1.5


class TestThroughputPenalty:
    def test_penalty_under_two_percent_at_109us(self):
        chip = get_configuration("A")
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(chip, policy, settings=FAST).run()
        assert result.throughput_penalty < 0.03

    def test_static_policy_penalty_zero(self):
        chip = get_configuration("C")
        result = ThermalExperiment(chip, NoMigrationPolicy(), settings=FAST).run()
        assert result.throughput_penalty == 0.0


class TestPolicyFactoryIntegration:
    @pytest.mark.parametrize("policy_name", ["static", "xy-shift", "adaptive"])
    def test_policies_run_on_every_configuration(self, policy_name):
        for config in all_configurations():
            policy = make_policy(policy_name, config.topology, period_us=109.0)
            result = ThermalExperiment(
                config,
                policy,
                settings=ExperimentSettings(num_epochs=11, settle_epochs=10),
            ).run()
            assert result.baseline_peak_celsius > 40.0
            assert result.settled_peak_celsius > 40.0


class TestAdaptivePolicyExtension:
    def test_adaptive_matches_or_beats_worst_fixed_scheme(self):
        """The adaptive transform choice should never be worse than the worst
        fixed scheme on the centre-hotspot configuration."""
        chip = get_configuration("E")
        adaptive = ThermalExperiment(
            chip, make_policy("adaptive", chip.topology), settings=FAST
        ).run()
        fixed = [
            ThermalExperiment(
                chip, make_policy(scheme, chip.topology), settings=FAST
            ).run()
            for scheme in FIGURE1_SCHEMES
        ]
        worst_fixed = min(result.peak_reduction_celsius for result in fixed)
        assert adaptive.peak_reduction_celsius >= worst_fixed
