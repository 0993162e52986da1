"""Tests for the period sweep and the migration-energy ablation."""

import pytest

from repro.analysis.sweep import (
    PAPER_PERIODS_US,
    run_energy_ablation,
    run_period_sweep,
)


class TestPeriodSweep:
    @pytest.fixture(scope="class")
    def sweep_a(self):
        return run_period_sweep(
            "A",
            scheme="xy-shift",
            periods_us=PAPER_PERIODS_US,
            mode="steady",
            num_epochs=21,
        )

    def test_three_points(self, sweep_a):
        assert len(sweep_a.points) == 3
        assert {p.period_us for p in sweep_a.points} == set(PAPER_PERIODS_US)

    def test_penalty_decreases_with_period(self, sweep_a):
        penalties = sweep_a.penalties()
        assert penalties[109.0] > penalties[437.2] > penalties[874.4]

    def test_penalty_magnitudes_match_paper_shape(self, sweep_a):
        """Paper: 1.6 % at 109 us, <0.4 % at 437.2 us, <0.2 % at 874.4 us."""
        penalties = sweep_a.penalties()
        assert 0.003 < penalties[109.0] < 0.03
        assert penalties[437.2] < 0.008
        assert penalties[874.4] < 0.004
        # Quadrupling the period divides the penalty by about four, and
        # multiplying it by eight divides it by about eight.
        assert penalties[437.2] == pytest.approx(penalties[109.0] / 4.0, rel=0.15)
        assert 6.0 < penalties[109.0] / penalties[874.4] < 10.0

    def test_peak_rise_with_longer_period_is_small(self, sweep_a):
        """Paper: going from 109 us to 437.2 us raises the peak by <0.1 degC."""
        rises = sweep_a.peak_rise_vs_fastest()
        assert abs(rises[437.2]) < 0.5
        assert abs(rises[874.4]) < 1.0

    def test_transient_peak_rise_stays_under_a_few_degrees(self):
        """Transient mode resolves the ripple: the RC model's ~1.7 ms block
        time constant makes it larger than the paper's <0.1 C, but still
        under a degree at 437.2 us and two at 874.4 us."""
        sweep = run_period_sweep(
            "A",
            scheme="xy-shift",
            periods_us=PAPER_PERIODS_US,
            mode="transient",
            num_epochs=25,
        )
        rises = sweep.peak_rise_vs_fastest()
        assert abs(rises[437.2]) < 1.0
        assert abs(rises[874.4]) < 2.0

    def test_format_table(self, sweep_a):
        text = sweep_a.format_table()
        assert "109.0" in text
        assert "874.4" in text

    def test_steady_sweep_makes_one_solve_per_period(self):
        """One batched steady solve per period, no transient."""
        from repro.chips import get_configuration

        chip = get_configuration("A")
        solver = chip.thermal_model.solver
        solves_before = solver.steady_solve_count
        sequences_before = solver.transient_sequence_count
        run_period_sweep("A", periods_us=PAPER_PERIODS_US, mode="steady", num_epochs=9)
        assert solver.steady_solve_count - solves_before == len(PAPER_PERIODS_US)
        assert solver.transient_sequence_count == sequences_before

    def test_points_follow_the_requested_order(self):
        periods = (874.4, 109.0, 437.2)
        sweep = run_period_sweep("A", periods_us=periods, mode="steady", num_epochs=5)
        assert [point.period_us for point in sweep.points] == list(periods)
        assert list(sweep.as_arrays()["period_us"]) == sorted(periods)


class TestEnergyAblation:
    @pytest.fixture(scope="class")
    def ablation_e(self):
        return run_energy_ablation(
            "E", scheme="rotation", period_us=109.0, num_epochs=21
        )

    def test_energy_raises_mean_temperature(self, ablation_e):
        """The paper attributes a ~0.3 degC average-temperature increase to
        rotation's migration energy; the ablation must show a positive and
        sub-degree effect."""
        penalty = ablation_e.mean_temperature_penalty_celsius
        assert 0.0 < penalty < 1.0

    def test_energy_raises_peak_temperature(self, ablation_e):
        assert ablation_e.peak_temperature_penalty_celsius >= 0.0

    def test_both_runs_share_baseline(self, ablation_e):
        assert ablation_e.with_energy.baseline_peak_celsius == pytest.approx(
            ablation_e.without_energy.baseline_peak_celsius
        )

    def test_rotation_penalty_exceeds_shift_penalty(self):
        """Rotation moves state the furthest, so its energy penalty exceeds
        the cheap single-hop right shift's."""
        rotation = run_energy_ablation("E", scheme="rotation", num_epochs=11)
        shift = run_energy_ablation("E", scheme="right-shift", num_epochs=11)
        assert (
            rotation.mean_temperature_penalty_celsius
            > shift.mean_temperature_penalty_celsius
        )
