"""RollingSummary: exact incremental aggregates in O(1) state."""

import json

import numpy as np
import pytest

from repro.core.controller import RuntimeReconfigurationController
from repro.core.experiment import WindowOutcome
from repro.migration.transforms import RotationTransform, XYShiftTransform
from repro.stream import RollingSummary


def _outcome(start, peaks, means):
    peaks = np.asarray(peaks, dtype=float)
    means = np.asarray(means, dtype=float)
    return WindowOutcome(
        start_epoch=start,
        num_epochs=peaks.size,
        trace=None,
        costs=[None] * peaks.size,
        # (E, U) Celsius rows: two units whose maximum and mean are the
        # epoch's peak and mean (every fixture peak is at least its mean).
        epoch_metrics=np.column_stack([peaks, 2 * means - peaks]),
        peak_by_epoch=peaks,
        mean_by_epoch=means,
    )


@pytest.fixture
def controller(chip_a):
    return RuntimeReconfigurationController(chip_a)


class TestThermalAggregates:
    def test_empty_summary(self, controller):
        summary = RollingSummary()
        assert summary.peak_celsius is None
        assert summary.mean_celsius is None
        row = summary.snapshot(controller)
        assert row["windows"] == 0 and row["epochs"] == 0
        assert row["migrations"] == 0 and row["migration_energy_j"] == 0.0

    def test_running_peak_and_weighted_mean(self):
        summary = RollingSummary()
        summary.observe_window(_outcome(0, [70.0, 90.0], [60.0, 62.0]))
        summary.observe_window(_outcome(2, [80.0, 85.0, 75.0], [64.0, 66.0, 68.0]))
        assert summary.windows == 2
        assert summary.epochs == 5
        assert summary.peak_celsius == 90.0
        assert summary.last_peak_celsius == 75.0
        assert summary.last_mean_celsius == 68.0
        assert summary.mean_celsius == pytest.approx((60 + 62 + 64 + 66 + 68) / 5)

    def test_migration_accounting(self, controller, chip_a):
        """The snapshot reports the controller's totals: a plan counts once
        however many stages it runs, and energy sums over every stage."""
        events = [controller.apply_migration(XYShiftTransform(chip_a.topology))]
        events.append(
            controller.apply_migration(
                RotationTransform(chip_a.topology), style="fluid", units_per_epoch=2
            )
        )
        while controller.migration_in_progress:
            events.append(controller.advance_plan())
        assert len(events) > 2
        energy = 0.0
        for event in events:
            energy += event.energy_j
        row = RollingSummary().snapshot(controller)
        assert row["migrations"] == 2
        assert row["migration_energy_j"] == energy


class TestChannelAggregates:
    def test_decoder_epoch_weighting(self):
        summary = RollingSummary()
        summary.observe_decoder(2, mean_iterations=4.0, throughput_factor=0.9)
        summary.observe_decoder(6, mean_iterations=8.0, throughput_factor=0.8)
        assert summary.decoder_mean_iterations == pytest.approx((2 * 4 + 6 * 8) / 8)
        assert summary.last_throughput_factor == 0.8

    def test_noc_aggregates(self):
        summary = RollingSummary()
        summary.observe_noc(np.array([10.0, 30.0]), np.array([False, True]))
        summary.observe_noc(np.array([20.0]), np.array([False]))
        assert summary.noc_mean_latency_cycles == pytest.approx(20.0)
        assert summary.noc_saturated_epochs == 1

    def test_snapshot_gates_channel_keys(self, controller):
        summary = RollingSummary()
        summary.observe_window(_outcome(0, [70.0], [60.0]))
        row = summary.snapshot(controller)
        assert "decoder_mean_iterations" not in row
        assert "noc_mean_latency_cyc" not in row
        summary.observe_decoder(1, 5.0, 0.95)
        summary.observe_noc(np.array([12.0]), np.array([False]))
        row = summary.snapshot(controller)
        assert row["decoder_mean_iterations"] == 5.0
        assert row["noc_mean_latency_cyc"] == 12.0


class TestStateRoundTrip:
    def test_state_dict_is_json_safe_and_exact(self, controller):
        summary = RollingSummary()
        summary.observe_window(_outcome(0, [70.0, 90.0], [60.0, 62.0]))
        summary.observe_decoder(2, 4.5, 0.9)
        summary.observe_noc(np.array([15.0]), np.array([True]))
        state = json.loads(json.dumps(summary.state_dict()))
        restored = RollingSummary()
        restored.restore_state(state)
        assert restored.snapshot(controller) == summary.snapshot(controller)
        assert restored.state_dict() == summary.state_dict()
        # Restored summaries keep accumulating correctly.
        restored.observe_window(_outcome(2, [95.0], [63.0]))
        assert restored.peak_celsius == 95.0
        assert restored.epochs == 3
