"""Tests for the simulation clock."""

import pytest

from repro.noc.engine import SimulationClock


class TestSimulationClock:
    def test_default_frequency(self):
        clock = SimulationClock()
        assert clock.frequency_hz == 500e6

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            SimulationClock(frequency_hz=0)

    def test_microsecond_conversion_paper_periods(self):
        clock = SimulationClock(frequency_hz=500e6)
        assert clock.microseconds_to_cycles(109.0) == 54500
        assert clock.microseconds_to_cycles(437.2) == 218600
        assert clock.microseconds_to_cycles(874.4) == 437200

    def test_seconds_to_cycles(self):
        assert SimulationClock(frequency_hz=1e9).seconds_to_cycles(1e-6) == 1000
