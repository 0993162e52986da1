"""Tests for the HotSpot-style model at block resolution."""

import numpy as np
import pytest

from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace, map_to_vector
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import ThermalPackage


def _trace(mesh, *intervals):
    """A PowerTrace from (duration, per-coordinate power dict) pairs."""
    return PowerTrace(
        mesh,
        [duration for duration, _power in intervals],
        [map_to_vector(mesh, power) for _duration, power in intervals],
    )


class TestSteadyStateFacade:
    def test_ambient_default(self, thermal4):
        assert thermal4.ambient_celsius == 40.0

    def test_keyed_by_coordinate(self, thermal4, uniform_power4, mesh4):
        temps = thermal4.steady_state_by_coord(uniform_power4)
        assert set(temps) == set(mesh4.coordinates())
        assert all(t > 40.0 for t in temps.values())

    def test_peak_temperature_shortcut(self, thermal4, uniform_power4):
        full = thermal4.steady_state_by_coord(uniform_power4)
        assert thermal4.peak_temperature(uniform_power4) == pytest.approx(max(full.values()))

    def test_rejects_outside_coordinates(self, thermal4):
        with pytest.raises(ValueError):
            thermal4.steady_state_by_coord({(9, 9): 1.0})

    def test_hotspot_location_matches_power(self, thermal4, uniform_power4):
        power = dict(uniform_power4)
        power[(3, 0)] = 8.0
        temps = thermal4.steady_state_by_coord(power)
        assert max(temps, key=temps.get) == (3, 0)

    def test_more_power_hotter(self, thermal4, uniform_power4):
        low = thermal4.peak_temperature(uniform_power4)
        high = thermal4.peak_temperature({c: 3.0 for c in uniform_power4})
        assert high > low

    def test_custom_ambient(self, mesh4, uniform_power4):
        cold = HotSpotModel(mesh4, package=ThermalPackage(ambient_celsius=20.0))
        hot = HotSpotModel(mesh4, package=ThermalPackage(ambient_celsius=40.0))
        delta = hot.peak_temperature(uniform_power4) - cold.peak_temperature(uniform_power4)
        assert delta == pytest.approx(20.0, abs=1e-6)


class TestTransientFacade:
    def test_transient_by_coordinate_power(self, thermal4, uniform_power4, mesh4):
        result = thermal4.transient_sequence(_trace(mesh4, (1e-3, uniform_power4)))
        # The default step is duration / 200: the start state and 200 steps.
        assert result.samples.shape == (201, mesh4.num_nodes)
        assert result.samples.max() >= 40.0

    def test_warm_state_round_trip(self, thermal4, uniform_power4, mesh4):
        power = map_to_vector(mesh4, uniform_power4)
        warm = thermal4.warm_state(power)
        steady = thermal4.steady_temperatures(power)
        result = thermal4.transient_sequence(
            _trace(mesh4, (1e-3, uniform_power4)), initial_state=warm
        )
        final = result.samples[-1]
        assert final.max() == pytest.approx(steady.max(), abs=0.01)

    def test_transient_sequence_facade(self, thermal4, uniform_power4, mesh4):
        hot = {c: 3.0 for c in uniform_power4}
        result = thermal4.transient_sequence(
            _trace(mesh4, (5e-4, uniform_power4), (5e-4, hot))
        )
        assert result.starts.tolist() == [0, 201]
        assert result.stops.tolist() == [201, 402]
        assert result.samples.shape == (402, mesh4.num_nodes)


class TestMeshSizes:
    def test_5x5_model(self, mesh5):
        model = HotSpotModel(mesh5)
        power = {c: 1.5 for c in mesh5.coordinates()}
        temps = model.steady_state_by_coord(power)
        assert len(temps) == 25

    def test_larger_chip_same_per_unit_power_is_hotter(self, mesh4, mesh5):
        """More units at the same per-unit power dissipate more total heat."""
        p4 = HotSpotModel(mesh4).peak_temperature({c: 2.0 for c in mesh4.coordinates()})
        p5 = HotSpotModel(mesh5).peak_temperature({c: 2.0 for c in mesh5.coordinates()})
        assert p5 > p4
