"""Tests for the PE/router/unit power models."""

import pytest

from repro.noc.stats import RouterActivity
from repro.power.library import TechnologyLibrary
from repro.power.models import PePowerModel, RouterPowerModel, UnitPowerModel


@pytest.fixture
def library():
    return TechnologyLibrary()


class TestPePowerModel:
    def test_dynamic_power_proportional_to_rate(self, library):
        model = PePowerModel(library)
        assert model.dynamic_power(2e9) == pytest.approx(2 * model.dynamic_power(1e9))

    def test_zero_activity_gives_leakage_only(self, library):
        model = PePowerModel(library)
        assert model.power(0.0, interval_s=1e-3) == pytest.approx(model.leakage_power())

    def test_leakage_scales_with_area_fraction(self, library):
        big = PePowerModel(library, area_fraction=1.0)
        small = PePowerModel(library, area_fraction=0.5)
        assert small.leakage_power() == pytest.approx(0.5 * big.leakage_power())

    def test_energy_is_power_times_time(self, library):
        model = PePowerModel(library)
        assert model.energy(1e6, 1e-3) == pytest.approx(model.power(1e6, 1e-3) * 1e-3)

    def test_negative_rate_rejected(self, library):
        with pytest.raises(ValueError):
            PePowerModel(library).dynamic_power(-1.0)

    def test_invalid_interval_rejected(self, library):
        with pytest.raises(ValueError):
            PePowerModel(library).power(10, interval_s=0.0)

    def test_invalid_area_fraction(self, library):
        with pytest.raises(ValueError):
            PePowerModel(library, area_fraction=0.0)


class TestRouterPowerModel:
    def test_energy_from_activity(self, library):
        model = RouterPowerModel(library)
        activity = RouterActivity(
            buffer_reads=3, buffer_writes=3, crossbar_traversals=3, link_traversals=2
        )
        expected = 9 * library.router_energy_per_flit_j / 3.0 + 2 * library.link_energy_per_flit_j
        assert model.energy_from_activity(activity) == pytest.approx(expected)

    def test_energy_from_flits_default_links(self, library):
        model = RouterPowerModel(library)
        energy = model.energy_from_flits(10)
        expected = 10 * (library.router_energy_per_flit_j + library.link_energy_per_flit_j)
        assert energy == pytest.approx(expected)

    def test_idle_activity_zero_dynamic(self, library):
        model = RouterPowerModel(library)
        assert model.energy_from_activity(RouterActivity()) == 0.0

    def test_power_includes_leakage(self, library):
        model = RouterPowerModel(library)
        power = model.power_from_activity(RouterActivity(), interval_s=1e-3)
        assert power == pytest.approx(model.leakage_power())

    def test_negative_flits_rejected(self, library):
        with pytest.raises(ValueError):
            RouterPowerModel(library).energy_from_flits(-1)


class TestUnitPowerModel:
    def test_idle_power_is_total_leakage(self, library):
        unit = UnitPowerModel(library)
        expected = library.unit_leakage_power_w
        assert unit.idle_power() == pytest.approx(expected)

    def test_unit_power_monotone_in_activity(self, library):
        unit = UnitPowerModel(library)
        low = unit.unit_power(1e4, 100, interval_s=1e-3)
        high = unit.unit_power(1e6, 10000, interval_s=1e-3)
        assert high > low

    def test_extra_energy_amortised(self, library):
        unit = UnitPowerModel(library)
        base = unit.unit_power(0, 0, interval_s=1e-3)
        extra = unit.unit_power(0, 0, interval_s=1e-3, extra_energy_j=1e-6)
        assert extra - base == pytest.approx(1e-3)

    def test_invalid_interval(self, library):
        with pytest.raises(ValueError):
            UnitPowerModel(library).unit_power(0, 0, interval_s=0)

    def test_realistic_pe_power_range(self, library):
        # A PE updating ~1e8-1e9 edge-operations per second at 160 nm should
        # land between tens of milliwatts and a handful of watts, the range
        # the paper's chips imply.
        unit = UnitPowerModel(library)
        power = unit.unit_power(1e6, 5e4, interval_s=1e-3)
        assert 0.01 < power < 20.0
