"""Tests for the technology library constants."""

import pytest

from repro.power.library import DEFAULT_LIBRARY, TechnologyLibrary


class TestTechnologyLibrary:
    def test_default_values_paper_aligned(self):
        lib = DEFAULT_LIBRARY
        assert lib.unit_area_mm2 == pytest.approx(4.36)
        assert lib.supply_voltage_v == pytest.approx(1.8)

    def test_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            TechnologyLibrary(supply_voltage_v=0)
        with pytest.raises(ValueError):
            TechnologyLibrary(clock_frequency_hz=-1)
        with pytest.raises(ValueError):
            TechnologyLibrary(switched_capacitance_per_op_f=0)
        with pytest.raises(ValueError):
            TechnologyLibrary(unit_area_mm2=0)
        with pytest.raises(ValueError):
            TechnologyLibrary(leakage_power_density_w_per_mm2=-0.1)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_LIBRARY.supply_voltage_v = 1.0
