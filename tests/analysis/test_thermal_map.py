"""Tests for the ASCII map rendering helpers."""

import pytest

from repro.analysis.thermal_map import render_grid, render_heat_bar


@pytest.fixture
def values4(mesh4):
    return {coord: float(coord[0] + 10 * coord[1]) for coord in mesh4.coordinates()}


class TestRenderGrid:
    def test_contains_all_values(self, mesh4, values4):
        text = render_grid(mesh4, values4, title="test", unit="C")
        assert "test (C)" in text
        assert "33.00" in text  # value at (3, 3)

    def test_row_order_top_down(self, mesh4, values4):
        text = render_grid(mesh4, values4)
        lines = text.splitlines()
        # First printed row is y = 3 (values 30..33), last is y = 0.
        assert "30.00" in lines[0]
        assert "0.00" in lines[-1]

    def test_missing_value_rejected(self, mesh4, values4):
        values4.pop((1, 1))
        with pytest.raises(ValueError):
            render_grid(mesh4, values4)


class TestHeatBar:
    def test_one_character_per_pe(self, mesh4, values4):
        art = render_heat_bar(mesh4, values4)
        lines = art.splitlines()
        assert len(lines) == 4
        assert all(len(line) == 4 for line in lines)

    def test_hottest_uses_densest_character(self, mesh4, values4):
        levels = " .:-=+*#%@"
        art = render_heat_bar(mesh4, values4, levels=levels)
        assert "@" in art.splitlines()[0]  # hottest row printed first

    def test_flat_map_does_not_crash(self, mesh4):
        flat = {coord: 1.0 for coord in mesh4.coordinates()}
        art = render_heat_bar(mesh4, flat)
        assert len(art.splitlines()) == 4
