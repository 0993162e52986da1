"""Tests for the power-profile construction and calibration."""

import numpy as np
import pytest

from repro.chips.profiles import (
    calibrate_profile,
    center_hotspot_profile,
    hot_row_profile,
)
from reference import row_powers


class TestHotRowProfile:
    def test_hot_row_is_hottest(self, mesh4):
        profile = hot_row_profile(mesh4, hot_row=2, hot_multiplier=2.0)
        rows = row_powers(mesh4, profile)
        assert np.argmax(rows) == 2

    def test_all_values_positive(self, mesh5):
        profile = hot_row_profile(mesh5, hot_row=1, hot_multiplier=3.0, seed=1)
        assert all(value > 0 for value in profile.values())

    def test_rejects_row_outside_mesh(self, mesh4):
        with pytest.raises(ValueError):
            hot_row_profile(mesh4, hot_row=4)

    def test_rejects_non_hot_multiplier(self, mesh4):
        with pytest.raises(ValueError):
            hot_row_profile(mesh4, hot_row=1, hot_multiplier=1.0)

    def test_gradient_tilts_columns(self, mesh4):
        profile = hot_row_profile(mesh4, hot_row=0, hot_multiplier=2.0, gradient=0.3)
        assert profile[(3, 2)] > profile[(0, 2)]

    def test_seed_reproducibility(self, mesh4):
        a = hot_row_profile(mesh4, hot_row=1, hot_multiplier=2.0, seed=9)
        b = hot_row_profile(mesh4, hot_row=1, hot_multiplier=2.0, seed=9)
        assert a == b


class TestCenterHotspotProfile:
    def test_center_is_hottest(self, mesh5):
        profile = center_hotspot_profile(mesh5, center_multiplier=2.5)
        assert max(profile, key=profile.get) == (2, 2)

    def test_power_decays_with_distance_from_center(self, mesh5):
        profile = center_hotspot_profile(mesh5, center_multiplier=2.5)
        assert profile[(2, 2)] > profile[(1, 2)] > profile[(0, 2)]

    def test_optional_hot_row_layered(self, mesh5):
        base = center_hotspot_profile(mesh5, center_multiplier=2.0)
        with_row = center_hotspot_profile(
            mesh5, center_multiplier=2.0, hot_row=1, hot_row_multiplier=1.5
        )
        assert with_row[(0, 1)] > base[(0, 1)]

    def test_rejects_weak_center(self, mesh5):
        with pytest.raises(ValueError):
            center_hotspot_profile(mesh5, center_multiplier=1.0)


class TestCalibration:
    def test_hits_target_peak_exactly(self, mesh4, thermal4):
        profile = hot_row_profile(mesh4, hot_row=2, hot_multiplier=2.5)
        calibrated, scale = calibrate_profile(profile, thermal4, target_peak_celsius=85.44)
        assert scale > 0
        assert thermal4.peak_temperature(calibrated) == pytest.approx(85.44, abs=1e-6)

    def test_scale_preserves_shape(self, mesh4, thermal4):
        profile = hot_row_profile(mesh4, hot_row=2, hot_multiplier=2.5)
        calibrated, scale = calibrate_profile(profile, thermal4, target_peak_celsius=80.0)
        for coord, value in profile.items():
            assert calibrated[coord] == pytest.approx(value * scale)

    def test_rejects_target_below_ambient(self, mesh4, thermal4):
        profile = hot_row_profile(mesh4, hot_row=0, hot_multiplier=2.0)
        with pytest.raises(ValueError):
            calibrate_profile(profile, thermal4, target_peak_celsius=30.0)

    def test_zero_profile_rejected(self, mesh4, thermal4):
        with pytest.raises(ValueError):
            calibrate_profile({c: 0.0 for c in mesh4.coordinates()}, thermal4, 80.0)
