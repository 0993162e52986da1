"""Spatial power-profile construction and calibration for the test chips.

The paper's per-unit power numbers come from Power Compiler runs on two
synthesised LDPC chips; we cannot re-run that flow, so each configuration's
power profile is *constructed* to exhibit the structural features the paper
describes (Section 3):

* every configuration has one row with significantly higher power than the
  rest (the "warm band" that right-shifting cannot dissipate),
* configuration E additionally concentrates power near the centre of the die
  (where rotation and mirroring are least effective), and
* the baseline peak temperatures, with the thermally-optimised static
  mapping, sit at the values reported in Figure 1's x-axis labels
  (85.44 / 84.05 / 75.17 / 72.8 / 75.98 °C).

Because the RC thermal model is linear, a relative profile can be scaled by a
single factor to land the peak temperature exactly on the paper's baseline;
:func:`calibrate_profile` does that.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..noc.topology import Coordinate, MeshTopology
from ..thermal.hotspot import HotSpotModel


def hot_row_profile(
    topology: MeshTopology,
    hot_row: int,
    base_power_w: float = 1.0,
    hot_multiplier: float = 1.7,
    gradient: float = 0.05,
    seed: Optional[int] = None,
) -> Dict[Coordinate, float]:
    """Relative power map with one hot row and a mild gradient elsewhere.

    Parameters
    ----------
    hot_row:
        Mesh row (y index) carrying the elevated power.
    hot_multiplier:
        Power of hot-row units relative to the base.
    gradient:
        Small per-column slope so the profile is not perfectly symmetric
        (real chips never are, and perfectly symmetric profiles make several
        transforms trivially equivalent).
    """
    if not 0 <= hot_row < topology.height:
        raise ValueError(f"hot row {hot_row} outside mesh of height {topology.height}")
    if hot_multiplier <= 1.0:
        raise ValueError("the hot row should be hotter than the base")
    rng = np.random.default_rng(seed)
    profile: Dict[Coordinate, float] = {}
    for coord in topology.coordinates():
        x, y = coord
        power = base_power_w * (1.0 + gradient * x)
        if y == hot_row:
            power *= hot_multiplier
        if seed is not None:
            power *= 1.0 + 0.02 * rng.standard_normal()
        profile[coord] = max(power, 0.05)
    return profile


def center_hotspot_profile(
    topology: MeshTopology,
    base_power_w: float = 1.0,
    center_multiplier: float = 1.8,
    hot_row: Optional[int] = None,
    hot_row_multiplier: float = 1.3,
    spread: float = 1.2,
    seed: Optional[int] = None,
) -> Dict[Coordinate, float]:
    """Relative power map concentrated near the centre of the die.

    Used for configuration E, whose hotspots the paper places "near the
    center of the chip, where those algorithms [rotation/mirroring] are least
    efficient at migrating workload away".  An optional hot row is layered on
    top so the right-shift behaviour matches the other configurations.
    """
    if center_multiplier <= 1.0:
        raise ValueError("the centre should be hotter than the base")
    rng = np.random.default_rng(seed)
    cx, cy = topology.center
    profile: Dict[Coordinate, float] = {}
    for coord in topology.coordinates():
        x, y = coord
        distance2 = (x - cx) ** 2 + (y - cy) ** 2
        bump = (center_multiplier - 1.0) * float(np.exp(-distance2 / (2.0 * spread**2)))
        power = base_power_w * (1.0 + bump)
        if hot_row is not None and y == hot_row:
            power *= hot_row_multiplier
        if seed is not None:
            power *= 1.0 + 0.02 * rng.standard_normal()
        profile[coord] = max(power, 0.05)
    return profile


def calibrate_profile(
    profile: Dict[Coordinate, float],
    thermal_model: HotSpotModel,
    target_peak_celsius: float,
) -> Tuple[Dict[Coordinate, float], float]:
    """Scale a relative power profile so its steady-state peak hits the target.

    The RC network is linear, so every block's temperature rise above ambient
    scales proportionally with a uniform power scaling; one solve at unit
    scale gives the exact factor.

    Returns the calibrated absolute power map and the scale factor applied.
    """
    ambient = thermal_model.ambient_celsius
    if target_peak_celsius <= ambient:
        raise ValueError(
            f"target peak {target_peak_celsius} must exceed ambient {ambient}"
        )
    if sum(profile.values()) <= 0.0:
        raise ValueError("relative profile must dissipate some power")
    unit_peak = thermal_model.peak_temperature(profile)
    rise = unit_peak - ambient
    if rise <= 1e-9:
        raise ValueError("relative profile produces no temperature rise")
    scale = (target_peak_celsius - ambient) / rise
    calibrated = {coord: power * scale for coord, power in profile.items()}
    return calibrated, scale
