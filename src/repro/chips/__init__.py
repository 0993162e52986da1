"""The five evaluated chip configurations and their power-profile builders."""

from .configurations import (
    PAPER_AVERAGE_REDUCTIONS,
    PAPER_BASE_PEAKS_CELSIUS,
    ChipConfiguration,
    all_configurations,
    configuration_a,
    configuration_b,
    configuration_c,
    configuration_d,
    configuration_e,
    configuration_names,
    get_configuration,
)
from .profiles import (
    calibrate_profile,
    center_hotspot_profile,
    hot_row_profile,
)

__all__ = [
    "PAPER_AVERAGE_REDUCTIONS",
    "PAPER_BASE_PEAKS_CELSIUS",
    "ChipConfiguration",
    "all_configurations",
    "configuration_a",
    "configuration_b",
    "configuration_c",
    "configuration_d",
    "configuration_e",
    "configuration_names",
    "get_configuration",
    "calibrate_profile",
    "center_hotspot_profile",
    "hot_row_profile",
]
