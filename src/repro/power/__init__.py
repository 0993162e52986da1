"""Power modelling: technology constants, PE/router power and power traces.

This package substitutes the paper's Synopsys Power Compiler flow with an
activity-proportional analytic model, because that flow needs the synthesised
netlists and cell libraries the paper used, which are not available: switching
activity from the NoC simulator or the analytic XY route estimator goes in,
per-functional-unit watts (energy per operation or flit from the technology
constants, plus leakage by area) come out.
"""

from .activity import (
    ActivityMap,
    UnitActivity,
    activity_from_simulation,
    analytic_router_flits,
)
from .library import DEFAULT_LIBRARY, TechnologyLibrary
from .models import PePowerModel, RouterPowerModel, UnitPowerModel
from .trace import PowerTrace, map_to_vector, vector_to_map

__all__ = [
    "ActivityMap",
    "UnitActivity",
    "activity_from_simulation",
    "analytic_router_flits",
    "DEFAULT_LIBRARY",
    "TechnologyLibrary",
    "PePowerModel",
    "RouterPowerModel",
    "UnitPowerModel",
    "PowerTrace",
    "map_to_vector",
    "vector_to_map",
]
