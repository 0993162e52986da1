"""Power modelling: technology constants and power traces.

This package substitutes the paper's Synopsys Power Compiler flow, which
needs the synthesised netlists and cell libraries the paper used: the chip
configurations derive per-PE watts from the technology constants of
:mod:`repro.power.library`, and :mod:`repro.power.trace` carries per-epoch
power rows to the thermal model.
"""

from .library import DEFAULT_LIBRARY, TechnologyLibrary
from .trace import PowerTrace, map_to_vector, vector_to_map

__all__ = [
    "DEFAULT_LIBRARY",
    "TechnologyLibrary",
    "PowerTrace",
    "map_to_vector",
    "vector_to_map",
]
