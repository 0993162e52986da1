"""HotSpot-style thermal modelling: floorplans, RC networks and solvers.

This package substitutes the HotSpot thermal library the paper uses: the
same lumped-RC abstraction (die, interface material, spreader, sink,
convection to a 40 °C ambient) at block or grid resolution, with
steady-state and transient solvers built on numpy alone.
"""

from .floorplan import Block, Floorplan, block_name_for, mesh_floorplan, refine_floorplan
from .hotspot import HotSpotModel
from .package import DEFAULT_PACKAGE, KELVIN_OFFSET, ThermalPackage
from .rc_model import ThermalNetwork, build_thermal_network
from .solver import ThermalSolver, TransientResult

__all__ = [
    "Block",
    "Floorplan",
    "block_name_for",
    "mesh_floorplan",
    "refine_floorplan",
    "HotSpotModel",
    "DEFAULT_PACKAGE",
    "KELVIN_OFFSET",
    "ThermalPackage",
    "ThermalNetwork",
    "build_thermal_network",
    "ThermalSolver",
    "TransientResult",
]
