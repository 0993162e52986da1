"""Thermal package parameters (die, interface material, spreader, sink).

These follow the published HotSpot default configuration — the paper states
"the HotSpot tool was left with all settings at the default values and an
ambient temperature of 40 C" — with one deliberate deviation: the convection
resistance defaults to 0.75 K/W instead of HotSpot's 0.1 K/W server heatsink,
a value representative of the modest cooling of an embedded NoC part, so
that the baseline peak temperatures land in the 70–90 °C range the paper
reports for chips dissipating a few tens of watts.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Conversion between Celsius and Kelvin used throughout the thermal model.
KELVIN_OFFSET = 273.15


@dataclass(frozen=True)
class ThermalPackage:
    """Material and geometry constants of the chip's thermal stack.

    All lengths are metres, conductivities W/(m K), volumetric heat
    capacities J/(m^3 K), resistances K/W.
    """

    # Silicon die.
    die_thickness_m: float = 0.15e-3
    silicon_conductivity: float = 100.0
    silicon_volumetric_heat: float = 1.75e6

    # Thermal interface material between die and spreader.
    tim_thickness_m: float = 20e-6
    tim_conductivity: float = 4.0
    tim_volumetric_heat: float = 4.0e6

    # Copper heat spreader.
    spreader_side_m: float = 0.03
    spreader_thickness_m: float = 1.0e-3
    spreader_conductivity: float = 400.0
    spreader_volumetric_heat: float = 3.55e6

    # Heat sink (modelled as one lumped node plus convection to ambient).
    sink_side_m: float = 0.06
    sink_thickness_m: float = 6.9e-3
    sink_conductivity: float = 400.0
    sink_volumetric_heat: float = 3.55e6

    #: Convection resistance from sink to ambient air.
    convection_resistance_k_per_w: float = 0.75
    #: Convection thermal capacitance (air + fins), HotSpot default 140.4 J/K.
    convection_capacitance_j_per_k: float = 140.4

    #: Ambient temperature; the paper uses 40 C.
    ambient_celsius: float = 40.0

    def __post_init__(self) -> None:
        positive_fields = [
            self.die_thickness_m,
            self.silicon_conductivity,
            self.silicon_volumetric_heat,
            self.tim_thickness_m,
            self.tim_conductivity,
            self.tim_volumetric_heat,
            self.spreader_side_m,
            self.spreader_thickness_m,
            self.spreader_conductivity,
            self.spreader_volumetric_heat,
            self.sink_side_m,
            self.sink_thickness_m,
            self.sink_conductivity,
            self.sink_volumetric_heat,
            self.convection_resistance_k_per_w,
            self.convection_capacitance_j_per_k,
        ]
        if any(value <= 0 for value in positive_fields):
            raise ValueError("all package dimensions and material constants must be positive")

    @property
    def ambient_kelvin(self) -> float:
        return self.ambient_celsius + KELVIN_OFFSET


#: Package used unless an experiment overrides it.
DEFAULT_PACKAGE = ThermalPackage()
