"""Technology constants standing in for the paper's 160 nm standard-cell flow.

The paper obtains per-unit power from Synopsys Power Compiler runs on two
test chips synthesised in a commercial 160 nm library.  We cannot run that
flow, so this module captures the handful of numbers the rest of the model
needs — supply voltage, switched capacitance per operation, leakage density,
clock frequency and the 4.36 mm^2 per-PE area stated in the paper — with
values representative of a 160-180 nm process.  Only *relative* per-PE power
matters for the thermal comparison, so the calibration constants below are
chosen to land the baseline peak temperatures in the 70-90 degree C range the
paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyLibrary:
    """Electrical constants of the implementation technology.

    Attributes
    ----------
    name:
        Human-readable label of the technology node.
    supply_voltage_v:
        Core supply voltage.  1.8 V is standard for 160-180 nm.
    clock_frequency_hz:
        Operating frequency of the PEs and NoC.
    switched_capacitance_per_op_f:
        Effective switched capacitance of one "operation" (one Tanner-edge
        update step in a PE datapath), in farads.  Dynamic energy per op is
        ``C * V^2``.
    router_energy_per_flit_j:
        Energy for one flit to traverse one router (buffering + crossbar +
        arbitration), in joules.
    link_energy_per_flit_j:
        Energy for one flit to traverse one inter-router link.
    leakage_power_density_w_per_mm2:
        Static power per mm^2 of active silicon (small at 160 nm).
    unit_area_mm2:
        Area of one functional unit (PE plus its router); 4.36 mm^2 per the
        paper.
    """

    name: str = "generic-160nm"
    supply_voltage_v: float = 1.8
    clock_frequency_hz: float = 500e6
    switched_capacitance_per_op_f: float = 2.0e-12
    router_energy_per_flit_j: float = 8.0e-10
    link_energy_per_flit_j: float = 4.0e-10
    leakage_power_density_w_per_mm2: float = 0.004
    unit_area_mm2: float = 4.36

    def __post_init__(self) -> None:
        if self.supply_voltage_v <= 0:
            raise ValueError("supply voltage must be positive")
        if self.clock_frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")
        if self.switched_capacitance_per_op_f <= 0:
            raise ValueError("switched capacitance must be positive")
        if self.unit_area_mm2 <= 0:
            raise ValueError("unit area must be positive")
        if self.leakage_power_density_w_per_mm2 < 0:
            raise ValueError("leakage density cannot be negative")


#: Default library used throughout the reproduction.
DEFAULT_LIBRARY = TechnologyLibrary()
