"""Power models for processing elements, routers and whole functional units.

The paper's per-unit power numbers come from Synopsys Power Compiler applied
to the switching rates reported by a cycle-accurate NoC simulation.  We keep
exactly that structure — *activity in, watts out* — but with analytic models:

* PE dynamic power is ``ops_per_second * C * V^2`` (activity-proportional),
* router/link energy is a fixed energy per flit event (an Orion-style model),
* every unit pays an area-proportional leakage floor.

The :class:`UnitPowerModel` combines the three into the per-functional-unit
power vector the thermal model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..noc.stats import RouterActivity
from .library import DEFAULT_LIBRARY, TechnologyLibrary

Coordinate = Tuple[int, int]


@dataclass(frozen=True)
class PePowerModel:
    """Dynamic + leakage power of a processing element's datapath."""

    library: TechnologyLibrary = DEFAULT_LIBRARY
    #: Fraction of the unit area occupied by the PE datapath (rest is router).
    area_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.area_fraction <= 1.0:
            raise ValueError("area fraction must be in (0, 1]")

    def dynamic_power(self, ops_per_second: float) -> float:
        """Dynamic power for a sustained operation rate."""
        if ops_per_second < 0:
            raise ValueError("operation rate cannot be negative")
        return ops_per_second * self.library.dynamic_energy_per_op_j

    def leakage_power(self) -> float:
        """Static power of the PE portion of the unit."""
        return self.library.unit_leakage_power_w * self.area_fraction

    def power(self, ops: float, interval_s: float) -> float:
        """Average power over an interval in which ``ops`` operations ran."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        return self.dynamic_power(ops / interval_s) + self.leakage_power()

    def energy(self, ops: float, interval_s: float) -> float:
        """Energy consumed over the interval (dynamic + leakage)."""
        return self.power(ops, interval_s) * interval_s


@dataclass(frozen=True)
class RouterPowerModel:
    """Per-flit-event energy model of a wormhole router and its links."""

    library: TechnologyLibrary = DEFAULT_LIBRARY
    area_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.area_fraction <= 1.0:
            raise ValueError("area fraction must be in (0, 1]")

    def energy_from_activity(self, activity: RouterActivity) -> float:
        """Energy of the recorded router events.

        Buffer reads/writes and crossbar traversals are folded into the
        per-flit router energy; link traversals use the per-flit link energy.
        """
        router_events = (
            activity.buffer_reads + activity.buffer_writes + activity.crossbar_traversals
        )
        # Three events (write, read, crossbar) make up one flit's router
        # traversal, so each event carries a third of the per-flit energy.
        router_energy = router_events * (self.library.router_energy_per_flit_j / 3.0)
        link_energy = activity.link_traversals * self.library.link_energy_per_flit_j
        return router_energy + link_energy

    def energy_from_flits(self, router_flits: float, link_flits: float = None) -> float:
        """Energy when only aggregate flit counts are known (analytic path)."""
        if router_flits < 0:
            raise ValueError("flit count cannot be negative")
        if link_flits is None:
            link_flits = router_flits
        return (
            router_flits * self.library.router_energy_per_flit_j
            + link_flits * self.library.link_energy_per_flit_j
        )

    def leakage_power(self) -> float:
        """Static power of the router portion of the unit."""
        return self.library.unit_leakage_power_w * self.area_fraction

    def power_from_activity(self, activity: RouterActivity, interval_s: float) -> float:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        return self.energy_from_activity(activity) / interval_s + self.leakage_power()


@dataclass(frozen=True)
class UnitPowerModel:
    """Combined PE + router power of one functional unit (one mesh tile)."""

    library: TechnologyLibrary = DEFAULT_LIBRARY
    pe_area_fraction: float = 0.8

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pe_model", PePowerModel(self.library, area_fraction=self.pe_area_fraction)
        )
        object.__setattr__(
            self,
            "router_model",
            RouterPowerModel(self.library, area_fraction=1.0 - self.pe_area_fraction),
        )

    def unit_power(
        self,
        computation_ops: float,
        router_flits: float,
        interval_s: float,
        extra_energy_j: float = 0.0,
    ) -> float:
        """Average power of one unit over an interval.

        Parameters
        ----------
        computation_ops:
            Datapath operations executed by the PE during the interval.
        router_flits:
            Flits that traversed this unit's router during the interval.
        interval_s:
            Interval length in seconds.
        extra_energy_j:
            Additional energy charged to this unit during the interval, e.g.
            its share of a migration operation.
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        pe_power = self.pe_model.power(computation_ops, interval_s)
        router_energy = self.router_model.energy_from_flits(router_flits)
        router_power = router_energy / interval_s + self.router_model.leakage_power()
        return pe_power + router_power + extra_energy_j / interval_s

    def idle_power(self) -> float:
        """Leakage-only power of one unit."""
        return self.pe_model.leakage_power() + self.router_model.leakage_power()
