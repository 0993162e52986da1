"""Switching-activity collection and the analytic routing-based estimator.

Two paths produce per-unit activity for a power interval:

* the **simulated path** reads the per-router counters a cycle-accurate
  run collected (:attr:`repro.noc.simulator.SimulationResult.router_activity`),
  and
* the **analytic path** walks the deterministic XY route of every traffic
  flow and charges its flits to each router on the path.  Because XY routing
  is deterministic, both paths agree on which routers carry which flits; the
  analytic path is what makes sweeping hundreds of migration epochs cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..noc.routing import RoutingAlgorithm, XYRouting
from ..noc.topology import Coordinate, MeshTopology


@dataclass
class UnitActivity:
    """Activity of one functional unit over a power interval."""

    computation_ops: float = 0.0
    router_flits: float = 0.0
    extra_energy_j: float = 0.0

    def merge(self, other: "UnitActivity") -> "UnitActivity":
        return UnitActivity(
            computation_ops=self.computation_ops + other.computation_ops,
            router_flits=self.router_flits + other.router_flits,
            extra_energy_j=self.extra_energy_j + other.extra_energy_j,
        )


@dataclass
class ActivityMap:
    """Per-coordinate activity for one interval."""

    topology: MeshTopology
    units: Dict[Coordinate, UnitActivity] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for coord in self.topology.coordinates():
            self.units.setdefault(coord, UnitActivity())

    def add_computation(self, coord: Coordinate, ops: float) -> None:
        if not self.topology.contains(coord):
            raise ValueError(f"coordinate {coord} outside mesh")
        self.units[coord].computation_ops += ops

    def add_router_flits(self, coord: Coordinate, flits: float) -> None:
        if not self.topology.contains(coord):
            raise ValueError(f"coordinate {coord} outside mesh")
        self.units[coord].router_flits += flits

    def add_energy(self, coord: Coordinate, energy_j: float) -> None:
        if not self.topology.contains(coord):
            raise ValueError(f"coordinate {coord} outside mesh")
        self.units[coord].extra_energy_j += energy_j

    def merge(self, other: "ActivityMap") -> "ActivityMap":
        if other.topology != self.topology:
            raise ValueError("cannot merge activity maps of different meshes")
        merged = ActivityMap(self.topology)
        for coord in self.topology.coordinates():
            merged.units[coord] = self.units[coord].merge(other.units[coord])
        return merged

    def total_computation_ops(self) -> float:
        return sum(unit.computation_ops for unit in self.units.values())

    def total_router_flits(self) -> float:
        return sum(unit.router_flits for unit in self.units.values())

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-major (ops, flits, extra energy) arrays over the mesh."""
        n = self.topology.num_nodes
        ops = np.zeros(n)
        flits = np.zeros(n)
        energy = np.zeros(n)
        for coord, unit in self.units.items():
            idx = self.topology.node_id(coord)
            ops[idx] = unit.computation_ops
            flits[idx] = unit.router_flits
            energy[idx] = unit.extra_energy_j
        return ops, flits, energy


def activity_from_simulation(
    topology: MeshTopology,
    router_activity: Mapping[Coordinate, "object"],
    computation_ops: Optional[Mapping[Coordinate, float]] = None,
) -> ActivityMap:
    """Build an :class:`ActivityMap` from simulated router counters."""
    amap = ActivityMap(topology)
    for coord, activity in router_activity.items():
        amap.add_router_flits(coord, float(activity.flits_routed))
    if computation_ops:
        for coord, ops in computation_ops.items():
            amap.add_computation(coord, float(ops))
    return amap


def analytic_router_flits(
    topology: MeshTopology,
    flows: Mapping[Tuple[Coordinate, Coordinate], float],
    routing: Optional[RoutingAlgorithm] = None,
) -> Dict[Coordinate, float]:
    """Charge each flow's flits to every router on its deterministic route.

    Parameters
    ----------
    flows:
        Mapping from (source, destination) coordinate pairs to flits carried
        per interval.
    routing:
        Routing algorithm; defaults to XY, matching the simulator.

    Returns
    -------
    Per-router flit counts, including the source and destination routers
    (every flit is buffered and switched at both endpoints).
    """
    routing = routing or XYRouting(topology)
    per_router: Dict[Coordinate, float] = {coord: 0.0 for coord in topology.coordinates()}
    for (source, destination), flits in flows.items():
        if flits < 0:
            raise ValueError("flow volume cannot be negative")
        if flits == 0:
            continue
        for hop in routing.path(source, destination):
            per_router[hop] += flits
    return per_router
