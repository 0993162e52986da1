"""Construction of the lumped RC thermal network from a floorplan.

This is the block-level model HotSpot popularised: every floorplan block gets
one node in the silicon die layer and one in the heat-spreader layer;
adjacent blocks are coupled laterally, each die node couples vertically
through the thermal interface material into its spreader node, the spreader
couples into a periphery node and a lumped heat-sink node, and the sink
convects to ambient.  The result is a conductance matrix ``G``, a capacitance
vector ``C`` and a power-injection map that the solvers in
:mod:`repro.thermal.solver` consume.

Node ordering (``n`` = number of blocks):

* ``0 .. n-1``        — die nodes, in floorplan block order (power goes here)
* ``n .. 2n-1``       — spreader nodes under each block
* ``2n``              — spreader periphery node
* ``2n + 1``          — heat-sink node (couples to ambient)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .floorplan import Block, Floorplan
from .package import DEFAULT_PACKAGE, ThermalPackage


@dataclass
class ThermalNetwork:
    """The assembled RC network.

    Attributes
    ----------
    conductance:
        Symmetric ``(num_nodes, num_nodes)`` matrix of inter-node thermal
        conductances in W/K.  ``conductance[i, j]`` couples nodes i and j;
        the diagonal is zero (ambient coupling is kept separately).
    ambient_conductance:
        Per-node conductance to the ambient boundary node, W/K.
    capacitance:
        Per-node thermal capacitance, J/K.
    block_node_index:
        Map from floorplan block name to the die node carrying its power.
    ambient_kelvin:
        Ambient temperature used as the boundary condition.
    """

    conductance: np.ndarray
    ambient_conductance: np.ndarray
    capacitance: np.ndarray
    block_node_index: Dict[str, int]
    ambient_kelvin: float
    node_names: List[str] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return self.conductance.shape[0]

    def system_matrix(self) -> np.ndarray:
        """Laplacian-style matrix ``A`` with ``A @ T = P + G_amb * T_amb``.

        ``A[i, i] = sum_j G[i, j] + G_amb[i]`` and ``A[i, j] = -G[i, j]``.
        """
        A = -self.conductance.copy()
        np.fill_diagonal(A, self.conductance.sum(axis=1) + self.ambient_conductance)
        return A


def _lateral_resistance(
    a: Block, b: Block, shared_length: float, thickness: float, conductivity: float
) -> float:
    """Lateral resistance between two adjacent blocks in one layer."""
    ax, ay = a.center
    bx, by = b.center
    distance = math.hypot(bx - ax, by - ay)
    area = thickness * shared_length
    return distance / (conductivity * area)


def build_thermal_network(
    floorplan: Floorplan,
    package: ThermalPackage = DEFAULT_PACKAGE,
) -> ThermalNetwork:
    """Assemble the RC network for ``floorplan`` under ``package``."""
    blocks = list(floorplan)
    n = len(blocks)
    num_nodes = 2 * n + 2
    periphery = 2 * n
    sink = 2 * n + 1

    G = np.zeros((num_nodes, num_nodes))
    G_ambient = np.zeros(num_nodes)
    C = np.zeros(num_nodes)
    names: List[str] = (
        [f"die:{b.name}" for b in blocks]
        + [f"spreader:{b.name}" for b in blocks]
        + ["spreader:periphery", "sink"]
    )

    def couple(i: int, j: int, resistance: float) -> None:
        if resistance <= 0:
            raise ValueError("thermal resistance must be positive")
        G[i, j] += 1.0 / resistance
        G[j, i] += 1.0 / resistance

    # ------------------------------------------------------------------
    # Die layer: lateral coupling between adjacent blocks.
    adjacency = floorplan.adjacency()
    index_of = {block.name: idx for idx, block in enumerate(blocks)}
    for (name_a, name_b), shared in adjacency.items():
        a = floorplan.block(name_a)
        b = floorplan.block(name_b)
        resistance = _lateral_resistance(
            a, b, shared, package.die_thickness_m, package.silicon_conductivity
        )
        couple(index_of[name_a], index_of[name_b], resistance)

    # Spreader layer: lateral coupling mirrors the die adjacency.
    for (name_a, name_b), shared in adjacency.items():
        a = floorplan.block(name_a)
        b = floorplan.block(name_b)
        resistance = _lateral_resistance(
            a, b, shared, package.spreader_thickness_m, package.spreader_conductivity
        )
        couple(n + index_of[name_a], n + index_of[name_b], resistance)

    x_min, y_min, x_max, y_max = floorplan.bounding_box
    spreader_margin = max(
        (package.spreader_side_m - max(x_max - x_min, y_max - y_min)) / 2.0,
        package.spreader_thickness_m,
    )

    for idx, block in enumerate(blocks):
        die_node = idx
        spreader_node = n + idx
        area = block.area

        # Vertical path die -> (TIM) -> spreader centre.
        r_vertical = (
            package.die_thickness_m / (2.0 * package.silicon_conductivity * area)
            + package.tim_thickness_m / (package.tim_conductivity * area)
            + package.spreader_thickness_m / (2.0 * package.spreader_conductivity * area)
        )
        couple(die_node, spreader_node, r_vertical)

        # Vertical path spreader centre -> sink.
        r_to_sink = (
            package.spreader_thickness_m / (2.0 * package.spreader_conductivity * area)
            + package.sink_thickness_m / (2.0 * package.sink_conductivity * area)
        )
        couple(spreader_node, sink, r_to_sink)

        # Blocks on the die boundary couple laterally into the spreader
        # periphery (the copper that extends beyond the die).
        exposed_edges = 0.0
        tol = 1e-12
        if abs(block.x - x_min) < tol:
            exposed_edges += block.height
        if abs(block.x_max - x_max) < tol:
            exposed_edges += block.height
        if abs(block.y - y_min) < tol:
            exposed_edges += block.width
        if abs(block.y_max - y_max) < tol:
            exposed_edges += block.width
        if exposed_edges > 0:
            r_periphery = spreader_margin / (
                package.spreader_conductivity * package.spreader_thickness_m * exposed_edges
            )
            couple(spreader_node, periphery, r_periphery)

        # Capacitances.
        C[die_node] = package.silicon_volumetric_heat * area * package.die_thickness_m
        C[spreader_node] = (
            package.spreader_volumetric_heat * area * package.spreader_thickness_m
        )

    # Periphery node: remaining spreader copper outside the die shadow.
    die_area = floorplan.total_area
    spreader_area = package.spreader_side_m**2
    periphery_area = max(spreader_area - die_area, die_area * 0.1)
    C[periphery] = (
        package.spreader_volumetric_heat * periphery_area * package.spreader_thickness_m
    )
    # Periphery couples vertically into the sink as well.
    r_periphery_sink = (
        package.spreader_thickness_m / (2.0 * package.spreader_conductivity * periphery_area)
        + package.sink_thickness_m / (2.0 * package.sink_conductivity * periphery_area)
    )
    couple(periphery, sink, r_periphery_sink)

    # Sink node: lumped fins + base, convecting to ambient.
    sink_area = package.sink_side_m**2
    C[sink] = (
        package.sink_volumetric_heat * sink_area * package.sink_thickness_m
        + package.convection_capacitance_j_per_k
    )
    G_ambient[sink] = 1.0 / package.convection_resistance_k_per_w

    block_node_index = {block.name: idx for idx, block in enumerate(blocks)}
    return ThermalNetwork(
        conductance=G,
        ambient_conductance=G_ambient,
        capacitance=C,
        block_node_index=block_node_index,
        ambient_kelvin=package.ambient_kelvin,
        node_names=names,
    )
