"""HotSpot-style thermal model of one chip configuration.

The rest of the system talks to :class:`HotSpotModel`: give it a floorplan
(or a mesh topology) and per-unit power in watts, and it returns per-unit
temperatures in Celsius.  Defaults reproduce the paper's setup: HotSpot-like
default package, 40 °C ambient, 4.36 mm² functional units.

HotSpot's block and grid modes differ only in how finely the floorplan is
meshed, and so does this model: at ``resolution=N`` every unit is split into
``N x N`` cells, each unit's power is spread evenly over its cells, and each
unit reads as its hottest cell.  Resolution 1 is the block model (one cell
per unit); finer resolutions expose the intra-unit gradient, since the true
peak sits at the centre of a hot unit, slightly above its average.

Both solves run on operators reduced to the units: the steady ``rows @ R +
T0`` (built at construction) and the transient's
:class:`~repro.thermal.solver.TransientOperator` (built on the first
transient), so a run scatters no power into node space and forms no
node-space trajectory.  Every operator is read-only, also after unpickling,
so one model serves every run and thread of a process.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..noc.topology import Coordinate, MeshTopology
from ..power.trace import PowerTrace, map_to_vector, vector_to_map
from .floorplan import (
    Floorplan,
    block_name_for,
    mesh_floorplan,
    parent_block_name,
    refine_floorplan,
)
from .package import KELVIN_OFFSET, DEFAULT_PACKAGE, ThermalPackage
from .rc_model import ThermalNetwork, build_thermal_network
from .solver import ThermalSolver, TransientOperator, TransientResult, freeze


class HotSpotModel:
    """Thermal model of one chip configuration.

    Parameters
    ----------
    topology:
        Mesh of functional units; the floorplan is generated from it unless
        an explicit ``floorplan`` is supplied.
    package:
        Thermal package constants (defaults to the HotSpot-like defaults with
        a 40 °C ambient).
    unit_area_mm2:
        Area of one functional unit when generating the mesh floorplan.
    resolution:
        Cells per unit along each side: the RC network has ``resolution**2``
        die nodes per unit (1 is the block model).

    Power and temperatures are ``(num_rows, num_units)`` arrays in the
    topology's row-major coordinate order (the index shared with
    :class:`repro.power.trace.PowerTrace`); ``steady_state_by_coord`` and
    ``peak_temperature`` are the per-coordinate dict views.
    """

    def __init__(
        self,
        topology: MeshTopology,
        package: ThermalPackage = DEFAULT_PACKAGE,
        unit_area_mm2: float = 4.36,
        floorplan: Optional[Floorplan] = None,
        resolution: int = 1,
    ):
        self.topology = topology
        self.package = package
        self.resolution = resolution
        self.floorplan = floorplan or mesh_floorplan(topology, unit_area_mm2)
        cells = refine_floorplan(self.floorplan, resolution)
        self.network: ThermalNetwork = build_thermal_network(cells, package)
        self.solver = ThermalSolver(self.network)
        nodes_of_unit: Dict[str, list] = {}
        for cell in cells:
            nodes_of_unit.setdefault(parent_block_name(cell.name), []).append(
                self.network.block_node_index[cell.name]
            )
        #: ``(num_units, resolution**2)`` die nodes of each unit's cells, in
        #: row-major coordinate order.
        self.unit_nodes = np.array(
            [nodes_of_unit[block_name_for(coord)] for coord in topology.coordinates()],
            dtype=np.int64,
        )
        #: ``(num_units, num_nodes)``: ``rows @ _injection`` spreads unit
        #: power rows evenly over each unit's cells.
        self._injection = self.node_power_matrix(np.eye(topology.num_nodes))
        freeze(self._injection, self.unit_nodes)
        # The steady solve in unit space: ``rows @ R + T0`` is the kelvin of
        # every unit's cells.  The transient operator is built on the first
        # transient, with the solver's eigenbasis.
        self._unit_operator, self._unit_offset = self.solver.reduced_steady_operator(
            self._injection, self.unit_nodes.ravel()
        )
        self._transient_operator: Optional[TransientOperator] = None

    def __setstate__(self, state):
        # Pickle keeps no read-only flags: freeze the operators again.
        self.__dict__.update(state)
        freeze(self._injection, self.unit_nodes, self._unit_operator, self._unit_offset)

    # ------------------------------------------------------------------
    def _unit_rows(self, power_rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(power_rows, dtype=float)
        if rows.ndim == 1:
            rows = rows[np.newaxis, :]
        if rows.ndim != 2 or rows.shape[1] != self.topology.num_nodes:
            raise ValueError(
                f"expected {self.topology.num_nodes} units per row, "
                f"got shape {rows.shape}"
            )
        return rows

    def node_power_matrix(self, power_rows: np.ndarray) -> np.ndarray:
        """Scatter ``(num_rows, num_units)`` power rows evenly over each unit's cells."""
        rows = self._unit_rows(power_rows)
        cells_per_unit = self.unit_nodes.shape[1]
        matrix = np.zeros((rows.shape[0], self.network.num_nodes))
        matrix[:, self.unit_nodes.ravel()] = (rows / cells_per_unit).repeat(
            cells_per_unit, axis=1
        )
        return matrix

    def steady_temperatures(self, power_rows: np.ndarray) -> np.ndarray:
        """Per-unit steady temperatures (Celsius) for many power rows at once.

        One product with the unit-space operator built from the solver's
        ``A^-T`` evaluates every row; each unit reads as its hottest cell.
        """
        rows = self._unit_rows(power_rows)
        kelvin = self.solver.steady_state_reduced(
            rows, self._unit_operator, self._unit_offset
        )
        cells_per_unit = self.unit_nodes.shape[1]
        if cells_per_unit > 1:
            kelvin = kelvin.reshape(rows.shape[0], -1, cells_per_unit).max(axis=-1)
        # Celsius last, as the node-space solve converts (in place: the
        # solve returned a fresh array).
        kelvin -= KELVIN_OFFSET
        return kelvin

    def steady_state_by_coord(
        self, power_by_coord: Dict[Coordinate, float]
    ) -> Dict[Coordinate, float]:
        """Steady-state temperatures keyed by mesh coordinate."""
        temps = self.steady_temperatures(map_to_vector(self.topology, power_by_coord))
        return vector_to_map(self.topology, temps[0])

    def peak_temperature(self, power_by_coord: Dict[Coordinate, float]) -> float:
        """Peak steady-state temperature (Celsius) for a power map."""
        temps = self.steady_temperatures(map_to_vector(self.topology, power_by_coord))
        return float(temps.max())

    # ------------------------------------------------------------------
    def transient_sequence(
        self,
        trace: PowerTrace,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        ambient_offsets_kelvin: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Transient evolution under a piecewise-constant power trace.

        The trace's unit rows go straight into the unit-space transient
        operator (built once, on the first call), so the closed form
        evaluates every sample only at the units' cells: the result's
        ``samples`` are per-unit Celsius, each unit its hottest cell, and its
        ``final_state_kelvin`` the node state to carry into the next trace.
        ``initial_state`` is a node vector in kelvin (see :meth:`warm_state`),
        and ``ambient_offsets_kelvin`` shifts the ambient boundary per
        interval (exact time-varying ambient; see
        :meth:`repro.thermal.solver.ThermalSolver.transient_reduced`).
        """
        operator = self._transient_operator
        if operator is None:
            operator = self._transient_operator = self.solver.reduced_transient_operator(
                self._injection, self.unit_nodes.ravel()
            )
        kelvin, starts, stops, final = self.solver.transient_reduced(
            operator,
            trace.durations,
            trace.powers,
            initial_state,
            time_step_s,
            ambient_offsets_kelvin,
        )
        cells_per_unit = self.unit_nodes.shape[1]
        if cells_per_unit > 1:
            kelvin = kelvin.reshape(len(kelvin), -1, cells_per_unit).max(axis=-1)
        kelvin -= KELVIN_OFFSET
        return TransientResult(kelvin, starts, stops, final)

    def warm_state(self, power_row: np.ndarray, ambient_offset_kelvin: float = 0.0) -> np.ndarray:
        """Steady-state node vector used to start transients already warm.

        ``power_row`` is a row-major per-unit power vector, injected onto
        the nodes by one product (one steady solve);
        ``ambient_offset_kelvin`` shifts the ambient boundary of the solve.
        """
        return self.solver.warm_state(
            (self._unit_rows(power_row) @ self._injection)[0],
            ambient_offset_kelvin=ambient_offset_kelvin,
        )

    # ------------------------------------------------------------------
    @property
    def ambient_celsius(self) -> float:
        return self.package.ambient_celsius
