"""The five test-chip configurations (A, B on 4x4; C, D, E on 5x5).

Section 2 of the paper: "the 4x4 chip is evaluated with two different
configurations (referred to as A and B), while the 5x5 chip is evaluated with
three different configurations (C, D, E).  Differences in thermal profiles
and power consumption between the configurations are due to the irregularity
of the communication patterns and the amount of computation mapped to a
single PE."

Each :class:`ChipConfiguration` bundles:

* the mesh topology and its floorplan/thermal model,
* an LDPC workload partitioned over the PEs (communication + state sizes),
* the *thermally-optimised static mapping* the paper starts from,
* the per-unit power profile under that mapping, calibrated so the baseline
  peak temperature matches the value printed on Figure 1's x-axis
  (85.44 / 84.05 / 75.17 / 72.8 / 75.98 °C), and
* its migration unit and its per-task arrays, each built once per
  configuration object: every controller of the chip shares the unit's
  memo of lowered plans and reads the read-only arrays.

The profiles are constructed, not measured, because the paper's per-PE
powers came out of a synthesis flow this reproduction does not have (see
:mod:`repro.power`): each profile is a relative power map
(:func:`~repro.chips.profiles.hot_row_profile`, or
:func:`~repro.chips.profiles.center_hotspot_profile` for E) scaled by
:func:`~repro.chips.profiles.calibrate_profile` until its steady peak is
Figure 1's printed baseline.  Every configuration carries the warm band (hot
row) the paper describes, and configuration E concentrates its hotspots near
the centre of the die.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..ldpc.matrix import array_code_parity_matrix
from ..ldpc.partition import make_partition
from ..ldpc.tanner import TannerGraph
from ..ldpc.workload import LdpcNocWorkload, WorkloadParameters
from ..migration.unit import MigrationUnit
from ..noc.engine import SimulationClock
from ..noc.topology import Coordinate, MeshTopology
from ..placement.mapping import Mapping
from ..power.library import DEFAULT_LIBRARY, TechnologyLibrary
from ..thermal.hotspot import HotSpotModel
from ..thermal.package import DEFAULT_PACKAGE, ThermalPackage
from .profiles import calibrate_profile, center_hotspot_profile, hot_row_profile

#: Baseline peak temperatures printed on Figure 1's x-axis, per configuration.
PAPER_BASE_PEAKS_CELSIUS: Dict[str, float] = {
    "A": 85.44,
    "B": 84.05,
    "C": 75.17,
    "D": 72.80,
    "E": 75.98,
}

#: Paper-reported average peak-temperature reductions (deg C) for context.
PAPER_AVERAGE_REDUCTIONS: Dict[str, float] = {
    "xy-shift": 4.62,
    "rotation": 4.15,
}


class TaskArrays(NamedTuple):
    """A chip's per-task constants as read-only arrays, indexed by task."""

    #: task -> node of the static (design-time) mapping.
    static_nodes: np.ndarray
    #: Each task's power (W).
    watts: np.ndarray
    #: Tanner nodes each task owns (its migrated state).
    tanner_nodes: np.ndarray
    #: ``tanner_nodes`` as bytes: the sizes' part of a plan-memo key.
    tanner_key: bytes


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class ChipConfiguration:
    """One evaluated chip configuration."""

    name: str
    topology: MeshTopology
    workload: LdpcNocWorkload
    static_mapping: Mapping
    unit_power_w: Dict[Coordinate, float]
    thermal_model: HotSpotModel
    clock: SimulationClock
    library: TechnologyLibrary
    base_peak_target_celsius: float
    description: str = ""

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Pickle keeps no read-only flags: an unpickled chip's task arrays
        # are read-only again (its plans and operators re-freeze themselves).
        self.__dict__.update(state)
        arrays = state.get("task_arrays")
        if arrays is not None:
            for array in (arrays.static_nodes, arrays.watts, arrays.tanner_nodes):
                _read_only(array)

    # ------------------------------------------------------------------
    @property
    def num_units(self) -> int:
        return self.topology.num_nodes

    @property
    def total_power_w(self) -> float:
        return sum(self.unit_power_w.values())

    @cached_property
    def migration_unit(self) -> MigrationUnit:
        """The chip's migration unit, built on first read.

        Not a field, so equality ignores it and ``dataclasses.replace``
        gives the copy a unit (and plan memo) of its own.
        """
        return MigrationUnit(self.topology, library=self.library)

    @cached_property
    def task_arrays(self) -> TaskArrays:
        """The per-task arrays every controller of the chip reads, built on
        first read (like :attr:`migration_unit`, a ``dataclasses.replace``
        copy builds its own)."""
        tasks = range(self.num_units)
        watts = self.per_task_power()
        sizes = self.tanner_nodes_per_task()
        tanner_nodes = _read_only(
            np.array([sizes[task] for task in tasks], dtype=np.int64)
        )
        return TaskArrays(
            static_nodes=_read_only(
                np.array(self.static_mapping.to_permutation(), dtype=np.intp)
            ),
            watts=_read_only(np.array([watts[task] for task in tasks])),
            tanner_nodes=tanner_nodes,
            tanner_key=tanner_nodes.tobytes(),
        )

    def per_task_power(self) -> Dict[int, float]:
        """Power of each logical task, inferred from the static mapping.

        Under the static (design-time) mapping, task ``t`` runs on PE
        ``static_mapping.physical_of(t)`` and dissipates that unit's power;
        when a migration moves the task, its power moves with it.
        """
        return {
            task: self.unit_power_w[self.static_mapping.physical_of(task)]
            for task in range(self.num_units)
        }

    def power_map(self, mapping: Optional[Mapping] = None) -> Dict[Coordinate, float]:
        """Per-PE power when tasks sit according to ``mapping``.

        With the default (static) mapping this returns the calibrated profile
        itself.
        """
        mapping = mapping or self.static_mapping
        per_task = self.per_task_power()
        return {mapping.physical_of(task): watts for task, watts in per_task.items()}

    def power_vector(self, mapping: Optional[Mapping] = None) -> np.ndarray:
        """Row-major per-PE power vector when tasks sit according to ``mapping``.

        The array-native counterpart of :meth:`power_map`: entry
        ``topology.node_id(coord)`` carries the power at ``coord``, exactly
        the coordinate index :class:`repro.power.trace.PowerTrace` rows use.
        """
        mapping = mapping or self.static_mapping
        vector = np.zeros(self.num_units)
        for task, watts in self.per_task_power().items():
            vector[self.topology.node_id(mapping.physical_of(task))] = watts
        return vector

    # ------------------------------------------------------------------
    def base_peak_temperature(self) -> float:
        """Steady-state peak temperature of the static mapping (no migration)."""
        return self.thermal_model.peak_temperature(self.power_map())

    def tanner_nodes_per_task(self) -> Dict[int, int]:
        """Number of Tanner nodes owned by each logical task (state sizing)."""
        sizes = self.workload.partition.task_sizes()
        return {task: sizes[task] for task in range(self.num_units)}

    def block_period_cycles(self, period_us: float) -> int:
        """Cycles in one migration period at this chip's clock."""
        return self.clock.microseconds_to_cycles(period_us)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChipConfiguration({self.name}, {self.topology.width}x{self.topology.height}, "
            f"{self.total_power_w:.1f} W)"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _build_workload(
    topology: MeshTopology,
    code_p: int,
    partition_strategy: str,
    seed: int,
) -> LdpcNocWorkload:
    """LDPC workload sized for the given mesh."""
    H = array_code_parity_matrix(p=code_p, j=3, k=6)
    graph = TannerGraph(H)
    partition = make_partition(partition_strategy, graph, topology.num_nodes, seed=seed)
    return LdpcNocWorkload(partition, WorkloadParameters())


def _make_configuration(
    name: str,
    topology: MeshTopology,
    profile: Dict[Coordinate, float],
    partition_strategy: str,
    code_p: int,
    seed: int,
    description: str,
    package: ThermalPackage = DEFAULT_PACKAGE,
    library: TechnologyLibrary = DEFAULT_LIBRARY,
) -> ChipConfiguration:
    thermal_model = HotSpotModel(topology, package=package, unit_area_mm2=library.unit_area_mm2)
    calibrated, _scale = calibrate_profile(
        profile, thermal_model, PAPER_BASE_PEAKS_CELSIUS[name]
    )
    workload = _build_workload(topology, code_p, partition_strategy, seed)
    return ChipConfiguration(
        name=name,
        topology=topology,
        workload=workload,
        static_mapping=Mapping.identity(topology),
        unit_power_w=calibrated,
        thermal_model=thermal_model,
        clock=SimulationClock(frequency_hz=library.clock_frequency_hz),
        library=library,
        base_peak_target_celsius=PAPER_BASE_PEAKS_CELSIUS[name],
        description=description,
    )


def configuration_a() -> ChipConfiguration:
    """4x4 chip, configuration A: pronounced hot row, mild column gradient."""
    topology = MeshTopology(4, 4)
    profile = hot_row_profile(
        topology, hot_row=2, base_power_w=1.0, hot_multiplier=3.5, gradient=0.15, seed=11
    )
    return _make_configuration(
        name="A",
        topology=topology,
        profile=profile,
        partition_strategy="striped",
        code_p=13,
        seed=11,
        description="4x4 mesh, striped LDPC partition, strong warm band in row 2",
    )


def configuration_b() -> ChipConfiguration:
    """4x4 chip, configuration B: hot row plus a warm corner cluster."""
    topology = MeshTopology(4, 4)
    profile = hot_row_profile(
        topology, hot_row=1, base_power_w=1.0, hot_multiplier=3.0, gradient=0.10, seed=23
    )
    # Warm corner cluster from irregular communication concentration.
    for coord in [(3, 3), (2, 3), (3, 2)]:
        profile[coord] *= 1.35
    return _make_configuration(
        name="B",
        topology=topology,
        profile=profile,
        partition_strategy="clustered",
        code_p=13,
        seed=23,
        description="4x4 mesh, clustered LDPC partition, warm band in row 1 plus a warm corner",
    )


def configuration_c() -> ChipConfiguration:
    """5x5 chip, configuration C: hot row away from the centre."""
    topology = MeshTopology(5, 5)
    profile = hot_row_profile(
        topology, hot_row=3, base_power_w=1.0, hot_multiplier=3.0, gradient=0.05, seed=37
    )
    return _make_configuration(
        name="C",
        topology=topology,
        profile=profile,
        partition_strategy="striped",
        code_p=17,
        seed=37,
        description="5x5 mesh, striped LDPC partition, warm band in row 3",
    )


def configuration_d() -> ChipConfiguration:
    """5x5 chip, configuration D: milder hot row, flattest profile of the set."""
    topology = MeshTopology(5, 5)
    profile = hot_row_profile(
        topology, hot_row=1, base_power_w=1.0, hot_multiplier=2.2, gradient=0.04, seed=41
    )
    return _make_configuration(
        name="D",
        topology=topology,
        profile=profile,
        partition_strategy="clustered",
        code_p=17,
        seed=41,
        description="5x5 mesh, clustered LDPC partition, mild warm band in row 1",
    )


def configuration_e() -> ChipConfiguration:
    """5x5 chip, configuration E: hotspots near the centre of the die.

    This is the configuration on which the paper reports rotation *raising*
    the peak temperature: the central PE is a fixed point of both rotation
    and mirroring, and rotation additionally pays the largest migration
    energy.
    """
    topology = MeshTopology(5, 5)
    profile = center_hotspot_profile(
        topology,
        base_power_w=1.0,
        center_multiplier=3.0,
        hot_row=2,
        hot_row_multiplier=1.5,
        spread=1.1,
        seed=53,
    )
    return _make_configuration(
        name="E",
        topology=topology,
        profile=profile,
        partition_strategy="interleaved",
        code_p=17,
        seed=53,
        description="5x5 mesh, interleaved LDPC partition, central hotspot plus warm band",
    )


_BUILDERS = {
    "A": configuration_a,
    "B": configuration_b,
    "C": configuration_c,
    "D": configuration_d,
    "E": configuration_e,
}


@lru_cache(maxsize=None)
def get_configuration(name: str) -> ChipConfiguration:
    """Configuration by letter (``"A"`` .. ``"E"``); results are cached."""
    key = name.upper()
    if key not in _BUILDERS:
        raise ValueError(f"unknown configuration {name!r}; choose from {sorted(_BUILDERS)}")
    return _BUILDERS[key]()


def all_configurations() -> List[ChipConfiguration]:
    """All five configurations in the paper's order A..E."""
    return [get_configuration(name) for name in ("A", "B", "C", "D", "E")]


def configuration_names() -> Tuple[str, ...]:
    return ("A", "B", "C", "D", "E")
