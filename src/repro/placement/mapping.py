"""The logical-task to physical-PE mapping.

A :class:`Mapping` is a bijection between logical task ids (one per workload
partition, see :mod:`repro.ldpc.partition`) and physical mesh coordinates.
A chip configuration's static (thermally-aware) placement is one; the
runtime migrates its node-id form (:meth:`Mapping.to_permutation`), applying
a coordinate transform to the physical side of the bijection while the
logical (relative) structure stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..noc.topology import Coordinate, MeshTopology


@dataclass
class Mapping:
    """Bijective assignment of logical tasks to physical mesh coordinates."""

    topology: MeshTopology
    physical_of_task: Dict[int, Coordinate]

    def __post_init__(self) -> None:
        expected_tasks = set(range(self.topology.num_nodes))
        tasks = set(self.physical_of_task.keys())
        if tasks != expected_tasks:
            raise ValueError(
                f"mapping must cover task ids 0..{self.topology.num_nodes - 1}, "
                f"got {sorted(tasks)[:5]}..."
            )
        coords = list(self.physical_of_task.values())
        for coord in coords:
            if not self.topology.contains(coord):
                raise ValueError(f"coordinate {coord} outside mesh")
        if len(set(coords)) != len(coords):
            raise ValueError("mapping is not a bijection: two tasks share a PE")
        self._task_of_physical: Dict[Coordinate, int] = {
            coord: task for task, coord in self.physical_of_task.items()
        }

    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self.topology.num_nodes

    def physical_of(self, task: int) -> Coordinate:
        """Physical coordinate currently hosting ``task``."""
        return self.physical_of_task[task]

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, topology: MeshTopology) -> "Mapping":
        """Task ``i`` on the i-th coordinate in row-major order."""
        assignment = {
            topology.node_id(coord): coord for coord in topology.coordinates()
        }
        return cls(topology=topology, physical_of_task=assignment)

    def to_permutation(self) -> List[int]:
        """The node id hosting each task, in task order."""
        return [
            self.topology.node_id(self.physical_of(task)) for task in range(self.num_tasks)
        ]
