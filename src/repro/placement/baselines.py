"""Baseline placement strategies.

These exist for the placement comparison: the paper's argument is that
migration helps *even when* the starting point is the best static placement,
so we need the non-thermal baselines to quantify how good the annealed
starting point actually is.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import numpy as np

from ..noc.topology import Coordinate, MeshTopology
from .cost import PlacementCostModel
from .mapping import Mapping


def identity_placement(topology: MeshTopology) -> Mapping:
    """Row-major placement: task ``i`` on node ``i`` (the naive layout)."""
    return Mapping.identity(topology)


def random_placement(topology: MeshTopology, seed: Optional[int] = None) -> Mapping:
    """Uniformly random bijection of tasks onto PEs."""
    rng = random.Random(seed)
    node_ids = list(range(topology.num_nodes))
    rng.shuffle(node_ids)
    return Mapping.from_permutation(topology, node_ids)


def checkerboard_placement(
    topology: MeshTopology, per_task_power: Dict[int, float]
) -> Mapping:
    """Alternate hot and cool tasks across the mesh in a checkerboard.

    A simple heuristic that spreads the hottest tasks so no two are adjacent
    when possible; used as a cheap thermally-motivated baseline between
    random and annealed placement.
    """
    if set(per_task_power) != set(range(topology.num_nodes)):
        raise ValueError("per_task_power must cover every task id")
    # Hottest tasks first.
    tasks_by_power = sorted(per_task_power, key=per_task_power.get, reverse=True)
    # "Black" squares first (x+y even), then "white": hot tasks land far apart.
    black = [c for c in topology.coordinates() if (c[0] + c[1]) % 2 == 0]
    white = [c for c in topology.coordinates() if (c[0] + c[1]) % 2 == 1]
    order = black + white
    assignment = {task: coord for task, coord in zip(tasks_by_power, order)}
    return Mapping(topology=topology, physical_of_task=assignment)


def greedy_thermal_placement(
    cost_model: PlacementCostModel,
    candidates_per_step: int = 4,
) -> Mapping:
    """Greedy placement: place hottest tasks first, coolest location each time.

    At each step the hottest unplaced task is assigned to whichever free PE
    yields the lowest predicted peak temperature of the partially built map
    (cold PEs get a tiny idle power so the thermal solve is well posed).
    """
    topology = cost_model.topology
    per_task_power = cost_model.per_task_power
    tasks_by_power = sorted(per_task_power, key=per_task_power.get, reverse=True)
    free_coords: List[Coordinate] = list(topology.coordinates())
    assignment: Dict[int, Coordinate] = {}

    idle_power = 0.05
    for task in tasks_by_power:
        best_coord = None
        best_peak = None
        # Evaluate a bounded number of candidate locations: the coolest
        # corners first (by distance from already-placed hot tasks).
        scored = sorted(
            free_coords,
            key=lambda c: -_distance_to_assigned(c, assignment),
        )
        for coord in scored[: max(candidates_per_step, 1)]:
            trial_power = {c: idle_power for c in topology.coordinates()}
            for placed_task, placed_coord in assignment.items():
                trial_power[placed_coord] = per_task_power[placed_task]
            trial_power[coord] = per_task_power[task]
            peak = cost_model.thermal_model.peak_temperature(trial_power)
            if best_peak is None or peak < best_peak:
                best_peak = peak
                best_coord = coord
        assignment[task] = best_coord
        free_coords.remove(best_coord)

    return Mapping(topology=topology, physical_of_task=assignment)


def _distance_to_assigned(coord: Coordinate, assignment: Dict[int, Coordinate]) -> float:
    """Manhattan distance from ``coord`` to the nearest already-placed task."""
    if not assignment:
        return 0.0
    return min(
        abs(coord[0] - placed[0]) + abs(coord[1] - placed[1])
        for placed in assignment.values()
    )
