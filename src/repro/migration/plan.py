"""Staged migration plans: a migration as an object that unfolds over epochs.

The paper's Section 2.2 describes the *sudden* style: the whole mapping
permutes in one epoch and the cost is charged as one lump.  Megaphone's
migration pattern taxonomy (sudden / fluid / batched-fluid) generalises this:
a reconfiguration can be *staged*, moving a few PEs per epoch so the chip
keeps working while state drains through the NoC.  Every migration is a plan;
a sudden migration is the one-stage plan.

This module lowers a :class:`repro.migration.transforms.MigrationTransform`
into a :class:`MigrationPlan` — an ordered tuple of :class:`MigrationStage`
records, each carrying its :class:`PeMove` set, its congestion-free NoC
transfer cycles (priced through the one shared per-move cycle function,
:meth:`MigrationScheduler.move_cycles`), and its energy (folded from the
shared per-move account, :meth:`MigrationUnit.move_energy`).  The controller
executes one stage per epoch; between stages the mapping is *mixed* — partly
migrated, partly not — so stages must keep the mapping a valid permutation.

The unit of staging is therefore a **permutation cycle** of the transform:
applying a whole cycle's moves simultaneously relocates a closed set of PEs
onto itself, which is exactly the condition for the mid-plan mapping to stay
bijective.  Styles differ only in how cycles are grouped into stages:

* ``sudden`` — one stage holding every move, in
  :meth:`MigrationScheduler.moves_for_transform` order;
* ``fluid`` — cycles are packed into stages under a ``units_per_epoch``
  budget (a cycle longer than the budget still occupies one stage — cycles
  are atomic);
* ``batched`` — cycles are greedily grouped into link-disjoint stages using
  the same conflict relation as the scheduler's congestion-free phases, so
  each stage is one whole-stage "phase group" that transfers without
  blocking.

The controller executes a stage as a node step array
(:func:`stage_steps`); a lowered plan and its step arrays are what the
chip's :class:`repro.migration.unit.PlanMemo` stores.

Congestion pricing: plans carry congestion-free cycle counts; when the
epoch's NoC load is known, :func:`congestion_factor` scales a stage's
transfer time by the analytic wormhole model's loaded/zero-load latency
ratio (:mod:`repro.scenarios.noc_cost`).  The epoch loop prices only fluid
and batched stages: a sudden plan halts the whole array, so no application
traffic shares the NoC with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..noc.topology import Coordinate, MeshTopology
from .scheduler import PeMove, _links_of_route
from .transforms import MigrationTransform
from .unit import MigrationUnit

__all__ = [
    "MIGRATION_STYLES",
    "MigrationPlan",
    "MigrationStage",
    "StageStep",
    "congestion_factor",
    "lower_transform",
    "stage_steps",
]

#: The supported ``migration_style`` values, in documentation order.
MIGRATION_STYLES: Tuple[str, ...] = ("sudden", "fluid", "batched")


@dataclass(frozen=True)
class MigrationStage:
    """One epoch's worth of a staged migration.

    ``moves`` is this stage's slice of the transform's move set (local moves
    — fixed points that only pay the halt/reconfigure cost — ride the first
    stage).  ``cycles`` is the congestion-free phased duration of the
    stage's remote moves; ``energy_per_unit_j`` charges the stage's energy
    to the coordinates where the heat lands
    (:meth:`repro.migration.unit.MigrationUnit.moves_energy`).
    """

    moves: Tuple[PeMove, ...]
    cycles: int
    energy_j: float
    energy_per_unit_j: Mapping[Coordinate, float]

    @property
    def moved(self) -> int:
        """PEs that actually change coordinate in this stage."""
        return sum(1 for move in self.moves if not move.is_local)

    def mapping_moves(self) -> Dict[Coordinate, Coordinate]:
        """The partial permutation this stage applies (remote moves only).

        The source set always equals the destination set (stages are unions
        of whole permutation cycles), so applying these moves keeps any
        bijective mapping bijective.
        """
        return {
            move.source: move.destination
            for move in self.moves
            if not move.is_local
        }

    # -- checkpoint codec ------------------------------------------------
    def to_dict(self, topology: MeshTopology) -> Dict[str, object]:
        return {
            "moves": [
                [
                    topology.node_id(move.source),
                    topology.node_id(move.destination),
                    move.payload_flits,
                ]
                for move in self.moves
            ],
            "cycles": self.cycles,
            "energy_j": self.energy_j,
            "energy_per_unit": {
                str(topology.node_id(coord)): energy
                for coord, energy in self.energy_per_unit_j.items()
                if energy != 0.0
            },
        }

    @classmethod
    def from_dict(
        cls, state: Dict[str, object], topology: MeshTopology
    ) -> "MigrationStage":
        """Inverse of :meth:`to_dict`.

        Raises ``ValueError`` unless the stage's remote moves form a closed
        relocation (distinct sources whose set equals the destination set),
        so a tampered checkpoint fails at restore rather than mid-stream.
        """
        energy_per_unit = {coord: 0.0 for coord in topology.coordinates()}
        for node_id, energy in state["energy_per_unit"].items():  # type: ignore[union-attr]
            energy_per_unit[topology.coordinate(int(node_id))] = float(energy)
        moves = tuple(
            PeMove(
                source=topology.coordinate(int(source)),
                destination=topology.coordinate(int(destination)),
                payload_flits=int(flits),
            )
            for source, destination, flits in state["moves"]  # type: ignore[union-attr]
        )
        sources = [move.source for move in moves if not move.is_local]
        destinations = {move.destination for move in moves if not move.is_local}
        if len(set(sources)) != len(sources) or set(sources) != destinations:
            raise ValueError(
                "migration stage moves must be a closed relocation "
                "(distinct sources, source set equal to destination set)"
            )
        return cls(
            moves=moves,
            cycles=int(state["cycles"]),  # type: ignore[arg-type]
            energy_j=float(state["energy_j"]),  # type: ignore[arg-type]
            energy_per_unit_j=energy_per_unit,
        )


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered sequence of stages that composes to one whole transform."""

    transform_name: str
    style: str
    units_per_epoch: Optional[int]
    stages: Tuple[MigrationStage, ...]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def total_cycles(self) -> int:
        return sum(stage.cycles for stage in self.stages)

    @property
    def total_energy_j(self) -> float:
        return sum(stage.energy_j for stage in self.stages)

    @property
    def total_moved(self) -> int:
        return sum(stage.moved for stage in self.stages)

    def mapping_moves(self) -> Dict[Coordinate, Coordinate]:
        """The full permutation all stages compose to."""
        moves: Dict[Coordinate, Coordinate] = {}
        for stage in self.stages:
            moves.update(stage.mapping_moves())
        return moves

    # -- checkpoint codec ------------------------------------------------
    def to_dict(self, topology: MeshTopology) -> Dict[str, object]:
        return {
            "transform": self.transform_name,
            "style": self.style,
            "units_per_epoch": self.units_per_epoch,
            "stages": [stage.to_dict(topology) for stage in self.stages],
        }

    @classmethod
    def from_dict(
        cls, state: Dict[str, object], topology: MeshTopology
    ) -> "MigrationPlan":
        units = state.get("units_per_epoch")
        return cls(
            transform_name=str(state["transform"]),
            style=str(state["style"]),
            units_per_epoch=int(units) if units is not None else None,
            stages=tuple(
                MigrationStage.from_dict(stage, topology)
                for stage in state["stages"]  # type: ignore[union-attr]
            ),
        )


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def _permutation_cycles(remote_moves: Sequence[PeMove]) -> List[List[PeMove]]:
    """Decompose the remote moves into the transform's permutation cycles.

    A non-fixed coordinate's destination is itself non-fixed (bijectivity),
    so the remote moves close under following ``source -> destination`` and
    every cycle is a simultaneously-applicable relocation.
    """
    by_source = {move.source: move for move in remote_moves}
    cycles: List[List[PeMove]] = []
    visited: set = set()
    for move in remote_moves:
        if move.source in visited:
            continue
        cycle: List[PeMove] = []
        cursor = move
        while cursor.source not in visited:
            visited.add(cursor.source)
            cycle.append(cursor)
            cursor = by_source[cursor.destination]
        cycles.append(cycle)
    return cycles


def _fluid_groups(
    cycles: List[List[PeMove]], units_per_epoch: int
) -> List[List[PeMove]]:
    """Pack cycles into stages under a per-epoch unit budget.

    A stage closes before it would exceed the budget; a single cycle longer
    than the budget occupies a stage alone (cycles are atomic — splitting
    one would leave the mid-plan mapping non-bijective).
    """
    groups: List[List[PeMove]] = []
    current: List[PeMove] = []
    for cycle in cycles:
        if current and len(current) + len(cycle) > units_per_epoch:
            groups.append(current)
            current = []
        current.extend(cycle)
    if current:
        groups.append(current)
    return groups


def _batched_groups(
    cycles: List[List[PeMove]], unit: MigrationUnit
) -> List[List[PeMove]]:
    """Group cycles into link-disjoint stages (whole-stage phase groups).

    The same greedy longest-route-first colouring as
    :meth:`MigrationScheduler.schedule`, with a whole cycle as the colouring
    unit so every stage stays a valid partial permutation.
    """
    ordered = sorted(
        cycles,
        key=lambda cycle: (
            -max(move.hops for move in cycle),
            min(move.source for move in cycle),
        ),
    )
    groups: List[List[PeMove]] = []
    group_links: List[set] = []
    for cycle in ordered:
        links: set = set()
        for move in cycle:
            links |= _links_of_route(
                unit.scheduler.path(move.source, move.destination)
            )
        placed = False
        for idx, used in enumerate(group_links):
            if not (links & used):
                groups[idx].extend(cycle)
                used |= links
                placed = True
                break
        if not placed:
            groups.append(list(cycle))
            group_links.append(links)
    return groups


def lower_transform(
    transform: MigrationTransform,
    unit: MigrationUnit,
    tanner_nodes_per_pe: Optional[Dict[Coordinate, int]] = None,
    *,
    style: str = "sudden",
    units_per_epoch: int = 2,
) -> MigrationPlan:
    """Lower a transform into a staged :class:`MigrationPlan`.

    ``tanner_nodes_per_pe`` sizes each PE's live state
    (:meth:`MigrationScheduler.moves_for_transform`).  The stages' moves
    partition the transform's move set and every stage is a union of whole
    permutation cycles; a ``sudden`` plan's single stage holds every move.
    """
    if style not in MIGRATION_STYLES:
        raise ValueError(
            f"unknown migration style {style!r}; choose from {MIGRATION_STYLES}"
        )
    if units_per_epoch < 1:
        raise ValueError("units_per_epoch must be at least 1")
    scheduler = unit.scheduler
    moves = scheduler.moves_for_transform(transform, tanner_nodes_per_pe)
    if style == "sudden":
        groups = [list(moves)]
    else:
        local = [move for move in moves if move.is_local]
        remote = [move for move in moves if not move.is_local]
        cycles = _permutation_cycles(remote)
        if style == "fluid":
            groups = _fluid_groups(cycles, units_per_epoch)
        else:
            groups = _batched_groups(cycles, unit)
        if not groups:
            groups = [[]]
        # Fixed points only pay the halt/reconfigure cost; the whole array
        # halts when the plan starts, so they ride the first stage.
        groups[0] = groups[0] + local
    stages = []
    for group in groups:
        schedule = scheduler.schedule(group)
        energy_j, energy_per_unit = unit.moves_energy(group)
        stages.append(
            MigrationStage(
                moves=tuple(group),
                cycles=schedule.total_cycles,
                energy_j=energy_j,
                energy_per_unit_j=energy_per_unit,
            )
        )
    return MigrationPlan(
        transform_name=transform.name,
        style=style,
        units_per_epoch=None if style == "sudden" else units_per_epoch,
        stages=tuple(stages),
    )


# ----------------------------------------------------------------------
# Execution arrays
# ----------------------------------------------------------------------
class StageStep(NamedTuple):
    """A plan stage as the controller executes it (arrays are read-only)."""

    #: ``step[node]`` = node after the stage (identity outside its moves).
    step: np.ndarray
    #: Per-node energy of the stage (J), row-major.
    energy: np.ndarray
    #: PEs that change node in the stage.
    moved: int


def stage_steps(
    plan: MigrationPlan,
    topology: MeshTopology,
    permutation: Optional[np.ndarray] = None,
) -> Tuple[StageStep, ...]:
    """Each stage of ``plan`` as a step array and an energy vector.

    ``permutation`` is the node permutation of the transform ``plan`` was
    just lowered from; a one-stage plan's step is that array itself.
    """
    identity = np.arange(topology.num_nodes, dtype=np.intp)
    num_stages = plan.num_stages
    steps = []
    for stage in plan.stages:
        if num_stages == 1 and permutation is not None:
            step = permutation
        else:
            # Local moves scatter a node onto itself, so all moves go in.
            step = identity.copy()
            step[[topology.node_id(move.source) for move in stage.moves]] = [
                topology.node_id(move.destination) for move in stage.moves
            ]
        # Lowered and restored stages both key their energy by every
        # coordinate in row-major order.
        energy = np.fromiter(
            stage.energy_per_unit_j.values(), dtype=float, count=identity.size
        )
        step.flags.writeable = energy.flags.writeable = False
        steps.append(
            StageStep(step, energy, int(np.count_nonzero(step != identity)))
        )
    return tuple(steps)


# ----------------------------------------------------------------------
# Congestion-aware stage pricing
# ----------------------------------------------------------------------
def congestion_factor(noc_model, injection_rate: Optional[float]) -> float:
    """Latency inflation of migration traffic under the epoch's NoC load.

    The analytic wormhole model's average latency at the epoch's injection
    rate, relative to its zero-load latency (a model constant).  Rates at or
    past saturation price at the last validated point (the same capping as
    :func:`repro.scenarios.noc_cost.rate_noc_latencies`).  Returns ``1.0``
    when no pricing model or rate is available, so unpriced runs keep the
    deterministic congestion-free cycle counts.
    """
    if noc_model is None or injection_rate is None:
        return 1.0
    rate = float(injection_rate)
    if rate <= 0.0 or not math.isfinite(rate):
        return 1.0
    saturation = float(noc_model.saturation_rate)
    capped = min(rate, math.nextafter(saturation, 0.0))
    loaded = float(noc_model.probe(capped).avg_latency)
    base = float(noc_model.zero_load_latency)
    if not (base > 0.0) or not math.isfinite(loaded):
        return 1.0
    return max(1.0, loaded / base)


def priced_stage_cycles(stage: MigrationStage, factor: float) -> int:
    """A stage's transfer cycles inflated by a congestion factor (ceil)."""
    if factor <= 1.0:
        return stage.cycles
    return int(math.ceil(stage.cycles * factor))
