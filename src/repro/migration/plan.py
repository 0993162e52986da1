"""Staged migration plans: a migration as an object that unfolds over epochs.

The paper's Section 2.2 describes the *sudden* style: the whole mapping
permutes in one epoch and the cost is charged as one lump.  Megaphone's
migration pattern taxonomy (sudden / fluid / batched-fluid) generalises this:
a reconfiguration can be *staged*, moving a few PEs per epoch so the chip
keeps working while state drains through the NoC.  Every migration is a plan;
a sudden migration is the one-stage plan.

This module lowers a :class:`repro.migration.transforms.MigrationTransform`
into a :class:`MigrationPlan` — an ordered tuple of :class:`MigrationStage`
records, each carrying its node step array, its congestion-free NoC transfer
cycles (:meth:`MigrationScheduler.phased_cycles`, priced through the one
per-move cycle function :meth:`MigrationScheduler.move_cycles`), and its
per-node energy (the one per-move energy fold,
:meth:`MigrationUnit.moves_energy`).  Lowering works on node ids: the move
of node ``s`` goes to ``perm[s]``, the transform's node permutation.  The
controller executes one stage per epoch; between stages the mapping is
*mixed* — partly migrated, partly not — so stages must keep the mapping a
valid permutation.

The unit of staging is therefore a **permutation cycle** of the transform:
applying a whole cycle's moves simultaneously relocates a closed set of PEs
onto itself, which is exactly the condition for the mid-plan mapping to stay
bijective.  Styles differ only in how cycles are grouped into stages:

* ``sudden`` — one stage holding every move, in node order (its step is
  the transform's node permutation);
* ``fluid`` — cycles are packed into stages under a ``units_per_epoch``
  budget (a cycle longer than the budget still occupies one stage — cycles
  are atomic);
* ``batched`` — cycles are grouped into link-disjoint stages by the same
  greedy colouring that forms the scheduler's congestion-free phases
  (:func:`repro.migration.scheduler.link_disjoint_groups`), so each stage is
  one whole-stage "phase group" that transfers without blocking.

A stage is its arrays: the node groups that shaped it are not kept, and a
lowered plan is what the chip's :class:`repro.migration.unit.PlanMemo`
stores.

Congestion pricing: plans carry congestion-free cycle counts; when the
epoch's NoC load is known, :func:`congestion_factor` scales a stage's
transfer time by the loaded/zero-load latency ratio of the scenario's
analytic wormhole model (:class:`repro.noc.analytic.AnalyticModel`).  The
epoch loop prices only fluid and batched stages: a sudden plan halts the
whole array, so no application traffic shares the NoC with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..noc.analytic import AnalyticModel
from .scheduler import MigrationScheduler, link_disjoint_groups
from .transforms import MigrationTransform
from .unit import MigrationUnit

__all__ = [
    "MIGRATION_STYLES",
    "MigrationPlan",
    "MigrationStage",
    "congestion_factor",
    "lower_transform",
]

#: The supported ``migration_style`` values, in documentation order.
MIGRATION_STYLES: Tuple[str, ...] = ("sudden", "fluid", "batched")


@dataclass(frozen=True, eq=False)
class MigrationStage:
    """One epoch's worth of a staged migration, as the controller executes it.

    ``step[node]`` is the node's place after the stage (identity outside the
    stage's moves; local moves — fixed points that only pay the
    halt/reconfigure cost — ride the first stage), so executing the stage is
    the gather ``step[mapping]``.  ``energy`` is the stage's energy per node,
    row-major, charged where the heat lands
    (:meth:`repro.migration.unit.MigrationUnit.moves_energy`).  Both arrays
    are read-only.  ``cycles`` is the congestion-free phased duration of the
    stage's remote moves and ``moved`` counts the PEs that change node.
    """

    step: np.ndarray
    energy: np.ndarray
    cycles: int
    energy_j: float
    moved: int

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Pickle keeps no read-only flags: an unpickled stage (a copied
        # chip's plan memo) is read-only again.
        self.__dict__.update(state)
        self.step.flags.writeable = self.energy.flags.writeable = False

    # -- checkpoint codec ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "step": self.step.tolist(),
            "cycles": self.cycles,
            "energy_j": self.energy_j,
            "energy": self.energy,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object], num_nodes: int) -> "MigrationStage":
        """Inverse of :meth:`to_dict`.

        Raises ``ValueError`` unless ``step`` is a permutation of the node
        ids (the stage's moves form a closed relocation) and ``energy`` has
        one entry per node, so a tampered checkpoint fails at restore rather
        than mid-stream.
        """
        identity = np.arange(num_nodes, dtype=np.intp)
        step = np.array(state["step"], dtype=np.intp)
        if step.shape != identity.shape or not np.array_equal(np.sort(step), identity):
            raise ValueError(
                "migration stage step must be a closed relocation "
                "(a permutation of the node ids)"
            )
        energy = np.array(state["energy"], dtype=float)
        if energy.shape != identity.shape:
            raise ValueError(f"migration stage energy must have {num_nodes} entries")
        step.flags.writeable = energy.flags.writeable = False
        return cls(
            step=step,
            energy=energy,
            cycles=int(state["cycles"]),  # type: ignore[arg-type]
            energy_j=float(state["energy_j"]),  # type: ignore[arg-type]
            moved=int(np.count_nonzero(step != identity)),
        )


@dataclass(frozen=True, eq=False)
class MigrationPlan:
    """An ordered sequence of stages that composes to one whole transform.

    The style and budget it was lowered under are the run's settings.
    """

    transform_name: str
    stages: Tuple[MigrationStage, ...]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    # -- checkpoint codec ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "transform": self.transform_name,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object], num_nodes: int) -> "MigrationPlan":
        return cls(
            transform_name=str(state["transform"]),
            stages=tuple(
                MigrationStage.from_dict(stage, num_nodes)
                for stage in state["stages"]  # type: ignore[union-attr]
            ),
        )


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def _permutation_cycles(perm: Sequence[int]) -> List[List[int]]:
    """The non-fixed nodes of ``perm`` as its permutation cycles.

    Each cycle starts at its lowest node and follows ``s -> perm[s]``; a
    non-fixed node's image is itself non-fixed (bijectivity), so every
    cycle is a simultaneously-applicable relocation.
    """
    cycles: List[List[int]] = []
    seen: set = set()
    for start in range(len(perm)):
        if perm[start] != start and start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def _fluid_groups(cycles: List[List[int]], units_per_epoch: int) -> List[List[int]]:
    """Pack cycles into stages under a per-epoch unit budget.

    A stage closes before it would exceed the budget; a single cycle longer
    than the budget occupies a stage alone (cycles are atomic — splitting
    one would leave the mid-plan mapping non-bijective).
    """
    groups: List[List[int]] = []
    current: List[int] = []
    for cycle in cycles:
        if current and len(current) + len(cycle) > units_per_epoch:
            groups.append(current)
            current = []
        current.extend(cycle)
    if current:
        groups.append(current)
    return groups


def _batched_groups(
    cycles: List[List[int]], perm: Sequence[int], scheduler: MigrationScheduler
) -> List[List[int]]:
    """Group cycles into link-disjoint stages (whole-stage phase groups).

    The scheduler's colouring (:func:`link_disjoint_groups`) with a whole
    cycle as the unit, longest route first and ties broken by the cycle's
    least ``(x, y)``, so every stage stays a valid partial permutation.
    """
    coordinate = scheduler.topology.coordinate
    ordered = sorted(
        cycles,
        key=lambda cycle: (
            -max(scheduler.hops(s, perm[s]) for s in cycle),
            min(coordinate(s) for s in cycle),
        ),
    )
    groups = link_disjoint_groups(
        ordered,
        lambda cycle: set().union(*(scheduler.links(s, perm[s]) for s in cycle)),
    )
    return [[s for cycle in group for s in cycle] for group in groups]


def lower_transform(
    transform: MigrationTransform,
    unit: MigrationUnit,
    tanner_nodes: Optional[Sequence[int]] = None,
    *,
    style: str = "sudden",
    units_per_epoch: int = 2,
) -> MigrationPlan:
    """Lower a transform into a staged :class:`MigrationPlan`.

    The move of node ``s`` goes to ``perm[s]`` (the transform's node
    permutation) carrying the payload of the ``tanner_nodes[s]`` Tanner
    nodes it hosts (every PE carries only its configuration when omitted).
    The stages' moves partition the transform's move set and every stage is
    a union of whole permutation cycles; a ``sudden`` plan's single stage
    holds every move, in node order.
    """
    if style not in MIGRATION_STYLES:
        raise ValueError(
            f"unknown migration style {style!r}; choose from {MIGRATION_STYLES}"
        )
    if units_per_epoch < 1:
        raise ValueError("units_per_epoch must be at least 1")
    scheduler = unit.scheduler
    num_nodes = unit.topology.num_nodes
    perm = transform.node_permutation().tolist()
    sizes = np.zeros(num_nodes, dtype=int) if tanner_nodes is None else tanner_nodes
    flits = [unit.state_model.payload_flits(n) for n in np.asarray(sizes).tolist()]
    if style == "sudden":
        groups = [list(range(num_nodes))]
    else:
        cycles = _permutation_cycles(perm)
        if style == "fluid":
            groups = _fluid_groups(cycles, units_per_epoch)
        else:
            groups = _batched_groups(cycles, perm, scheduler)
        if not groups:
            groups = [[]]
        # Fixed points only pay the halt/reconfigure cost; the whole array
        # halts when the plan starts, so they ride the first stage.
        groups[0] += [s for s in range(num_nodes) if perm[s] == s]
    identity = np.arange(num_nodes, dtype=np.intp)
    stages = []
    for group in groups:
        # Fixed points scatter a node onto itself, so all moves go in.
        step = identity.copy()
        step[group] = [perm[s] for s in group]
        step.flags.writeable = False
        energy_j, energy = unit.moves_energy(perm, flits, group)
        stages.append(
            MigrationStage(
                step=step,
                energy=energy,
                cycles=scheduler.phased_cycles(perm, flits, group),
                energy_j=energy_j,
                moved=int(np.count_nonzero(step != identity)),
            )
        )
    return MigrationPlan(transform_name=transform.name, stages=tuple(stages))


# ----------------------------------------------------------------------
# Congestion-aware stage pricing
# ----------------------------------------------------------------------
def congestion_factor(
    noc_model: Optional[AnalyticModel], injection_rate: Optional[float]
) -> float:
    """Latency inflation of migration traffic under the epoch's NoC load.

    The analytic wormhole model's average latency at the epoch's injection
    rate, relative to its zero-load latency.  Rates at or past saturation
    price at the model's last validated rate (the cap of
    :func:`repro.scenarios.noc_cost.rate_noc_latencies`), where the latency
    is finite.  Returns ``1.0`` when no pricing model or rate is available,
    so unpriced runs keep the deterministic congestion-free cycle counts.
    """
    if noc_model is None or injection_rate is None:
        return 1.0
    rate = float(injection_rate)
    if rate <= 0.0 or not math.isfinite(rate):
        return 1.0
    loaded = noc_model.latency(min(rate, noc_model.last_validated_rate))
    return max(1.0, loaded / noc_model.zero_load_latency)


def priced_stage_cycles(stage: MigrationStage, factor: float) -> int:
    """A stage's transfer cycles inflated by a congestion factor (ceil)."""
    if factor <= 1.0:
        return stage.cycles
    return int(math.ceil(stage.cycles * factor))
