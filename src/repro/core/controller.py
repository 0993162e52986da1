"""The runtime reconfiguration controller.

This is the piece of the paper's proposal that lives on the chip: it owns the
current logical-to-physical mapping, applies a migration transform when the
policy asks for one, charges the migration's cycles and energy, and derives
the I/O address translation from the mapping so the outside world never
notices that the workload moved.

The controller's native state is a node-id array, ``task -> node``; besides
it the controller holds only the in-flight plan and three running totals.
Every migration runs as a :class:`~repro.migration.plan.MigrationPlan`: a
sudden migration is a one-stage plan, a fluid or batched one unfolds over
several epochs.  Each stage is lowered to a node step array, so executing it
is the gather ``step[mapping]``.  Power is emitted a chunk of epochs at a time
(:meth:`RuntimeReconfigurationController.power_rows`): one scatter of the
per-task watts over every epoch's mapping, plus each executed stage's stored
energy vector over its epoch's duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..chips.configurations import ChipConfiguration, _read_only
from ..migration.io_interface import IoAddressTranslator
from ..migration.plan import MigrationPlan, lower_transform, priced_stage_cycles
from ..migration.transforms import MigrationTransform
from ..obs import counter as _obs_counter
from ..obs import span as _obs_span

_OBS_PLANS = _obs_counter("migration.plans")
_OBS_STAGES = _obs_counter("migration.stages")


@dataclass
class MigrationEvent:
    """Record of one executed migration stage.

    A sudden migration is a one-stage plan (``stage_index=0``,
    ``stage_count=1``); a fluid or batched plan emits one event per executed
    stage.  The controller returns each event and keeps none: a window's
    ``WindowOutcome.costs`` is the one record of the stages it executed, and
    an event's epoch is its position there.  Aggregators count a *migration*
    only at ``stage_index == 0`` while cycles/energy sum over every event.
    ``cycles`` is the stage's NoC-priced transfer time; ``energy_j`` is 0.0
    when the controller excludes migration energy.
    """

    transform_name: str
    cycles: int
    energy_j: float
    moved_tasks: int
    stage_index: int = 0
    stage_count: int = 1
    #: The stage's per-node energy (J), row-major and read-only.
    energy_vector: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )


class RuntimeReconfigurationController:
    """Tracks mapping state and executes migrations for one chip.

    A lowered plan is a pure function of which transform is applied to which
    mapping (and of the style and budget), and periodic policies cycle one
    transform around a short orbit, so plans are memoized on the chip's
    migration unit (``configuration.migration_unit.plans``): every
    controller, run and thread on one configuration object shares them, and
    a process lowers each distinct plan once.

    Parameters
    ----------
    configuration:
        The chip being managed (provides topology, workload, power profile,
        the thermally-aware static mapping that is the starting point, and
        the migration unit that prices and memoizes plans).
    include_migration_energy:
        When False the controller reports zero migration energy — the
        ablation the paper implicitly performs when it notes that rotation's
        energy penalty raises the average temperature by 0.3 °C.
    """

    def __init__(
        self,
        configuration: ChipConfiguration,
        include_migration_energy: bool = True,
    ):
        self.configuration = configuration
        self.topology = configuration.topology
        self.migration_unit = configuration.migration_unit
        self.include_migration_energy = include_migration_energy

        # The chip's read-only per-task arrays, shared by its controllers.
        arrays = configuration.task_arrays
        #: task -> node of the static (design-time) mapping.
        self._static_nodes = arrays.static_nodes
        self._task_watts = arrays.watts
        self._no_energy = arrays.no_energy
        self._task_tanner_nodes = arrays.tanner_nodes
        # A plan reads the mapping only through the Tanner nodes per PE, so
        # the memo key carries the per-task sizes beside the mapping.
        self._tanner_key = arrays.tanner_key

        #: task -> node of the current mapping (never mutated in place).
        self._nodes = self._static_nodes
        # Running totals, maintained O(1) per stage: the controller keeps no
        # log of executed stages (each is returned to the caller), so its
        # state stays constant-size over an unbounded stream.
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0
        # Plan execution state: the in-flight plan (None when idle) and the
        # index of its next stage (meaningless while idle).
        self._active_plan: Optional[MigrationPlan] = None
        self._plan_next_stage = 0
        #: Number of plans this controller lowered (misses in the chip's memo).
        self.migration_cost_computations = 0
        #: Number of this controller's migrations whose plan was memoized.
        self.migration_cache_hits = 0

    # ------------------------------------------------------------------
    @property
    def migrations_performed(self) -> int:
        return self._migration_count

    @property
    def total_migration_cycles(self) -> int:
        return self._migration_cycles

    @property
    def total_migration_energy_j(self) -> float:
        return self._migration_energy_j

    @property
    def nodes(self) -> np.ndarray:
        """The current ``task -> node`` array (never mutated in place)."""
        return self._nodes

    @property
    def io_translator(self) -> IoAddressTranslator:
        """The chip-boundary address map of the current mapping (a view).

        The workload designed for node ``static_nodes[task]`` now runs at
        ``nodes[task]``: the translator's original -> current node map is
        the mapping itself, indexed by the static one.
        """
        current = np.empty_like(self._nodes)
        current[self._static_nodes] = self._nodes
        return IoAddressTranslator(self.topology, current)

    def reset(self) -> None:
        """Return to the static mapping and forget all history."""
        self._nodes = self._static_nodes
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0
        self._active_plan = None

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the migration-relevant state.

        Captures the current mapping (as a node-id permutation), the running
        migration totals and the in-flight plan (its stage energies as
        arrays) — everything a resumed stream needs to continue
        bit-identically.
        """
        state: Dict[str, object] = {
            "mapping": self._nodes.tolist(),
            "migrations": self._migration_count,
            "migration_cycles": self._migration_cycles,
            "migration_energy_j": self._migration_energy_j,
        }
        if self._active_plan is not None:
            # A plan straddling a window boundary carries across checkpoints:
            # the remaining stages are self-contained (step, cycles, energy),
            # so a resumed stream re-executes them without re-lowering.
            state["plan"] = {
                "plan": self._active_plan.to_dict(),
                "next_stage": self._plan_next_stage,
            }
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`.

        Raises ``ValueError`` for a mapping that is not a permutation of the
        node ids, an in-flight plan whose stage steps are not permutations
        or whose energy vectors have the wrong length, or a next stage
        outside the plan.
        """
        num_nodes = self.topology.num_nodes
        nodes = [int(node) for node in state["mapping"]]  # type: ignore[union-attr]
        if sorted(nodes) != list(range(num_nodes)):
            raise ValueError("permutation must be a rearrangement of all node ids")
        plan_state = state.get("plan")
        plan: Optional[MigrationPlan] = None
        next_stage = 0
        if plan_state is not None:
            plan = MigrationPlan.from_dict(plan_state["plan"], num_nodes)  # type: ignore[index]
            next_stage = int(plan_state["next_stage"])  # type: ignore[index]
            if not 0 <= next_stage < plan.num_stages:
                raise ValueError(
                    f"next stage {next_stage} outside a {plan.num_stages}-stage plan"
                )
        self._nodes = _read_only(np.array(nodes, dtype=np.intp))
        self._migration_count = int(state["migrations"])  # type: ignore[arg-type]
        self._migration_cycles = int(state["migration_cycles"])  # type: ignore[arg-type]
        self._migration_energy_j = float(state["migration_energy_j"])  # type: ignore[arg-type]
        self._active_plan = plan
        self._plan_next_stage = next_stage

    # ------------------------------------------------------------------
    @property
    def migration_in_progress(self) -> bool:
        """True while a fluid or batched plan still has stages to execute."""
        return self._active_plan is not None

    def _lower(
        self, transform: MigrationTransform, style: str, units_per_epoch: int
    ) -> MigrationPlan:
        """Lower ``transform`` from the current mapping (a memo miss)."""
        self.migration_cost_computations += 1
        # Tanner nodes hosted at each node: the per-task sizes follow the tasks.
        tanner_nodes = np.empty_like(self._task_tanner_nodes)
        tanner_nodes[self._nodes] = self._task_tanner_nodes
        with _obs_span(
            "migration.plan",
            transform=transform.name,
            style=style,
            units=units_per_epoch,
        ):
            return lower_transform(
                transform,
                self.migration_unit,
                tanner_nodes,
                style=style,
                units_per_epoch=units_per_epoch,
            )

    def apply_migration(
        self,
        transform: MigrationTransform,
        *,
        style: str = "sudden",
        units_per_epoch: int = 2,
        congestion: float = 1.0,
    ) -> MigrationEvent:
        """Lower ``transform`` into a plan, arm it and execute its first stage.

        The plan counts as ONE migration however many stages it unfolds
        over.  A sudden plan has one stage, so it completes here; call
        :meth:`advance_plan` once per later epoch to execute the rest of a
        fluid or batched plan.  ``congestion`` prices the first stage as
        :meth:`advance_plan` prices the others.  Raises ``RuntimeError``
        while a plan is still in flight.
        """
        if self._active_plan is not None:
            raise RuntimeError(
                "a migration plan is already in progress; "
                "advance it to completion before beginning another"
            )
        key = (
            transform.name,
            transform.permutation_bytes,
            self._nodes.tobytes(),
            self._tanner_key,
            style,
            units_per_epoch,
        )
        plans = self.migration_unit.plans
        plan = plans.get(key)
        if plan is None:
            plan = plans.put(key, self._lower(transform, style, units_per_epoch))
        else:
            self.migration_cache_hits += 1
        self._active_plan = plan
        self._plan_next_stage = 0
        self._migration_count += 1
        _OBS_PLANS.add()
        return self._execute_stage(congestion)

    def advance_plan(self, congestion: float = 1.0) -> Optional[MigrationEvent]:
        """Execute the next stage of the in-flight plan (None when idle).

        ``congestion`` is the epoch's NoC load factor (see
        :func:`repro.migration.plan.congestion_factor`); it inflates the
        stage's transfer cycles.
        """
        if self._active_plan is None:
            return None
        return self._execute_stage(congestion)

    def _execute_stage(self, congestion: float) -> MigrationEvent:
        """Apply the next stage to the mapping and return its
        :class:`MigrationEvent`."""
        plan = self._active_plan
        stages = plan.stages
        index = self._plan_next_stage
        stage = stages[index]
        cycles = priced_stage_cycles(stage, congestion)
        if stage.moved:
            self._nodes = stage.step[self._nodes]
        energy = stage.energy_j if self.include_migration_energy else 0.0
        event = MigrationEvent(
            plan.transform_name,
            cycles,
            energy,
            stage.moved,
            index,
            len(stages),
            stage.energy,
        )
        self._migration_cycles += cycles
        self._migration_energy_j += energy
        _OBS_STAGES.add()
        self._plan_next_stage = index + 1
        if self._plan_next_stage == len(stages):
            self._active_plan = None
        return event

    # ------------------------------------------------------------------
    def power_rows(
        self,
        nodes: Sequence[np.ndarray],
        events: Sequence[Optional[MigrationEvent]],
        periods_s: np.ndarray,
    ) -> np.ndarray:
        """Row-major per-PE power of consecutive epochs, one row each.

        ``nodes[i]`` is epoch ``i``'s ``task -> node`` array (:attr:`nodes`
        once its stage ran), ``events[i]`` the stage it executed (or None)
        and ``periods_s[i]`` its duration.  Workload power follows the tasks:
        one scatter of the per-task watts fills every row.  Each stage's
        energy vector is amortised over its epoch and charged to the units
        it touched.
        """
        count = len(nodes)
        power = np.empty((count, self.topology.num_nodes))
        power[np.arange(count)[:, np.newaxis], nodes] = self._task_watts
        if self.include_migration_energy and any(events):
            # Epochs without a stage add 0.0, which leaves their watts as is.
            no_energy = self._no_energy
            energy = np.array(
                [event.energy_vector if event else no_energy for event in events]
            )
            energy /= periods_s[:, np.newaxis]
            power += energy
        return power

    def static_power_vector(self) -> np.ndarray:
        """Power vector of the unmigrated (static) mapping — the baseline."""
        power = np.empty(self.topology.num_nodes)
        power[self._static_nodes] = self._task_watts
        return power
