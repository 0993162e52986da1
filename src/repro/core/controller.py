"""The runtime reconfiguration controller.

This is the piece of the paper's proposal that lives on the chip: it owns the
current logical-to-physical mapping, applies a migration transform when the
policy asks for one, charges the migration's cycles and energy, and derives
the I/O address translation from the mapping so the outside world never
notices that the workload moved.

Every migration runs as a :class:`~repro.migration.plan.MigrationPlan`: a
sudden migration is a one-stage plan, a fluid or batched one unfolds over
several epochs, one stage each.  A plan is a pure function of the transform,
the mapping it starts from, and the style and budget, so the controller
*walks* plans rather than executing them: its state is a cursor ``(track,
phase)`` on a :class:`StageTrack`, the per-epoch arrays of a run of stages.
A track is either one plan from one mapping (the first time the walk meets
that plan) or, once every plan on a periodic transform's orbit has been met,
the whole orbit as one closed loop of ``order(T) x stages`` phases.  Both
live in the chip's plan memo (``configuration.migration_unit.plans``), so
every controller, run and thread on one configuration object shares them.

Per epoch the walk only moves the cursor (:meth:`RuntimeReconfigurationController.walk`);
a chunk's power rows, stage energies, events and running totals then come
from the tracks' arrays in a few gathers.  :meth:`apply_migration` and
:meth:`advance_plan` are the walk's one-epoch case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..chips.configurations import ChipConfiguration, _read_only
from ..migration.io_interface import IoAddressTranslator
from ..migration.plan import MigrationPlan, lower_transform, priced_stage_cycles
from ..migration.transforms import MigrationTransform
from ..migration.unit import MAX_CACHED_PLANS
from ..obs import counter as _obs_counter
from ..obs import span as _obs_span

_OBS_PLANS = _obs_counter("migration.plans")
_OBS_STAGES = _obs_counter("migration.stages")

#: ``decide(epoch_index, migration_in_progress)``: the transform the policy
#: asks for at an epoch (None or identity to stay put).
Decide = Callable[[int, bool], Optional[MigrationTransform]]
#: ``congestion(epoch_index)``: the NoC load factor a stage executed at that
#: epoch is priced under.
Congestion = Callable[[int], float]
#: One run of a walk: ``(track, first phase, first epoch, epochs, executes)``;
#: an executing run runs consecutive phases, an idle one stays at its phase.
Run = Tuple["StageTrack", int, int, int, bool]
#: What a walk matches before any transform has matched its track.
_UNMATCHED = object()


@dataclass(frozen=True)
class MigrationEvent:
    """Record of one executed migration stage.

    A sudden migration is a one-stage plan (``stage_index=0``,
    ``stage_count=1``); a fluid or batched plan emits one event per executed
    stage.  The controller returns each event and keeps none: a window's
    ``WindowOutcome.costs`` is the one record of the stages it executed, and
    an event's epoch is its position there.  Aggregators count a *migration*
    only at ``stage_index == 0`` while cycles/energy sum over every event.
    ``cycles`` is the stage's NoC-priced transfer time; ``energy_j`` is 0.0
    when the controller excludes migration energy.  Events are immutable:
    a walk hands out one shared event per track phase.
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


@dataclass(eq=False, repr=False)
class StageTrack:
    """A run of migration stages the walk executes one per epoch.

    Phase ``p`` executes stage ``stage_index[p]`` of ``plans[p]``:
    ``nodes[p]`` is the ``task -> node`` mapping before it and ``nodes[p +
    1]`` the one after, ``power[p]`` the workload power after it (the
    per-task watts scattered once) and ``energy[p]`` its per-node energy.
    An idle epoch at phase ``q`` reads ``power[q - 1]``, the row of the
    mapping it rests at.  ``events`` holds one shared
    :class:`MigrationEvent` per phase (``quiet_events`` the same with
    ``energy_j`` 0.0, ``cycles`` and ``energy_j`` their fields as tuples),
    ``starts`` marks the phases that begin a plan (a migration) and
    ``flight[p]`` that a plan is still unfolding at phase ``p``.  The arrays
    are read-only and the sequences tuples: a track is never written once
    built, so every run and thread may walk it.

    A track is *open* -- one plan from one mapping, a checkpoint's
    in-flight plan, or the stageless *standstill* of a mapping no walk has
    placed yet (whose power row is scattered when an idle epoch needs it);
    its cursor may rest at ``phase == length`` once the plan ends -- or
    *closed*: a periodic transform's whole orbit, whose last phase wraps to
    the first (``nodes[length]`` is ``nodes[0]``), so row indices are taken
    modulo ``length``.  ``identity`` is ``(transform name, permutation bytes,
    style, budget)`` of the transform it walks (None for a checkpoint's
    plan or a standstill), and ``successor`` the plan-memo key of the plan
    after an open plan track.
    """

    identity: Optional[Tuple[str, bytes, str, int]]
    closed: bool
    nodes: np.ndarray
    power: Optional[np.ndarray] = None
    energy: Optional[np.ndarray] = None
    plans: Tuple[MigrationPlan, ...] = ()
    stage_index: Tuple[int, ...] = ()
    starts: Tuple[bool, ...] = ()
    events: Tuple[MigrationEvent, ...] = ()
    successor: Optional[Hashable] = None

    def __post_init__(self) -> None:
        self.length = len(self.events)
        self.flight = tuple(not start for start in self.starts) + (False,)
        self.quiet_events = tuple(replace(event, energy_j=0.0) for event in self.events)
        self.cycles = tuple(event.cycles for event in self.events)
        self.energy_j = tuple(event.energy_j for event in self.events)

    def __setstate__(self, state: Dict[str, object]) -> None:
        # An unpickled array is writeable (pickle keeps no flags): a copied
        # chip's tracks are read-only again.
        self.__dict__.update(state)
        for array in (self.nodes, self.power, self.energy):
            if array is not None:
                array.flags.writeable = False

    @classmethod
    def standstill(cls, nodes: np.ndarray) -> "StageTrack":
        """The stageless track resting at mapping ``nodes`` (read-only)."""
        return cls(None, False, nodes[np.newaxis, :])

    @classmethod
    def from_plan(
        cls,
        plan: MigrationPlan,
        nodes: np.ndarray,
        watts: np.ndarray,
        *,
        first_stage: int = 0,
        identity: Optional[Tuple[str, bytes, str, int]] = None,
        successor: Optional[Callable[[np.ndarray], Hashable]] = None,
    ) -> "StageTrack":
        """The open track of ``plan``'s stages from ``first_stage`` on,
        starting at mapping ``nodes``.

        A track with an ``identity`` starts the plan (its first phase is a
        migration); ``successor`` maps the plan's final mapping to the memo
        key of the next plan.
        """
        stages = plan.stages[first_stage:]
        rows = [nodes]
        for stage in stages:
            rows.append(stage.step[rows[-1]] if stage.moved else rows[-1])
        node_rows = np.array(rows)
        indices = tuple(range(first_stage, plan.num_stages))
        return cls(
            identity=identity,
            closed=False,
            nodes=_read_only(node_rows),
            power=_read_only(_scatter(node_rows[1:], watts)),
            energy=_read_only(np.array([stage.energy for stage in stages])),
            plans=(plan,) * len(stages),
            stage_index=indices,
            starts=tuple(identity is not None and index == 0 for index in indices),
            events=tuple(
                MigrationEvent(
                    plan.transform_name,
                    stage.cycles,
                    stage.energy_j,
                    stage.moved,
                    index,
                    plan.num_stages,
                    stage.energy,
                )
                for index, stage in zip(indices, stages)
            ),
            successor=successor(node_rows[-1]) if successor is not None else None,
        )

    @classmethod
    def orbit(cls, links: Sequence["StageTrack"]) -> "StageTrack":
        """The closed track of consecutive plan tracks whose last one ends
        where the first starts."""

        def joined(name):
            return sum((getattr(link, name) for link in links), ())

        return cls(
            identity=links[0].identity,
            closed=True,
            nodes=_read_only(
                np.concatenate([link.nodes[:-1] for link in links] + [links[0].nodes[:1]])
            ),
            power=_read_only(np.concatenate([link.power for link in links])),
            energy=_read_only(np.concatenate([link.energy for link in links])),
            plans=joined("plans"),
            stage_index=joined("stage_index"),
            starts=joined("starts"),
            events=joined("events"),
        )


def _scatter(node_rows: np.ndarray, watts: np.ndarray) -> np.ndarray:
    """Workload power of each ``task -> node`` row: the per-task watts
    scattered to their nodes."""
    power = np.empty(node_rows.shape)
    power[np.arange(len(node_rows))[:, np.newaxis], node_rows] = watts
    return power


class RuntimeReconfigurationController:
    """Tracks mapping state and executes migrations for one chip.

    A lowered plan is a pure function of which transform is applied to which
    mapping (and of the style and budget), and periodic policies cycle one
    transform around a short orbit (order 2-5 on chips A-E), so plans and
    the tracks they form are memoized on the chip's migration unit
    (``configuration.migration_unit.plans``): every controller, run and
    thread on one configuration object shares them, a process lowers each
    distinct plan once, and a walk around a closed orbit touches no memo.

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
        self._task_tanner_nodes = arrays.tanner_nodes
        # A plan reads the mapping only through the Tanner nodes per PE, so
        # the memo key carries the per-task sizes beside the mapping.
        self._tanner_key = arrays.tanner_key

        #: task -> node of the current mapping (never mutated in place; None
        #: until read after the cursor moved) and the cursor it sits at:
        #: ``track.nodes[phase]`` holds the same ids.
        self._nodes: Optional[np.ndarray] = self._static_nodes
        self._static_track = StageTrack.standstill(self._static_nodes)
        self._track = self._static_track
        self._phase = 0
        # Running totals: the controller keeps no log of executed stages
        # (each is returned to the caller), so its state stays constant-size
        # over an unbounded stream.
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0
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
        """The current ``task -> node`` array (read-only, never mutated)."""
        if self._nodes is None:
            self._nodes = self._track.nodes[self._phase]
        return self._nodes

    @property
    def io_translator(self) -> IoAddressTranslator:
        """The chip-boundary address map of the current mapping (a view).

        The workload designed for node ``static_nodes[task]`` now runs at
        ``nodes[task]``: the translator's original -> current node map is
        the mapping itself, indexed by the static one.
        """
        nodes = self.nodes
        current = np.empty_like(nodes)
        current[self._static_nodes] = nodes
        return IoAddressTranslator(self.topology, current)

    def reset(self) -> None:
        """Return to the static mapping and forget all history."""
        self._nodes = self._static_nodes
        self._track = self._static_track
        self._phase = 0
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the migration-relevant state.

        Captures the current mapping (as a node-id permutation), the running
        migration totals and the in-flight plan (its stage energies as
        arrays) — everything a resumed stream needs to continue
        bit-identically.
        """
        track, phase = self._track, self._phase
        state: Dict[str, object] = {
            "mapping": self.nodes.tolist(),
            "migrations": self._migration_count,
            "migration_cycles": self._migration_cycles,
            "migration_energy_j": self._migration_energy_j,
        }
        if track.flight[phase]:
            # A plan straddling a window boundary carries across checkpoints:
            # the remaining stages are self-contained (step, cycles, energy),
            # so a resumed stream re-executes them without re-lowering.
            state["plan"] = {
                "plan": track.plans[phase].to_dict(),
                "next_stage": track.stage_index[phase],
            }
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`.

        Raises ``ValueError`` for a mapping that is not a permutation of the
        node ids, an in-flight plan whose stage steps are not permutations
        or whose energy vectors have the wrong length, or a next stage
        outside the plan.  A restored in-flight plan lies on no memoized
        track: it finishes on a track of its own.
        """
        num_nodes = self.topology.num_nodes
        nodes = [int(node) for node in state["mapping"]]  # type: ignore[union-attr]
        if sorted(nodes) != list(range(num_nodes)):
            raise ValueError("permutation must be a rearrangement of all node ids")
        plan_state = state.get("plan")
        mapping = _read_only(np.array(nodes, dtype=np.intp))
        track = StageTrack.standstill(mapping)
        if plan_state is not None:
            plan = MigrationPlan.from_dict(plan_state["plan"], num_nodes)  # type: ignore[index]
            next_stage = int(plan_state["next_stage"])  # type: ignore[index]
            if not 0 <= next_stage < plan.num_stages:
                raise ValueError(
                    f"next stage {next_stage} outside a {plan.num_stages}-stage plan"
                )
            track = StageTrack.from_plan(
                plan, mapping, self._task_watts, first_stage=next_stage
            )
        self._migration_count = int(state["migrations"])  # type: ignore[arg-type]
        self._migration_cycles = int(state["migration_cycles"])  # type: ignore[arg-type]
        self._migration_energy_j = float(state["migration_energy_j"])  # type: ignore[arg-type]
        self._nodes = mapping
        self._track = track
        self._phase = 0

    # ------------------------------------------------------------------
    @property
    def migration_in_progress(self) -> bool:
        """True while a fluid or batched plan still has stages to execute."""
        return self._track.flight[self._phase]

    def apply_migration(
        self,
        transform: MigrationTransform,
        *,
        style: str = "sudden",
        units_per_epoch: int = 2,
        congestion: float = 1.0,
    ) -> Optional[MigrationEvent]:
        """Start ``transform``'s plan from the current mapping and execute
        its first stage (lowering the plan on a memo miss).

        The walk's one-epoch case.  The plan counts as ONE migration however
        many stages it unfolds over.  A sudden plan has one stage, so it
        completes here; call :meth:`advance_plan` once per later epoch to
        execute the rest of a fluid or batched plan.  ``congestion`` prices
        the first stage as :meth:`advance_plan` prices the others.  The
        identity transform is an idle epoch, as in the walk: nothing runs
        and None is returned.  Raises ``RuntimeError`` while a plan is still
        in flight.
        """
        if self.migration_in_progress:
            raise RuntimeError(
                "a migration plan is already in progress; "
                "advance it to completion before beginning another"
            )
        runs, _, lowered = self._walk(
            0, 1, lambda epoch, in_flight: transform, style, units_per_epoch
        )
        (event,) = self._execute(runs, _fixed(congestion), lowered)
        return event

    def advance_plan(self, congestion: float = 1.0) -> Optional[MigrationEvent]:
        """Execute the next stage of the in-flight plan (None when idle).

        The walk's one-epoch case.  ``congestion`` is the epoch's NoC load
        factor (see :func:`repro.migration.plan.congestion_factor`); it
        inflates the stage's transfer cycles.
        """
        if not self.migration_in_progress:
            return None
        runs, _, _ = self._walk(0, 1, lambda epoch, in_flight: None, "sudden", 1)
        (event,) = self._execute(runs, _fixed(congestion), 0)
        return event

    def walk(
        self,
        first_epoch: int,
        decide: Decide,
        periods_s: np.ndarray,
        *,
        style: str = "sudden",
        units_per_epoch: int = 2,
        congestion: Optional[Congestion] = None,
    ) -> Tuple[np.ndarray, List[Optional[MigrationEvent]], int]:
        """Run ``len(periods_s)`` epochs from ``first_epoch``: the power rows,
        each epoch's executed stage (None when none ran) and the number of
        stalled epochs.

        Each epoch asks ``decide(epoch, migration_in_progress)``.  While a
        plan is in flight the next stage executes (a transform still asked
        for is a stalled epoch); otherwise None or identity is an idle epoch
        and any other transform starts its plan from the current mapping
        under ``style`` and ``units_per_epoch``.  ``congestion`` prices each
        executed stage (None: all at 1.0).  The ``(E, U)`` power rows are the
        workload power of each epoch's mapping plus each executed stage's
        energy amortised over its epoch's ``periods_s``.
        """
        runs, stalls, lowered = self._walk(
            first_epoch, len(periods_s), decide, style, units_per_epoch
        )
        events = self._execute(runs, congestion, lowered)
        return self._power(runs, periods_s), events, stalls

    # ------------------------------------------------------------------
    def _walk(
        self,
        first_epoch: int,
        count: int,
        decide: Decide,
        style: str,
        units_per_epoch: int,
    ) -> Tuple[List[Run], int, int]:
        """Move the cursor over ``count`` epochs; return its runs, the
        number of stalled epochs and the number of plans lowered."""
        lowered = self.migration_cost_computations
        track, phase = self._track, self._phase
        flight, identity = track.flight, track.identity
        end = -1 if track.closed else track.length
        wrap = track.length if track.closed else -1
        # The last transform found to start the track's next plan (never
        # None or identity, so an idle decision never matches it).
        matched: object = _UNMATCHED
        runs: List[Run] = []
        run_epoch, run_phase, run_executes = first_epoch, phase, False
        stalls = 0
        for epoch in range(first_epoch, first_epoch + count):
            in_flight = flight[phase]
            transform = decide(epoch, in_flight)
            if in_flight:
                if transform is matched or (
                    transform is not None and transform.name != "identity"
                ):
                    stalls += 1
            elif transform is not matched or phase == end:
                if transform is None or transform.name == "identity":
                    if run_executes:
                        runs.append((track, run_phase, run_epoch, epoch - run_epoch, True))
                        run_epoch, run_phase, run_executes = epoch, phase, False
                    continue
                if phase == end or identity != (
                    transform.name,
                    transform.permutation_bytes,
                    style,
                    units_per_epoch,
                ):
                    previous = track
                    track, phase = self._resolve(
                        track.nodes[phase], transform, style, units_per_epoch
                    )
                    flight, identity = track.flight, track.identity
                    end = -1 if track.closed else track.length
                    wrap = track.length if track.closed else -1
                    if epoch > run_epoch:
                        if run_executes or previous.length or not track.closed:
                            runs.append(
                                (previous, run_phase, run_epoch, epoch - run_epoch, run_executes)
                            )
                        else:
                            # Idle epochs at a standstill mapping are idle at
                            # its phase on the orbit: the same mapping.
                            runs.append((track, phase, run_epoch, epoch - run_epoch, False))
                    run_epoch, run_phase, run_executes = epoch, phase, True
                matched = transform
            if not run_executes:
                if epoch > run_epoch:
                    runs.append((track, run_phase, run_epoch, epoch - run_epoch, False))
                run_epoch, run_phase, run_executes = epoch, phase, True
            phase += 1
            if phase == wrap:
                phase = 0
        if count:
            runs.append(
                (track, run_phase, run_epoch, first_epoch + count - run_epoch, run_executes)
            )
        if track is not self._track or phase != self._phase:
            self._track, self._phase = track, phase
            self._nodes = None
        return runs, stalls, self.migration_cost_computations - lowered

    def _resolve(
        self,
        nodes: np.ndarray,
        transform: MigrationTransform,
        style: str,
        units_per_epoch: int,
    ) -> Tuple[StageTrack, int]:
        """The cursor at which ``transform``'s plan from mapping ``nodes``
        starts: its phase on a memoized track, lowering the plan (and
        closing its orbit) on a miss."""
        name, permutation = transform.name, transform.permutation_bytes
        tanner_key = self._tanner_key
        key = (name, permutation, nodes.tobytes(), tanner_key, style, units_per_epoch)
        plans = self.migration_unit.plans
        entry = plans.track(key)
        if entry is not None:
            return entry
        plan = plans.get(key)
        if plan is None:
            plan = plans.put(key, self._lower(nodes, transform, style, units_per_epoch))
        link = StageTrack.from_plan(
            plan,
            nodes,
            self._task_watts,
            identity=(name, permutation, style, units_per_epoch),
            successor=lambda end: (
                name, permutation, end.tobytes(), tanner_key, style, units_per_epoch
            ),
        )
        entry = plans.put_track(key, (link, 0))
        return self._close(key, entry[0]) or entry

    def _close(self, key: Hashable, link: StageTrack) -> Optional[Tuple[StageTrack, int]]:
        """The orbit through ``key``'s plan once every plan on it has a
        track in the memo (its entry for ``key``), else None."""
        plans = self.migration_unit.plans
        keys, links = [key], [link]
        while link.successor != key:
            entry = plans.track(link.successor, touch=False)
            if entry is None or entry[0].closed or len(keys) >= MAX_CACHED_PLANS:
                return None
            keys.append(link.successor)
            link = entry[0]
            links.append(link)
        offsets = np.cumsum([0] + [link.length for link in links[:-1]]).tolist()
        return plans.put_orbit(StageTrack.orbit(links), list(zip(keys, offsets)))

    def _lower(
        self,
        nodes: np.ndarray,
        transform: MigrationTransform,
        style: str,
        units_per_epoch: int,
    ) -> MigrationPlan:
        """Lower ``transform`` from mapping ``nodes`` (a memo miss)."""
        self.migration_cost_computations += 1
        # Tanner nodes hosted at each node: the per-task sizes follow the tasks.
        tanner_nodes = np.empty_like(self._task_tanner_nodes)
        tanner_nodes[nodes] = self._task_tanner_nodes
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

    def _execute(
        self, runs: Sequence[Run], congestion: Optional[Congestion], lowered: int
    ) -> List[Optional[MigrationEvent]]:
        """Each epoch's executed stage (None when idle); adds the runs'
        migrations, cycles and energy (in epoch order) to the totals.
        ``lowered`` of the runs' plans were lowered by this walk."""
        events: List[Optional[MigrationEvent]] = []
        plans = stages = cycles = 0
        energy = self._migration_energy_j
        quiet = not self.include_migration_energy
        # Priced copies of the shared events, one per (event, factor).
        priced: Dict[Tuple[int, float], MigrationEvent] = {}
        for track, phase, epoch, count, executes in runs:
            if not executes:
                events += [None] * count
                continue
            # The run's phases are ``(phase + i) % length``: a slice of the
            # per-phase tuples repeated over the laps it spans.
            stop = phase + count
            laps = -(-stop // track.length)
            run = ((track.quiet_events if quiet else track.events) * laps)[phase:stop]
            if congestion is None:
                cycles += sum((track.cycles * laps)[phase:stop])
            else:
                run = list(run)
                for offset, event in enumerate(run):
                    factor = congestion(epoch + offset)
                    if factor > 1.0:
                        copy = priced.get((id(event), factor))
                        if copy is None:
                            at = (phase + offset) % track.length
                            stage = track.plans[at].stages[track.stage_index[at]]
                            copy = priced[id(event), factor] = MigrationEvent(
                                event.transform_name,
                                priced_stage_cycles(stage, factor),
                                event.energy_j,
                                event.moved_tasks,
                                event.stage_index,
                                event.stage_count,
                                event.energy_vector,
                            )
                        run[offset] = event = copy
                    cycles += event.cycles
            if not quiet:
                energy = reduce(operator.add, (track.energy_j * laps)[phase:stop], energy)
            plans += sum((track.starts * laps)[phase:stop])
            stages += count
            events += run
        if stages:
            self._migration_count += plans
            self._migration_cycles += cycles
            self._migration_energy_j = energy
            self.migration_cache_hits += plans - lowered
            if plans:
                _OBS_PLANS.add(plans)
            _OBS_STAGES.add(stages)
        return events

    def _power(self, runs: Sequence[Run], periods_s: np.ndarray) -> np.ndarray:
        """The runs' ``(E, U)`` power rows: each epoch's workload power plus
        its executed stage's energy over ``periods_s``.

        An epoch that executed phase ``p`` reads row ``p`` of its track's
        tables and an idle epoch at phase ``q`` the power row ``q - 1``
        (modulo the track's length: a standstill's one row at ``-1``), so
        consecutive runs of one track often read one range of rows.
        """
        # [track, first row, rows, consecutive] per gather.
        gathers: list = []
        idle: List[Tuple[int, int]] = []
        first_epoch = runs[0][2]
        for track, phase, epoch, count, executes in runs:
            if executes:
                row, consecutive = phase, True
            else:
                row, consecutive = phase - 1, count == 1
                idle.append((epoch - first_epoch, epoch - first_epoch + count))
            if gathers:
                last = gathers[-1]
                if last[0] is track and last[3] and consecutive and last[1] + last[2] == row:
                    last[2] += count
                    continue
            gathers.append([track, row, count, consecutive])
        with_energy = self.include_migration_energy and len(idle) < len(runs)
        powers, energies = [], []
        for track, row, count, consecutive in gathers:
            index = np.arange(row, row + count) if consecutive else np.full(count, row)
            table = track.power
            if table is None:
                table = _scatter(track.nodes, self._task_watts)
            powers.append(table.take(index, axis=0, mode="wrap"))
            if with_energy:
                energies.append(
                    track.energy.take(index, axis=0, mode="wrap")
                    if track.energy is not None
                    else np.zeros((count, table.shape[1]))
                )
        power = powers[0] if len(powers) == 1 else np.concatenate(powers)
        if with_energy:
            energy = energies[0] if len(energies) == 1 else np.concatenate(energies)
            for start, stop in idle:
                energy[start:stop] = 0.0
            energy /= periods_s[:, np.newaxis]
            power += energy
        return power

    def static_power_vector(self) -> np.ndarray:
        """Power vector of the unmigrated (static) mapping — the baseline."""
        power = np.empty(self.topology.num_nodes)
        power[self._static_nodes] = self._task_watts
        return power


def _fixed(congestion: float) -> Optional[Congestion]:
    """A constant congestion factor (None when it prices nothing)."""
    return None if congestion <= 1.0 else (lambda epoch: congestion)
