"""The migration unit: the per-move hardware cost model.

Section 2.3 of the paper: the migration functions "are mathematically quite
simple, and require little hardware to properly implement ... only 3-bit
operands are required to address up to 64 PEs".  The same unit performs every
transform and also rewrites the addresses of chip-boundary traffic so the
migration is transparent to the outside world.

This module models what a migration *costs*:

* cycles — the deterministic duration of the phased, congestion-free
  schedule (:class:`~repro.migration.scheduler.MigrationScheduler`), which is
  what reduces workload throughput;
* energy — serialising each PE's configuration/state through the conversion
  unit and carrying it across the network, charged to the routers it passes
  through so the thermal model sees where the heat lands.

:func:`repro.migration.plan.lower_transform` folds these per-move accounts
into the stages of a migration plan; a sudden migration is a one-stage plan.
A lowered plan is a pure function of the unit, the transform, the mapping
and the style, so each unit keeps a :class:`PlanMemo` of them; a chip builds
one unit per configuration object
(:attr:`repro.chips.configurations.ChipConfiguration.migration_unit`), and
every controller of the chip shares its plans.

Because energy grows with the distance each payload travels, rotation (whose
corner payloads cross most of the chip) is the most expensive scheme and the
shifts are the cheapest — the mechanism behind the paper's observation that
rotational migration raises average chip temperature by ~0.3 °C.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..noc.routing import RoutingAlgorithm, XYRouting
from ..noc.topology import MeshTopology
from ..power.library import DEFAULT_LIBRARY, TechnologyLibrary
from .scheduler import MigrationScheduler
from .state_transfer import StateTransferModel

if TYPE_CHECKING:
    from ..core.controller import StageTrack
    from .plan import MigrationPlan

#: Cap on memoized lowered plans per unit: a periodic policy cycles a short
#: orbit of mappings, but a long adaptive run must not grow the memo
#: unboundedly.
MAX_CACHED_PLANS = 256


class PlanMemo:
    """Bounded, thread-safe memo of lowered plans (least recently used out).

    The controller keys an entry by ``(transform name, permutation bytes,
    mapping bytes, per-task Tanner sizes as bytes, style, units_per_epoch)``
    and stores the :class:`repro.migration.plan.MigrationPlan`, whose stages
    are read-only step and energy arrays.  Beside a plan, a key holds the
    cursor its plan starts at: ``(track, phase)`` on a
    :class:`repro.core.controller.StageTrack` -- the plan's own track until
    every plan on its transform's orbit is memoized, then the closed orbit's.
    Entries are immutable, so every thread and run may share them.  Lookups
    and inserts take a lock; plans and tracks are built outside it, so two
    threads that miss on one key may both build its entry, and the first
    insert wins.  A key leaves with its plan, so the memo never holds more
    than :data:`MAX_CACHED_PLANS` keys.
    """

    def __init__(self):
        self._entries: "OrderedDict[Hashable, MigrationPlan]" = OrderedDict()
        self._tracks: Dict[Hashable, Tuple[StageTrack, int]] = {}
        self._lock = threading.Lock()

    def __getstate__(self):
        # Locks cannot be pickled (configurations, which carry a unit, can
        # be); recreate it on unpickling.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[Hashable]:
        """The memoized keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: Hashable) -> Optional[MigrationPlan]:
        """The entry under ``key`` (None on a miss), marked most recently used."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, entry: MigrationPlan) -> MigrationPlan:
        """Insert ``entry`` unless ``key`` is present; return the kept entry.

        Past :data:`MAX_CACHED_PLANS` entries the least recently used goes,
        with its cursor.
        """
        with self._lock:
            kept = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            if len(self._entries) > MAX_CACHED_PLANS:
                evicted, _ = self._entries.popitem(last=False)
                self._tracks.pop(evicted, None)
            return kept

    def track(self, key: Hashable, touch: bool = True) -> Optional[Tuple[StageTrack, int]]:
        """The cursor ``key``'s plan starts at (None on a miss); ``touch``
        marks the key most recently used."""
        with self._lock:
            cursor = self._tracks.get(key)
            if cursor is not None and touch:
                self._entries.move_to_end(key)
            return cursor

    def put_track(
        self, key: Hashable, cursor: Tuple[StageTrack, int]
    ) -> Tuple[StageTrack, int]:
        """Keep ``cursor`` for ``key`` unless it has one; return the kept
        cursor (``cursor`` itself, unkept, once the key's plan is gone)."""
        with self._lock:
            if key not in self._entries:
                return cursor
            return self._tracks.setdefault(key, cursor)

    def put_orbit(
        self, orbit: StageTrack, phases: List[Tuple[Hashable, int]]
    ) -> Tuple[StageTrack, int]:
        """Point each ``(key, phase)`` at its phase on the closed ``orbit``;
        return the first key's cursor.  An orbit already kept for the first
        key wins, so a key never mixes two copies of one orbit."""
        first_key, first_phase = phases[0]
        with self._lock:
            kept = self._tracks.get(first_key)
            if kept is not None and kept[0].closed:
                return kept
            for key, phase in phases:
                if key in self._entries:
                    self._tracks[key] = (orbit, phase)
            return orbit, first_phase


class MigrationUnit:
    """Accounts the cost of migration moves; holds the plans lowered against it.

    Parameters
    ----------
    topology:
        The physical mesh.
    library:
        Technology constants providing per-flit router/link energy and the
        conversion-unit energy per flit.
    state_model:
        Sizing of each PE's configuration/state payload.
    conversion_energy_per_flit_j:
        Energy of passing one payload flit through the conversion unit
        (address transformation + buffering); small compared with network
        transport, per the paper's "small, fast, and low power" claim.
    fixed_energy_per_pe_j:
        Per-PE fixed cost of a migration: halting and draining the PE,
        rewriting its configuration memory at the destination, and
        restarting.  Independent of the distance moved.
    """

    def __init__(
        self,
        topology: MeshTopology,
        library: TechnologyLibrary = DEFAULT_LIBRARY,
        state_model: Optional[StateTransferModel] = None,
        routing: Optional[RoutingAlgorithm] = None,
        conversion_energy_per_flit_j: float = 2.0e-11,
        fixed_energy_per_pe_j: float = 2.0e-7,
    ):
        if conversion_energy_per_flit_j < 0:
            raise ValueError("conversion energy cannot be negative")
        if fixed_energy_per_pe_j < 0:
            raise ValueError("fixed per-PE migration energy cannot be negative")
        self.topology = topology
        self.library = library
        self.state_model = state_model or StateTransferModel()
        self.routing = routing or XYRouting(topology)
        self.scheduler = MigrationScheduler(
            topology, state_model=self.state_model, routing=self.routing
        )
        self.conversion_energy_per_flit_j = conversion_energy_per_flit_j
        self.fixed_energy_per_pe_j = fixed_energy_per_pe_j
        #: Plans lowered against this unit, shared by its controllers.
        self.plans = PlanMemo()

    # ------------------------------------------------------------------
    def moves_energy(
        self, perm: Sequence[int], flits: Sequence[int], sources: Iterable[int]
    ) -> Tuple[float, np.ndarray]:
        """Total and per-node energy of the moves ``s -> perm[s]`` for ``s``
        in ``sources``, each carrying ``flits[s]`` payload flits.

        Each move pays conversion plus the fixed halt/reconfigure/restart
        cost at its source; a remote move also pays router energy at every
        node of its route and half its link energy at each end (one term of
        the total).  Charges accumulate in move order, so folding the same
        moves always gives bit-identical sums.  The per-node vector is
        row-major and read-only.
        """
        per_node = [0.0] * self.topology.num_nodes
        total = 0.0
        for source in sources:
            destination = perm[source]
            conversion = (
                flits[source] * self.conversion_energy_per_flit_j
                + self.fixed_energy_per_pe_j
            )
            per_node[source] += conversion
            total += conversion
            if destination == source:
                continue
            packet_flits = flits[source] + 1  # head flit included for transport
            route = self.scheduler.route(source, destination)
            router_j = packet_flits * self.library.router_energy_per_flit_j
            link_j = packet_flits * (len(route) - 1) * self.library.link_energy_per_flit_j
            for node in route:
                per_node[node] += router_j
                total += router_j
            per_node[source] += link_j / 2.0
            per_node[destination] += link_j / 2.0
            total += link_j
        energy = np.array(per_node)
        energy.flags.writeable = False
        return total, energy
