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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..noc.flit import Packet, PacketClass
from ..noc.routing import RoutingAlgorithm, XYRouting
from ..noc.topology import Coordinate, MeshTopology
from ..power.library import DEFAULT_LIBRARY, TechnologyLibrary
from .scheduler import MigrationScheduler, PeMove
from .state_transfer import StateTransferModel
from .transforms import MigrationTransform

if TYPE_CHECKING:
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
    are read-only step and energy arrays.  Entries are immutable, so
    every thread and run may share them.  Lookups and inserts take a lock;
    lowering happens outside it, so two threads that miss on one key may
    both lower it, and the first insert wins.
    """

    def __init__(self):
        self._entries: "OrderedDict[Hashable, MigrationPlan]" = OrderedDict()
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

        Past :data:`MAX_CACHED_PLANS` entries the least recently used goes.
        """
        with self._lock:
            kept = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            if len(self._entries) > MAX_CACHED_PLANS:
                self._entries.popitem(last=False)
            return kept


@dataclass(frozen=True)
class MoveEnergy:
    """Energy terms of one :class:`PeMove` (the shared per-move account).

    ``route`` is empty for local moves (fixed points pay only the conversion
    and halt/restart cost).  The charge/term orders below are the canonical
    accumulation order, so folding the same moves always gives bit-identical
    sums.
    """

    move: PeMove
    conversion_j: float
    route: Tuple[Coordinate, ...] = ()
    router_energy_j: float = 0.0
    link_energy_j: float = 0.0

    @property
    def total_j(self) -> float:
        total = 0.0
        for term in self.total_terms():
            total += term
        return total

    def unit_charges(self) -> List[Tuple[Coordinate, float]]:
        """Per-coordinate charges, in the canonical accumulation order."""
        charges: List[Tuple[Coordinate, float]] = [
            (self.move.source, self.conversion_j)
        ]
        if not self.route:
            return charges
        for coord in self.route:
            charges.append((coord, self.router_energy_j))
        # Charge link energy to the source half / destination half evenly.
        charges.append((self.move.source, self.link_energy_j / 2.0))
        charges.append((self.move.destination, self.link_energy_j / 2.0))
        return charges

    def total_terms(self) -> List[float]:
        """Whole-chip total terms (link energy as ONE term, as it always was)."""
        terms = [self.conversion_j]
        if not self.route:
            return terms
        terms.extend(self.router_energy_j for _ in self.route)
        terms.append(self.link_energy_j)
        return terms


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
    def move_energy(self, move: PeMove) -> MoveEnergy:
        """The per-move energy account.

        Conversion-unit serialization plus the fixed halt/reconfigure/restart
        cost at the source, router energy at every router the payload passes
        through, and link energy split evenly between the endpoints.  Every
        :mod:`repro.migration.plan` stage cost folds these terms.
        """
        conversion = (
            move.payload_flits * self.conversion_energy_per_flit_j
            + self.fixed_energy_per_pe_j
        )
        if move.is_local:
            return MoveEnergy(move=move, conversion_j=conversion)
        flits = move.payload_flits + 1  # head flit included for transport
        route = self.scheduler.path(move.source, move.destination)
        hop_count = len(route) - 1
        return MoveEnergy(
            move=move,
            conversion_j=conversion,
            route=route,
            router_energy_j=flits * self.library.router_energy_per_flit_j,
            link_energy_j=flits * hop_count * self.library.link_energy_per_flit_j,
        )

    def moves_energy(self, moves: List[PeMove]) -> Tuple[float, np.ndarray]:
        """Total and per-node energy of a set of moves, accumulated in move
        and charge order (the per-node vector is row-major and read-only)."""
        node_id = self.topology.node_id
        per_node = [0.0] * self.topology.num_nodes
        total = 0.0
        for move in moves:
            account = self.move_energy(move)
            for coord, energy in account.unit_charges():
                per_node[node_id(coord)] += energy
            for term in account.total_terms():
                total += term
        energy_vector = np.array(per_node)
        energy_vector.flags.writeable = False
        return total, energy_vector

    # ------------------------------------------------------------------
    def migration_packets(
        self,
        transform: MigrationTransform,
        tanner_nodes_per_pe: Optional[Dict[Coordinate, int]] = None,
        cycle: int = 0,
    ) -> List[Packet]:
        """CONFIG packets that would carry the migration over the real NoC.

        Used by the integration tests to replay a migration through the
        cycle-accurate network and check that the analytic schedule's cycle
        count is an upper bound on reality.
        """
        packets = []
        for move in self.scheduler.moves_for_transform(transform, tanner_nodes_per_pe):
            if move.is_local:
                continue
            packets.append(
                Packet(
                    source=move.source,
                    destination=move.destination,
                    size_flits=move.payload_flits + 1,
                    packet_class=PacketClass.CONFIG,
                    injection_cycle=cycle,
                    payload={"migration": transform.name},
                )
            )
        return packets
