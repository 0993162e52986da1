"""Packets for the wormhole-switched NoC.

Packets carry LDPC messages (and, during migration, PE configuration/state)
between PEs.  The cycle engine segments each packet into ``size_flits``
flits — a head flit that opens the wormhole path, body flits, and a tail flit
that releases it — tracked as flit indices inside
:class:`~repro.noc.vector.VectorNetwork`'s buffers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional, Tuple

Coordinate = Tuple[int, int]

_packet_counter = itertools.count()


def reset_packet_ids() -> None:
    """Reset the global packet id counter (used by tests for determinism)."""
    global _packet_counter
    _packet_counter = itertools.count()


class PacketClass(Enum):
    """Traffic class of a packet.

    ``DATA`` packets carry workload (LDPC) messages.  ``CONFIG`` packets carry
    PE configuration and state during a migration phase.  ``IO`` packets cross
    the chip boundary and pass through the migration unit's address
    translation.
    """

    DATA = auto()
    CONFIG = auto()
    IO = auto()


@dataclass
class Packet:
    """A multi-flit message travelling from ``source`` to ``destination``.

    Attributes
    ----------
    source, destination:
        Physical mesh coordinates of the injecting and ejecting routers.
    size_flits:
        Total number of flits including head and tail.
    packet_class:
        Traffic class (workload data, migration config, or chip I/O).
    injection_cycle:
        Cycle at which the packet was offered to the network.
    payload:
        Optional opaque payload used by the LDPC workload and migration
        engine (e.g. the logical task id being moved).
    """

    source: Coordinate
    destination: Coordinate
    size_flits: int
    packet_class: PacketClass = PacketClass.DATA
    injection_cycle: int = 0
    payload: Optional[object] = None
    packet_id: int = field(default_factory=lambda: next(_packet_counter))

    # Filled in by the network when the tail flit is ejected.
    ejection_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError("a packet needs at least one flit")

    @property
    def latency(self) -> Optional[int]:
        """End-to-end latency in cycles, or ``None`` while in flight."""
        if self.ejection_cycle is None:
            return None
        return self.ejection_cycle - self.injection_cycle

    @property
    def hop_distance(self) -> int:
        """Manhattan distance between source and destination."""
        return abs(self.source[0] - self.destination[0]) + abs(
            self.source[1] - self.destination[1]
        )
