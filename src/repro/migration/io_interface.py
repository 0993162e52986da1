"""Transparent chip I/O through the migration unit.

Section 2.3: "the simplicity and predictability of the migration functions
... allows for a simplified I/O interface to the outside of the chip, by
transforming the destination address assigned to all incoming packets and
transforming the source address of all packets leaving the chip.  By
including a migration unit at the I/O interface, the migration operation is
totally transparent to the outside world."

The migration unit at the I/O interface applies the same transforms as the
PEs, so the chip-boundary address map *is* the task mapping.  An
:class:`IoAddressTranslator` is a read-only view of one map, original node
-> current node (the controller builds it from its mapping,
:attr:`repro.core.controller.RuntimeReconfigurationController.io_translator`).
External agents always address PEs by their *original* (design-time)
coordinates; the translator rewrites those to the current physical location
on ingress and back to the original view on egress.
"""

from __future__ import annotations

import numpy as np

from ..noc.flit import Packet, PacketClass
from ..noc.topology import Coordinate, MeshTopology


class IoAddressTranslator:
    """Ingress and egress address rewriting under one migrated layout.

    ``current[node]`` is where the workload designed for ``node`` runs now;
    it must be a permutation of the node ids and is not copied.
    """

    def __init__(self, topology: MeshTopology, current: np.ndarray):
        self.topology = topology
        self._coords = list(topology.coordinates())
        self._current = current
        self._original = np.empty_like(current)
        self._original[current] = np.arange(topology.num_nodes)

    # ------------------------------------------------------------------
    def current_location(self, original: Coordinate) -> Coordinate:
        """Where the workload originally at ``original`` currently lives."""
        return self._coords[self._current[self.topology.node_id(original)]]

    def original_location(self, current: Coordinate) -> Coordinate:
        """The design-time coordinate of the workload now at ``current``."""
        return self._coords[self._original[self.topology.node_id(current)]]

    # ------------------------------------------------------------------
    def translate_incoming(self, packet: Packet) -> Packet:
        """Rewrite an external packet's destination to the current location.

        The outside world addresses the chip by original coordinates; the
        workload it wants may have migrated.
        """
        new_destination = self.current_location(packet.destination)
        return Packet(
            source=packet.source,
            destination=new_destination,
            size_flits=packet.size_flits,
            packet_class=PacketClass.IO,
            injection_cycle=packet.injection_cycle,
            payload=packet.payload,
        )

    def translate_outgoing(self, packet: Packet) -> Packet:
        """Rewrite an outbound packet's source back to the original view."""
        original_source = self.original_location(packet.source)
        return Packet(
            source=original_source,
            destination=packet.destination,
            size_flits=packet.size_flits,
            packet_class=PacketClass.IO,
            injection_cycle=packet.injection_cycle,
            payload=packet.payload,
        )
