"""Transparent chip I/O through the migration unit.

Section 2.3: "the simplicity and predictability of the migration functions
... allows for a simplified I/O interface to the outside of the chip, by
transforming the destination address assigned to all incoming packets and
transforming the source address of all packets leaving the chip.  By
including a migration unit at the I/O interface, the migration operation is
totally transparent to the outside world."

:class:`IoAddressTranslator` keeps the composition of every migration applied
so far.  External agents always address PEs by their *original* (design-time)
coordinates; the translator rewrites those to the current physical location
on ingress and back to the original view on egress.

The cumulative map is a node-id permutation array, so composing a migration
is one gather and a lookup is two index operations.  Its inverse (for
egress) is built only when a lookup reads it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..noc.flit import Packet, PacketClass
from ..noc.topology import Coordinate, MeshTopology
from .transforms import MigrationTransform


class IoAddressTranslator:
    """Maintains the cumulative coordinate map across migrations."""

    def __init__(self, topology: MeshTopology):
        self.topology = topology
        self._identity = np.arange(topology.num_nodes, dtype=np.intp)
        self._coords = list(topology.coordinates())
        #: original node id -> current node id, and its inverse (None until
        #: a lookup needs it)
        self._current = self._identity
        self._original: Optional[np.ndarray] = self._identity
        self._applied = 0

    # ------------------------------------------------------------------
    @property
    def migrations_applied(self) -> int:
        return self._applied

    def record_migration(self, transform: MigrationTransform) -> None:
        """Compose ``transform`` onto the cumulative map."""
        self.record_permutation(transform.node_permutation())

    def record_permutation(self, step: np.ndarray) -> None:
        """Compose a node permutation (``step[i]`` = new node of node ``i``).

        The controller records every sudden migration (the transform's
        permutation) and every executed plan stage (a partial relocation,
        identity outside the stage's moves) through it.  ``step`` must be a
        permutation of the node ids; it is not copied or modified.
        """
        self._set_current(step[self._current])
        self._applied += 1

    def _set_current(self, current: np.ndarray) -> None:
        self._current = current
        self._original = None

    def reset(self) -> None:
        """Forget all migrations (chip returns to the design-time layout)."""
        self._current = self._identity
        self._original = self._identity
        self._applied = 0

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (cumulative map as a permutation)."""
        return {"permutation": self._current.tolist(), "applied": self._applied}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`."""
        permutation = [int(node) for node in state["permutation"]]  # type: ignore[union-attr]
        if sorted(permutation) != list(range(self.topology.num_nodes)):
            raise ValueError("translator permutation must cover every node id")
        self._set_current(np.array(permutation, dtype=np.intp))
        self._applied = int(state["applied"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def current_location(self, original: Coordinate) -> Coordinate:
        """Where the workload originally at ``original`` currently lives."""
        return self._coords[self._current[self.topology.node_id(original)]]

    def original_location(self, current: Coordinate) -> Coordinate:
        """The design-time coordinate of the workload now at ``current``."""
        if self._original is None:
            self._original = np.empty_like(self._current)
            self._original[self._current] = self._identity
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
