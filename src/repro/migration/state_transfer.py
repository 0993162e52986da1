"""Model of the PE configuration/state that must move during a migration.

The paper transfers, for every PE, its configuration stream plus whatever
decoder state is live at the migration instant.  Migrations are deliberately
aligned with the completion of an LDPC message block precisely to minimise
this state (no in-flight messages, no partial posteriors), but the routing
tables, node assignments and block buffers still have to move.  This module
sizes that payload in flits and sets the conversion unit's serialization rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StateTransferModel:
    """Size and timing of one PE's migration payload.

    Attributes
    ----------
    configuration_bits:
        Static configuration of a PE: Tanner-node assignment tables, routing
        information, schedule microcode.
    state_bits_per_tanner_node:
        Live state per Tanner node owned by the PE (channel LLR plus current
        posterior for a variable node, sign/magnitude pair for a check node).
    flit_payload_bits:
        Payload bits carried by one flit.
    serialization_cycles_per_flit:
        Cycles the conversion unit needs to read, transform and emit one flit
        of configuration (the "conversion unit" of Section 2.1).
    """

    configuration_bits: int = 16384
    state_bits_per_tanner_node: int = 16
    flit_payload_bits: int = 64
    serialization_cycles_per_flit: int = 1

    def __post_init__(self) -> None:
        if self.configuration_bits < 0 or self.state_bits_per_tanner_node < 0:
            raise ValueError("state sizes cannot be negative")
        if self.flit_payload_bits < 1:
            raise ValueError("flit payload must be at least one bit")
        if self.serialization_cycles_per_flit < 1:
            raise ValueError("serialization takes at least one cycle per flit")

    # ------------------------------------------------------------------
    def payload_bits(self, tanner_nodes_on_pe: int = 0) -> int:
        """Total bits to move for a PE owning ``tanner_nodes_on_pe`` nodes."""
        if tanner_nodes_on_pe < 0:
            raise ValueError("node count cannot be negative")
        return self.configuration_bits + tanner_nodes_on_pe * self.state_bits_per_tanner_node

    def payload_flits(self, tanner_nodes_on_pe: int = 0) -> int:
        """Payload flits (excluding the head flit) for one PE's migration."""
        bits = self.payload_bits(tanner_nodes_on_pe)
        if bits == 0:
            return 0
        return math.ceil(bits / self.flit_payload_bits)
