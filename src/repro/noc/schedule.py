"""Array-form packet schedules for the vector NoC engine.

A :class:`TrafficSchedule` is the struct-of-arrays equivalent of a list of
:class:`~repro.noc.flit.Packet` objects: one row per packet, holding the
offer cycle, source/destination node ids, flit count and traffic class.  It
is the interchange format between traffic generation and the
:class:`~repro.noc.vector.VectorNetwork` cycle kernel — generators
pregenerate their whole schedule once per run instead of materialising
packets cycle by cycle.

Schedules are built two ways:

* ``generator.schedule(cycles)`` — synthetic traffic, pregenerated with
  vectorized draws (see :mod:`repro.noc.traffic`);
* :meth:`TrafficSchedule.from_packets` — from explicit ``Packet`` objects
  (the LDPC workload adapter and migration replay path).  The original
  objects are retained so the engine can write ``injection_cycle`` /
  ``ejection_cycle`` back after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .flit import Packet, PacketClass
from .topology import MeshTopology

#: Integer codes for PacketClass stored in schedule arrays.
PACKET_CLASS_CODES = {cls: index for index, cls in enumerate(PacketClass)}
PACKET_CLASS_FROM_CODE = {index: cls for cls, index in PACKET_CLASS_CODES.items()}


@dataclass
class TrafficSchedule:
    """One packet per row, in source-queue (offer) order.

    Attributes
    ----------
    cycle:
        Cycle each packet is offered to the network (``inject`` call time).
    src, dst:
        Row-major node ids of the injecting and ejecting routers.
    size:
        Total flits per packet including head and tail.
    pclass:
        Integer :data:`PACKET_CLASS_CODES` code per packet.
    packets:
        The originating ``Packet`` objects when the schedule was built from
        them (used to write latencies back), else ``None``.
    """

    cycle: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    size: np.ndarray
    pclass: np.ndarray
    packets: Optional[List[Packet]] = None

    def __post_init__(self) -> None:
        self.cycle = np.asarray(self.cycle, dtype=np.int64)
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.size = np.asarray(self.size, dtype=np.int64)
        self.pclass = np.asarray(self.pclass, dtype=np.int64)
        n = self.cycle.size
        for name in ("src", "dst", "size", "pclass"):
            if getattr(self, name).size != n:
                raise ValueError(f"schedule column {name!r} length mismatch")
        if n and self.size.min() < 1:
            raise ValueError("every packet needs at least one flit")

    # ------------------------------------------------------------------
    @property
    def num_packets(self) -> int:
        return int(self.cycle.size)

    @property
    def total_flits(self) -> int:
        return int(self.size.sum())

    def limited_to(self, max_cycle: int) -> "TrafficSchedule":
        """Schedule restricted to packets offered strictly before ``max_cycle``."""
        keep = self.cycle < max_cycle
        if keep.all():
            return self
        packets = None
        if self.packets is not None:
            packets = [p for p, k in zip(self.packets, keep) if k]
        return TrafficSchedule(
            cycle=self.cycle[keep],
            src=self.src[keep],
            dst=self.dst[keep],
            size=self.size[keep],
            pclass=self.pclass[keep],
            packets=packets,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_packets(
        cls,
        packets: Sequence[Packet],
        topology: MeshTopology,
        cycle: Optional[int] = None,
    ) -> "TrafficSchedule":
        """Build a schedule from explicit packets, keeping the objects.

        ``cycle`` overrides the offer cycle for every packet (``run_packets``
        injects everything at cycle zero); otherwise each packet's
        ``injection_cycle`` attribute is taken as its offer cycle.
        """
        count = len(packets)
        cycles = np.empty(count, dtype=np.int64)
        src = np.empty(count, dtype=np.int64)
        dst = np.empty(count, dtype=np.int64)
        size = np.empty(count, dtype=np.int64)
        pclass = np.empty(count, dtype=np.int64)
        for index, packet in enumerate(packets):
            cycles[index] = packet.injection_cycle if cycle is None else cycle
            src[index] = topology.node_id(packet.source)
            dst[index] = topology.node_id(packet.destination)
            size[index] = packet.size_flits
            pclass[index] = PACKET_CLASS_CODES[packet.packet_class]
        return cls(cycles, src, dst, size, pclass, packets=list(packets))
