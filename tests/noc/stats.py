"""Network statistics of the cycle-engine oracle: latency, throughput and
per-router activity."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.noc.flit import Packet, PacketClass

Coordinate = Tuple[int, int]


@dataclass
class RouterActivity:
    """Per-router switching-activity counters consumed by the power model."""

    flits_routed: int = 0
    headers_decoded: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    crossbar_traversals: int = 0
    link_traversals: int = 0
    arbitration_rounds: int = 0


@dataclass
class LatencyStats:
    """Streaming mean/max/min accumulator for packet latencies."""

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class NetworkStats:
    """Aggregate statistics collected over a simulation interval."""

    cycles: int = 0
    packets_injected: int = 0
    packets_ejected: int = 0
    flits_injected: int = 0
    flits_ejected: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    latency_by_class: Dict[PacketClass, LatencyStats] = field(default_factory=dict)
    ejected_per_node: Dict[Coordinate, int] = field(default_factory=dict)
    injected_per_node: Dict[Coordinate, int] = field(default_factory=dict)
    stalled_injections: int = 0

    def record_injection(self, packet: Packet) -> None:
        self.packets_injected += 1
        self.flits_injected += packet.size_flits
        self.injected_per_node[packet.source] = (
            self.injected_per_node.get(packet.source, 0) + 1
        )

    def record_ejection(self, packet: Packet) -> None:
        self.packets_ejected += 1
        self.flits_ejected += packet.size_flits
        self.ejected_per_node[packet.destination] = (
            self.ejected_per_node.get(packet.destination, 0) + 1
        )
        if packet.latency is not None:
            self.latency.record(packet.latency)
            per_class = self.latency_by_class.setdefault(packet.packet_class, LatencyStats())
            per_class.record(packet.latency)

    # ------------------------------------------------------------------
    @property
    def average_latency(self) -> float:
        """Mean end-to-end packet latency in cycles."""
        return self.latency.mean

    @property
    def in_flight_packets(self) -> int:
        """Packets injected but not yet ejected."""
        return self.packets_injected - self.packets_ejected

    def reset(self) -> None:
        self.cycles = 0
        self.packets_injected = 0
        self.packets_ejected = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.latency = LatencyStats()
        self.latency_by_class = {}
        self.ejected_per_node = {}
        self.injected_per_node = {}
        self.stalled_injections = 0
