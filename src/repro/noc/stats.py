"""Network statistics: latency, throughput and per-node activity.

These counters feed two consumers:

* the *performance* side of the evaluation (throughput penalty of migration,
  Section 3 of the paper), and
* the *power* side, where per-router switching activity is converted into
  per-unit power by :mod:`repro.power`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .flit import Packet, PacketClass

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

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        merged = LatencyStats(count=self.count + other.count, total=self.total + other.total)
        mins = [m for m in (self.minimum, other.minimum) if m is not None]
        maxs = [m for m in (self.maximum, other.maximum) if m is not None]
        merged.minimum = min(mins) if mins else None
        merged.maximum = max(maxs) if maxs else None
        return merged


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
    def throughput_flits_per_cycle(self) -> float:
        """Accepted traffic in flits per cycle over the measured interval."""
        if self.cycles <= 0:
            return 0.0
        return self.flits_ejected / self.cycles

    @property
    def throughput_packets_per_cycle(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.packets_ejected / self.cycles

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

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics (for CSV/report output)."""
        return {
            "cycles": float(self.cycles),
            "packets_injected": float(self.packets_injected),
            "packets_ejected": float(self.packets_ejected),
            "flits_ejected": float(self.flits_ejected),
            "avg_latency_cycles": self.average_latency,
            "max_latency_cycles": float(self.latency.maximum or 0.0),
            "throughput_flits_per_cycle": self.throughput_flits_per_cycle,
            "stalled_injections": float(self.stalled_injections),
        }
