"""Synthetic traffic generators, the cycle-engine oracle's traffic input.

The analytic wormhole model (:mod:`repro.noc.analytic`) is calibrated
against the object engine on these classic patterns; its destination
probabilities mirror the generators below.

A generator pregenerates a whole run with ``schedule(cycles)``: a handful of
vectorized draws from one ``numpy.random.default_rng(seed)`` per run yield a
:class:`schedule.TrafficSchedule`.  Same-seed calls reproduce the identical
schedule (pinned by ``tests/noc/test_traffic_schedule.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.noc.flit import PacketClass
from repro.noc.topology import Coordinate, MeshTopology
from schedule import PACKET_CLASS_CODES, TrafficSchedule


class TrafficGenerator(ABC):
    """Base class: pregenerates the packets offered over a run."""

    def __init__(
        self,
        topology: MeshTopology,
        injection_rate: float,
        packet_size_flits: int = 4,
        seed: Optional[int] = None,
    ):
        if not 0.0 <= injection_rate <= 1.0:
            raise ValueError("injection rate must be in [0, 1] packets/node/cycle")
        if packet_size_flits < 1:
            raise ValueError("packet size must be at least one flit")
        self.topology = topology
        self.injection_rate = injection_rate
        self.packet_size_flits = packet_size_flits
        self.seed = seed

    def schedule(self, cycles: int) -> TrafficSchedule:
        """Pregenerate the whole packet schedule as arrays.

        One ``numpy.random.default_rng(seed)`` drives the entire run: a
        single ``(cycles, nodes)`` Bernoulli draw decides the injection
        slots, then each pattern fills the destinations with a few
        vectorized draws.  Packets come out ordered by (cycle, node)
        row-major.
        """
        n = self.topology.num_nodes
        rng = np.random.default_rng(self.seed)
        inject = rng.random((cycles, n)) < self.injection_rate
        slot_cycle, slot_node = np.nonzero(inject)
        src = slot_node.astype(np.int64)
        dst = self._schedule_destinations(rng, src)
        keep = (dst >= 0) & (dst != src)
        size = np.full(int(keep.sum()), self.packet_size_flits, dtype=np.int64)
        pclass = np.full(
            size.size, PACKET_CLASS_CODES[PacketClass.DATA], dtype=np.int64
        )
        return TrafficSchedule(
            cycle=slot_cycle[keep].astype(np.int64),
            src=src[keep],
            dst=dst[keep],
            size=size,
            pclass=pclass,
        )

    @abstractmethod
    def _schedule_destinations(
        self, rng: "np.random.Generator", src: np.ndarray
    ) -> np.ndarray:
        """Vectorized destinations per injection slot (-1 = drop the slot)."""

    def _uniform_destinations(
        self, rng: "np.random.Generator", src: np.ndarray
    ) -> np.ndarray:
        """Uniform over all nodes, rejecting draws equal to the source."""
        n = self.topology.num_nodes
        dst = rng.integers(0, n, size=src.size).astype(np.int64)
        bad = dst == src
        while bad.any():
            dst[bad] = rng.integers(0, n, size=int(bad.sum()))
            bad = dst == src
        return dst


class UniformRandomTraffic(TrafficGenerator):
    """Each packet goes to a uniformly random other node."""

    def _schedule_destinations(self, rng, src):
        return self._uniform_destinations(rng, src)


def _destination_map(topology: MeshTopology, fn) -> np.ndarray:
    """Node-id destination lookup for a deterministic pattern (-1 = none)."""
    table = np.full(topology.num_nodes, -1, dtype=np.int64)
    for node in range(topology.num_nodes):
        dest = fn(topology.coordinate(node))
        if dest is not None and topology.contains(dest):
            table[node] = topology.node_id(dest)
    return table


class TransposeTraffic(TrafficGenerator):
    """Node (x, y) sends to (y, x); meaningful on square meshes."""

    def _schedule_destinations(self, rng, src):
        return _destination_map(self.topology, lambda c: (c[1], c[0]))[src]


class BitComplementTraffic(TrafficGenerator):
    """Node (x, y) sends to (W-1-x, H-1-y)."""

    def _schedule_destinations(self, rng, src):
        topo = self.topology
        return _destination_map(
            topo, lambda c: (topo.width - 1 - c[0], topo.height - 1 - c[1])
        )[src]


class HotspotTraffic(TrafficGenerator):
    """A fraction of the traffic targets a small set of hotspot nodes.

    This pattern creates exactly the localized congestion / activity
    imbalance that produces thermal hotspots, and is used to stress the
    migration policies beyond the LDPC workload.
    """

    def __init__(
        self,
        topology: MeshTopology,
        injection_rate: float,
        hotspots: Sequence[Coordinate],
        hotspot_fraction: float = 0.5,
        packet_size_flits: int = 4,
        seed: Optional[int] = None,
    ):
        super().__init__(topology, injection_rate, packet_size_flits, seed)
        if not hotspots:
            raise ValueError("at least one hotspot node is required")
        for spot in hotspots:
            if not topology.contains(spot):
                raise ValueError(f"hotspot {spot} outside mesh")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.hotspots = list(hotspots)
        self.hotspot_fraction = hotspot_fraction

    def _schedule_destinations(self, rng, src):
        topo = self.topology
        spots = np.array([topo.node_id(s) for s in self.hotspots], dtype=np.int64)
        # Per-source candidate hotspots (the source itself excluded).
        candidates = np.tile(spots, (topo.num_nodes, 1))
        is_self = candidates == np.arange(topo.num_nodes)[:, None]
        counts = (~is_self).sum(axis=1)
        # Pack each row's valid candidates to the front.
        packed = np.where(is_self, np.iinfo(np.int64).max, candidates)
        packed.sort(axis=1)
        hot = rng.random(src.size) < self.hotspot_fraction
        hot &= counts[src] > 0
        pick = (rng.random(src.size) * counts[src]).astype(np.int64)
        dst = self._uniform_destinations(rng, src)
        dst[hot] = packed[src[hot], pick[hot]]
        return dst


class NeighborTraffic(TrafficGenerator):
    """Each node sends to a random mesh neighbour (short-range traffic).

    LDPC message-passing between adjacent partitions is dominated by this
    kind of near-neighbour communication.
    """

    def _schedule_destinations(self, rng, src):
        topo = self.topology
        max_deg = 4
        table = np.full((topo.num_nodes, max_deg), -1, dtype=np.int64)
        degree = np.zeros(topo.num_nodes, dtype=np.int64)
        for node in range(topo.num_nodes):
            coord = topo.coordinate(node)
            for i, ncoord in enumerate(topo.neighbors(coord).values()):
                table[node, i] = topo.node_id(ncoord)
            degree[node] = len(topo.neighbors(coord))
        pick = (rng.random(src.size) * degree[src]).astype(np.int64)
        return table[src, pick]


def make_traffic(
    pattern: str,
    topology: MeshTopology,
    injection_rate: float,
    packet_size_flits: int = 4,
    seed: Optional[int] = None,
    **kwargs,
) -> TrafficGenerator:
    """Factory for synthetic traffic by pattern name."""
    patterns = {
        "uniform": UniformRandomTraffic,
        "transpose": TransposeTraffic,
        "bit-complement": BitComplementTraffic,
        "neighbor": NeighborTraffic,
        "hotspot": HotspotTraffic,
    }
    try:
        cls = patterns[pattern]
    except KeyError:
        raise ValueError(
            f"unknown traffic pattern {pattern!r}; choose from {sorted(patterns)}"
        ) from None
    return cls(topology, injection_rate, packet_size_flits=packet_size_flits, seed=seed, **kwargs)
