"""High-level cycle-accurate simulation driver.

:func:`run_schedules` runs :class:`~repro.noc.schedule.TrafficSchedule`
arrays as the lanes of one :class:`~repro.noc.vector.VectorNetwork`: warm-up,
measurement reset, measured cycles, drain, and write-back of the packet
cycles.  :class:`NocSimulator` runs one lane through it for a traffic source
— a synthetic generator's pregenerated schedule (``run_traffic``) or an
explicit packet batch offered at cycle zero, like one LDPC sub-iteration or
a migration's CONFIG packets (``run_packets``) — and reports a
:class:`SimulationResult` bundling the performance statistics and the
per-router activity counters the power model consumes.

The seed object-graph engine the kernel reproduces exactly is kept as the
test oracle in ``tests/noc/object_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .flit import Packet
from .routing import make_routing
from .schedule import TrafficSchedule
from .stats import NetworkStats, RouterActivity
from .topology import Coordinate, MeshTopology
from .traffic import TrafficGenerator
from .vector import VectorNetwork


@dataclass
class SimulationResult:
    """Outcome of one simulation interval."""

    cycles: int
    stats: NetworkStats
    router_activity: Dict[Coordinate, RouterActivity]
    link_flits: int
    drained: bool

    @property
    def average_latency(self) -> float:
        return self.stats.average_latency

    @property
    def throughput_flits_per_cycle(self) -> float:
        return self.stats.throughput_flits_per_cycle

    def activity_per_node(self) -> Dict[Coordinate, int]:
        """Total switching events per router (flits routed + buffer traffic)."""
        result = {}
        for coord, activity in self.router_activity.items():
            result[coord] = (
                activity.flits_routed
                + activity.buffer_reads
                + activity.buffer_writes
                + activity.crossbar_traversals
            )
        return result


def _check_cycle_counts(cycles: int, warmup_cycles: int) -> None:
    for name, value in (("cycles", cycles), ("warmup_cycles", warmup_cycles)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def run_schedules(
    topology: MeshTopology,
    schedules: Sequence[TrafficSchedule],
    *,
    routing: str = "xy",
    buffer_depth: int = 4,
    cycles: int,
    warmup_cycles: int = 0,
    drain: bool = True,
    drain_limit: int = 200_000,
) -> List[SimulationResult]:
    """Run many schedules as lanes of one vector engine, one result each.

    Each lane runs ``warmup_cycles``, resets its measurement (keeping
    traffic in flight), runs ``cycles`` measured cycles, then — when
    ``drain`` is true — drains, its cycle counter freezing as soon as it
    empties.  Packets offered at or after ``warmup_cycles + cycles`` are
    dropped.
    """
    _check_cycle_counts(cycles, warmup_cycles)
    horizon = warmup_cycles + cycles
    net = VectorNetwork(
        topology,
        [schedule.limited_to(horizon) for schedule in schedules],
        routing=routing,
        buffer_depth=buffer_depth,
    )
    net.run(warmup_cycles)
    net.reset_measurement()
    net.run(cycles)
    if drain:
        net.drain(max_cycles=drain_limit)
    net.write_back_packets()
    results = []
    for lane in range(len(schedules)):
        stats = net.lane_stats(lane)
        results.append(
            SimulationResult(
                cycles=stats.cycles,
                stats=stats,
                router_activity=net.lane_activity(lane),
                link_flits=net.lane_link_flits(lane),
                drained=drain,
            )
        )
    return results


class NocSimulator:
    """Runs one traffic source through the mesh for a bounded interval."""

    def __init__(
        self,
        topology: MeshTopology,
        routing: str = "xy",
        buffer_depth: int = 4,
    ):
        if buffer_depth < 1:
            raise ValueError("buffer depth must be at least one flit")
        make_routing(routing, topology)  # unknown names fail here, not mid-run
        self.topology = topology
        self.routing = routing
        self.buffer_depth = buffer_depth

    def _run(self, schedule: TrafficSchedule, **phases) -> SimulationResult:
        return run_schedules(
            self.topology,
            [schedule],
            routing=self.routing,
            buffer_depth=self.buffer_depth,
            **phases,
        )[0]

    def run_traffic(
        self,
        traffic: TrafficGenerator,
        cycles: int,
        warmup_cycles: int = 0,
        drain: bool = True,
        drain_limit: int = 200_000,
    ) -> SimulationResult:
        """Drive ``traffic`` through the network for ``cycles`` cycles.

        ``warmup_cycles`` are simulated before statistics collection begins so
        that latency numbers reflect steady state.  When ``drain`` is true the
        network is emptied after injection stops (and the drain cycles are
        included in the cycle count), which is how the LDPC iteration windows
        are simulated — an iteration is complete only when all its messages
        have been delivered.
        """
        _check_cycle_counts(cycles, warmup_cycles)
        return self._run(
            traffic.schedule(warmup_cycles + cycles),
            cycles=cycles,
            warmup_cycles=warmup_cycles,
            drain=drain,
            drain_limit=drain_limit,
        )

    def run_packets(
        self,
        packets: "list[Packet]",
        drain_limit: int = 500_000,
    ) -> SimulationResult:
        """Inject an explicit batch of packets at cycle zero and drain.

        The batch abstraction matches one LDPC decoding sub-iteration: all
        variable-to-check (or check-to-variable) messages are produced
        together, and the sub-iteration ends when the last one is delivered.
        Every packet needs distinct source and destination nodes.
        """
        # Cycle-0 offers need a one-cycle horizon; an empty batch runs none.
        return self._run(
            TrafficSchedule.from_packets(packets, self.topology, cycle=0),
            cycles=1 if packets else 0,
            drain_limit=drain_limit,
        )
