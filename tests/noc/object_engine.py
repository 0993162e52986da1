"""Seed object-graph NoC engine, kept as the oracle for the vector kernel.

This is the per-cycle, one-object-per-flit wormhole mesh the reproduction
started from: :class:`Network` owns one :class:`Router` per node, each with
input :class:`FlitBuffer` FIFOs, output :class:`CreditCounter` credits and
round-robin switch allocation, connected by :class:`Link` objects.  The
runtime engine, :class:`repro.noc.vector.VectorNetwork`, reproduces its
per-cycle semantics exactly; ``tests/noc/test_vector_engine.py`` pins that
parity on identical traffic.

:func:`run_traffic` and :func:`run_packets` replay a
:class:`~repro.noc.schedule.TrafficSchedule` (or an explicit packet batch)
through the object network with the same warm-up / measurement / drain
protocol as :class:`repro.noc.simulator.NocSimulator`, so the two engines can
be compared field for field.

The update for one cycle is:

1. every router computes routes for new head flits;
2. every router runs switch allocation, producing a set of flit traversals;
3. all traversals are applied atomically: flits move to the neighbouring
   router (or are ejected), credits are consumed/released, link counters are
   bumped;
4. pending source-queued packets are injected where the local input buffer
   has room.

Because the traversals computed in step 2 are applied only in step 3, a flit
advances at most one hop per cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum, auto
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.noc.flit import Packet
from repro.noc.routing import RoutingAlgorithm, make_routing
from repro.noc.schedule import PACKET_CLASS_FROM_CODE, TrafficSchedule
from repro.noc.simulator import SimulationResult
from repro.noc.stats import NetworkStats, RouterActivity
from repro.noc.topology import Coordinate, Direction, MeshTopology

EjectionHandler = Callable[[Packet, int], None]


# ----------------------------------------------------------------------
# Flits
# ----------------------------------------------------------------------
class FlitType(Enum):
    """Position of a flit within its packet."""

    HEAD = auto()
    BODY = auto()
    TAIL = auto()
    HEAD_TAIL = auto()

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


@dataclass
class Flit:
    """A single flow-control unit of a packet."""

    packet: Packet
    flit_type: FlitType
    index: int

    @property
    def destination(self) -> Coordinate:
        return self.packet.destination

    @property
    def source(self) -> Coordinate:
        return self.packet.source

    @property
    def is_head(self) -> bool:
        return self.flit_type.is_head

    @property
    def is_tail(self) -> bool:
        return self.flit_type.is_tail

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flit(pkt={self.packet.packet_id}, {self.flit_type.name}, "
            f"{self.source}->{self.destination})"
        )


def make_flits(packet: Packet) -> List[Flit]:
    """Segment a packet into its head / body / tail flit sequence."""
    if packet.size_flits == 1:
        return [Flit(packet=packet, flit_type=FlitType.HEAD_TAIL, index=0)]
    flits = [Flit(packet=packet, flit_type=FlitType.HEAD, index=0)]
    for i in range(1, packet.size_flits - 1):
        flits.append(Flit(packet=packet, flit_type=FlitType.BODY, index=i))
    flits.append(
        Flit(packet=packet, flit_type=FlitType.TAIL, index=packet.size_flits - 1)
    )
    return flits


# ----------------------------------------------------------------------
# Buffers and credits
# ----------------------------------------------------------------------
class BufferOverflowError(RuntimeError):
    """Raised when a flit is pushed into a full buffer.

    With correct credit accounting this never happens; the exception exists
    so that flow-control bugs fail loudly instead of silently dropping flits.
    """


@dataclass
class FlitBuffer:
    """A fixed-capacity FIFO of flits attached to a router input port."""

    capacity: int
    _fifo: Deque[Flit] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("buffer capacity must be at least one flit")

    @property
    def occupancy(self) -> int:
        """Number of flits currently stored."""
        return len(self._fifo)

    @property
    def free_slots(self) -> int:
        """Number of flits that can still be accepted."""
        return self.capacity - len(self._fifo)

    @property
    def is_empty(self) -> bool:
        return not self._fifo

    @property
    def is_full(self) -> bool:
        return len(self._fifo) >= self.capacity

    def push(self, flit: Flit) -> None:
        """Append a flit; raises :class:`BufferOverflowError` when full."""
        if self.is_full:
            raise BufferOverflowError(
                f"buffer overflow (capacity={self.capacity}) pushing {flit!r}"
            )
        self._fifo.append(flit)

    def peek(self) -> Optional[Flit]:
        """Return the flit at the head of the FIFO without removing it."""
        if not self._fifo:
            return None
        return self._fifo[0]

    def pop(self) -> Flit:
        """Remove and return the head flit."""
        if not self._fifo:
            raise IndexError("pop from empty flit buffer")
        return self._fifo.popleft()

    def clear(self) -> None:
        """Drop all buffered flits (used when resetting the network)."""
        self._fifo.clear()

    def __len__(self) -> int:
        return len(self._fifo)

    def __iter__(self):
        return iter(self._fifo)


@dataclass
class CreditCounter:
    """Credits available for the downstream buffer of one output port."""

    capacity: int
    credits: int = -1

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("credit capacity must be at least one")
        if self.credits < 0:
            self.credits = self.capacity

    @property
    def has_credit(self) -> bool:
        return self.credits > 0

    def consume(self) -> None:
        """Spend one credit when forwarding a flit downstream."""
        if self.credits <= 0:
            raise RuntimeError("credit underflow: forwarding without credit")
        self.credits -= 1

    def release(self) -> None:
        """Return one credit when the downstream buffer drains a flit."""
        if self.credits >= self.capacity:
            raise RuntimeError("credit overflow: more credits than buffer slots")
        self.credits += 1


# ----------------------------------------------------------------------
# Links
# ----------------------------------------------------------------------
@dataclass
class Link:
    """A unidirectional link from ``source`` towards ``direction``."""

    source: Coordinate
    destination: Coordinate
    direction: Direction
    latency_cycles: int = 1
    flits_carried: int = 0
    busy_cycles: int = 0

    def traverse(self) -> None:
        """Record one flit traversal."""
        self.flits_carried += 1
        self.busy_cycles += self.latency_cycles

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles this link carried a flit."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)

    def reset(self) -> None:
        self.flits_carried = 0
        self.busy_cycles = 0


class LinkTable:
    """All links of a mesh, keyed by (source coordinate, direction)."""

    def __init__(self) -> None:
        self._links: Dict[Tuple[Coordinate, Direction], Link] = {}

    def add(self, link: Link) -> None:
        key = (link.source, link.direction)
        if key in self._links:
            raise ValueError(f"duplicate link {key}")
        self._links[key] = link

    def get(self, source: Coordinate, direction: Direction) -> Link:
        return self._links[(source, direction)]

    def __iter__(self):
        return iter(self._links.values())

    def __len__(self) -> int:
        return len(self._links)

    def total_flits(self) -> int:
        """Sum of flits carried over every link."""
        return sum(link.flits_carried for link in self._links.values())

    def reset(self) -> None:
        for link in self._links.values():
            link.reset()


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
ALL_PORTS = (
    Direction.LOCAL,
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)


@dataclass
class _OutputPort:
    """Wormhole allocation and credit state of one output port."""

    credits: CreditCounter
    owner: Optional[Direction] = None  # input port currently holding the wormhole


@dataclass
class Forward:
    """A flit traversal decided during switch allocation.

    ``out_dir`` is relative to the router that owns the flit; the network
    delivers the flit to the neighbouring router's opposite input port (or
    ejects it when ``out_dir`` is LOCAL).
    """

    router: "Router"
    in_dir: Direction
    out_dir: Direction
    flit: Flit


class Router:
    """One mesh router with input-buffered wormhole switching.

    Per cycle: route computation for head flits at the front of each input
    buffer, switch allocation (at most one flit per output port, round-robin
    among contending inputs), then the winners' traversals, which the
    network applies atomically.
    """

    def __init__(
        self,
        coordinate: Coordinate,
        routing: RoutingAlgorithm,
        buffer_depth: int = 4,
        connected_ports: Optional[List[Direction]] = None,
    ):
        self.coordinate = coordinate
        self.routing = routing
        self.buffer_depth = buffer_depth
        if connected_ports is None:
            connected_ports = list(ALL_PORTS)
        if Direction.LOCAL not in connected_ports:
            connected_ports = [Direction.LOCAL] + list(connected_ports)
        self.connected_ports: Tuple[Direction, ...] = tuple(connected_ports)

        self.input_buffers: Dict[Direction, FlitBuffer] = {
            port: FlitBuffer(buffer_depth) for port in self.connected_ports
        }
        self.output_ports: Dict[Direction, _OutputPort] = {
            port: _OutputPort(CreditCounter(buffer_depth)) for port in self.connected_ports
        }
        # Cached routing decision for the packet at the head of each input FIFO.
        self._head_route: Dict[Direction, Optional[Direction]] = {
            port: None for port in self.connected_ports
        }
        # Round-robin pointer per output port for fair switch allocation.
        self._rr_pointer: Dict[Direction, int] = {port: 0 for port in self.connected_ports}
        self.activity = RouterActivity()

    # ------------------------------------------------------------------
    # Buffer interface used by the network
    # ------------------------------------------------------------------
    def can_accept(self, port: Direction) -> bool:
        """True when the input buffer on ``port`` has a free slot."""
        return not self.input_buffers[port].is_full

    def accept_flit(self, port: Direction, flit: Flit) -> None:
        """Write an arriving flit into the input buffer on ``port``."""
        self.input_buffers[port].push(flit)
        self.activity.buffer_writes += 1

    def buffered_flits(self) -> int:
        """Total number of flits currently buffered in this router."""
        return sum(buf.occupancy for buf in self.input_buffers.values())

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def compute_routes(self) -> None:
        """Route computation stage for head flits lacking a decision."""
        for port in self.connected_ports:
            buf = self.input_buffers[port]
            head = buf.peek()
            if head is None:
                self._head_route[port] = None
                continue
            if self._head_route[port] is None:
                if head.is_head:
                    out = self.routing.route(self.coordinate, head.destination)
                    self._head_route[port] = out
                    self.activity.headers_decoded += 1
                else:
                    # Body/tail flit follows the wormhole its head opened.
                    owner_out = self._find_owned_output(port)
                    self._head_route[port] = owner_out

    def _find_owned_output(self, in_dir: Direction) -> Optional[Direction]:
        for out_dir, state in self.output_ports.items():
            if state.owner == in_dir:
                return out_dir
        return None

    def allocate_switch(self) -> List[Forward]:
        """Switch-allocation stage: pick at most one winner per output port."""
        requests: Dict[Direction, List[Direction]] = {}
        for in_dir in self.connected_ports:
            buf = self.input_buffers[in_dir]
            head = buf.peek()
            out_dir = self._head_route[in_dir]
            if head is None or out_dir is None:
                continue
            out_state = self.output_ports[out_dir]
            # A wormhole already held by another input blocks this request.
            if out_state.owner is not None and out_state.owner != in_dir:
                continue
            if not out_state.credits.has_credit and out_dir != Direction.LOCAL:
                continue
            requests.setdefault(out_dir, []).append(in_dir)

        forwards: List[Forward] = []
        for out_dir, contenders in requests.items():
            self.activity.arbitration_rounds += 1
            winner = self._arbitrate(out_dir, contenders)
            flit = self.input_buffers[winner].pop()
            self.activity.buffer_reads += 1
            self.activity.crossbar_traversals += 1
            self.activity.flits_routed += 1
            out_state = self.output_ports[out_dir]
            if flit.is_head:
                out_state.owner = winner
            if flit.is_tail:
                out_state.owner = None
            if out_dir != Direction.LOCAL:
                out_state.credits.consume()
                self.activity.link_traversals += 1
            self._head_route[winner] = None
            forwards.append(Forward(router=self, in_dir=winner, out_dir=out_dir, flit=flit))
        return forwards

    def _arbitrate(self, out_dir: Direction, contenders: List[Direction]) -> Direction:
        """Round-robin arbitration among the contending input ports."""
        if len(contenders) == 1:
            return contenders[0]
        order = list(self.connected_ports)
        start = self._rr_pointer[out_dir]
        rotated = order[start:] + order[:start]
        for candidate in rotated:
            if candidate in contenders:
                self._rr_pointer[out_dir] = (order.index(candidate) + 1) % len(order)
                return candidate
        return contenders[0]  # pragma: no cover - defensive

    def credit_return(self, out_dir: Direction) -> None:
        """Return one credit for ``out_dir`` (downstream buffer drained a flit)."""
        self.output_ports[out_dir].credits.release()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all buffered flits and restore credits (between experiments)."""
        for port in self.connected_ports:
            self.input_buffers[port].clear()
            self.output_ports[port] = _OutputPort(CreditCounter(self.buffer_depth))
            self._head_route[port] = None
            self._rr_pointer[port] = 0
        self.activity = RouterActivity()

    def is_idle(self) -> bool:
        """True when no flits are buffered and no wormholes are held."""
        if any(not buf.is_empty for buf in self.input_buffers.values()):
            return False
        return all(state.owner is None for state in self.output_ports.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Router{self.coordinate}"


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
class Network:
    """A 2-D mesh wormhole network.

    Parameters
    ----------
    topology:
        The mesh dimensions.
    routing:
        A routing algorithm name (``"xy"`` by default) or an instantiated
        :class:`~repro.noc.routing.RoutingAlgorithm`.
    buffer_depth:
        Input FIFO depth per router port, in flits.
    """

    def __init__(
        self,
        topology: MeshTopology,
        routing: "str | RoutingAlgorithm" = "xy",
        buffer_depth: int = 4,
    ):
        self.topology = topology
        if isinstance(routing, str):
            routing = make_routing(routing, topology)
        self.routing = routing
        self.buffer_depth = buffer_depth

        self.routers: Dict[Coordinate, Router] = {}
        self.links = LinkTable()
        for coord in topology.coordinates():
            neighbor_dirs = list(topology.neighbors(coord).keys())
            ports = [Direction.LOCAL] + neighbor_dirs
            self.routers[coord] = Router(
                coordinate=coord,
                routing=self.routing,
                buffer_depth=buffer_depth,
                connected_ports=ports,
            )
            for direction, neighbor in topology.neighbors(coord).items():
                self.links.add(Link(source=coord, destination=neighbor, direction=direction))

        # Source queues: packets waiting at each node for injection.
        self.injection_queues: Dict[Coordinate, Deque[Packet]] = {
            coord: deque() for coord in topology.coordinates()
        }
        # Packets currently being injected flit-by-flit.
        self._injecting: Dict[Coordinate, List[Flit]] = {}
        # Flits of partially ejected packets, keyed by packet id.
        self._ejecting: Dict[int, int] = {}

        self.stats = NetworkStats()
        self.ejected_packets: List[Packet] = []
        self.ejection_handler: Optional[EjectionHandler] = None
        self.current_cycle = 0

    # ------------------------------------------------------------------
    # Injection interface
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Queue a packet at its source node for injection."""
        if not self.topology.contains(packet.source):
            raise ValueError(f"packet source {packet.source} outside mesh")
        if not self.topology.contains(packet.destination):
            raise ValueError(f"packet destination {packet.destination} outside mesh")
        self.injection_queues[packet.source].append(packet)

    def pending_injections(self) -> int:
        """Packets still waiting in source queues (plus partially injected)."""
        waiting = sum(len(q) for q in self.injection_queues.values())
        return waiting + len(self._injecting)

    # ------------------------------------------------------------------
    # Cycle update
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle."""
        # 1-2. Route computation + switch allocation in every router.
        forwards: List[Forward] = []
        for router in self.routers.values():
            router.compute_routes()
            forwards.extend(router.allocate_switch())

        # 3. Apply traversals atomically.
        for fwd in forwards:
            self._apply_forward(fwd)

        # 4. Inject waiting packets flit by flit.
        self._inject_pending()

        self.current_cycle += 1
        self.stats.cycles += 1

    def _apply_forward(self, fwd: Forward) -> None:
        router = fwd.router
        coord = router.coordinate
        flit = fwd.flit

        # Return a credit upstream for the buffer slot just freed, unless the
        # flit came from the LOCAL injection port (whose source queue does not
        # use credits).
        if fwd.in_dir != Direction.LOCAL:
            upstream_coord = self.topology.neighbor(coord, fwd.in_dir)
            upstream = self.routers[upstream_coord]
            upstream.credit_return(fwd.in_dir.opposite)

        if fwd.out_dir == Direction.LOCAL:
            self._eject_flit(coord, flit)
            return

        link = self.links.get(coord, fwd.out_dir)
        link.traverse()
        downstream = self.routers[link.destination]
        downstream.accept_flit(fwd.out_dir.opposite, flit)

    def _eject_flit(self, coord: Coordinate, flit: Flit) -> None:
        packet = flit.packet
        seen = self._ejecting.get(packet.packet_id, 0) + 1
        if flit.is_tail:
            self._ejecting.pop(packet.packet_id, None)
            packet.ejection_cycle = self.current_cycle + 1
            self.stats.record_ejection(packet)
            self.ejected_packets.append(packet)
            if self.ejection_handler is not None:
                self.ejection_handler(packet, packet.ejection_cycle)
        else:
            self._ejecting[packet.packet_id] = seen

    def _inject_pending(self) -> None:
        for coord, queue in self.injection_queues.items():
            router = self.routers[coord]
            # Continue injecting a packet already in progress.
            flits = self._injecting.get(coord)
            if flits is None and queue:
                packet = queue.popleft()
                packet.injection_cycle = self.current_cycle
                self.stats.record_injection(packet)
                flits = make_flits(packet)
                self._injecting[coord] = flits
            if not flits:
                continue
            # Push as many flits as the local buffer accepts this cycle
            # (the local port has the same bandwidth as a link: one flit).
            if router.can_accept(Direction.LOCAL):
                router.accept_flit(Direction.LOCAL, flits.pop(0))
            else:
                self.stats.stalled_injections += 1
            if not flits:
                self._injecting.pop(coord, None)

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Run for a fixed number of cycles."""
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until all traffic has been delivered; returns cycles used.

        Raises ``RuntimeError`` if the network does not drain within
        ``max_cycles`` (which would indicate deadlock or livelock).
        """
        used = 0
        while not self.is_idle():
            if used >= max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.stats.in_flight_packets} packets in flight)"
                )
            self.step()
            used += 1
        return used

    def is_idle(self) -> bool:
        """True when no packets are queued, buffered or in flight."""
        if self.pending_injections():
            return False
        return all(router.is_idle() for router in self.routers.values())

    # ------------------------------------------------------------------
    # Activity collection for the power model
    # ------------------------------------------------------------------
    def router_activity(self) -> Dict[Coordinate, RouterActivity]:
        """Snapshot of per-router activity counters."""
        return {coord: replace(router.activity) for coord, router in self.routers.items()}

    def reset_activity(self) -> None:
        """Clear per-router activity counters (start of a power interval)."""
        for router in self.routers.values():
            router.activity = RouterActivity()
        self.links.reset()

    def reset(self) -> None:
        """Full reset: drop traffic, clear stats and counters."""
        for router in self.routers.values():
            router.reset()
        self.links.reset()
        for queue in self.injection_queues.values():
            queue.clear()
        self._injecting.clear()
        self._ejecting.clear()
        self.stats.reset()
        self.ejected_packets.clear()
        self.current_cycle = 0


# ----------------------------------------------------------------------
# NocSimulator-equivalent runs
# ----------------------------------------------------------------------
def to_packets(schedule: TrafficSchedule, topology: MeshTopology) -> List[Packet]:
    """Materialise one ``Packet`` per schedule row, in offer order."""
    return [
        Packet(
            source=topology.coordinate(int(s)),
            destination=topology.coordinate(int(d)),
            size_flits=int(z),
            packet_class=PACKET_CLASS_FROM_CODE[int(c)],
            injection_cycle=int(t),
        )
        for t, s, d, z, c in zip(
            schedule.cycle, schedule.src, schedule.dst, schedule.size, schedule.pclass
        )
    ]


def _result(network: Network, cycles: int, drained: bool) -> SimulationResult:
    return SimulationResult(
        cycles=cycles,
        stats=network.stats,
        router_activity=network.router_activity(),
        link_flits=network.links.total_flits(),
        drained=drained,
    )


def run_traffic(
    topology: MeshTopology,
    schedule: TrafficSchedule,
    cycles: int,
    warmup_cycles: int = 0,
    routing: str = "xy",
    buffer_depth: int = 4,
    drain: bool = True,
    drain_limit: int = 200_000,
) -> SimulationResult:
    """Replay ``schedule`` like ``NocSimulator.run_traffic`` on the object engine.

    Each packet is offered at its schedule cycle during warm-up and
    measurement; statistics and activity are reset at the warm-up boundary
    with traffic left in flight, then the network drains.
    """
    network = Network(topology, routing=routing, buffer_depth=buffer_depth)
    offered: Dict[int, List[Packet]] = {}
    for packet in to_packets(schedule.limited_to(warmup_cycles + cycles), topology):
        offered.setdefault(packet.injection_cycle, []).append(packet)

    def step(cycle: int) -> None:
        for packet in offered.get(cycle, ()):
            network.inject(packet)
        network.step()

    for cycle in range(warmup_cycles):
        step(cycle)
    # Reset measurement state after warm-up but keep in-flight traffic.
    network.stats.reset()
    network.reset_activity()
    for offset in range(cycles):
        step(warmup_cycles + offset)
    if drain:
        network.drain(max_cycles=drain_limit)
    return _result(network, network.stats.cycles, drain)


def run_packets(
    topology: MeshTopology,
    packets: Sequence[Packet],
    routing: str = "xy",
    buffer_depth: int = 4,
    drain_limit: int = 500_000,
) -> SimulationResult:
    """Inject ``packets`` at cycle zero and drain, like ``NocSimulator.run_packets``."""
    network = Network(topology, routing=routing, buffer_depth=buffer_depth)
    for packet in packets:
        network.inject(packet)
    run_cycles = network.drain(max_cycles=drain_limit)
    return _result(network, run_cycles, True)
