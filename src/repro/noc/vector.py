"""Array-native cycle kernel for the wormhole mesh NoC.

:class:`VectorNetwork` is the cycle-accurate engine: a credit-flow wormhole
mesh with round-robin switch allocation whose router state is held as
struct-of-arrays.  It advances a whole cycle — for a whole **batch of
independent simulations** ("lanes") of the same mesh — with NumPy array
operations:

* input-FIFO occupancy as circular-buffer matrices of shape
  ``(lanes, nodes, ports, depth)`` plus head-pointer/length matrices;
* credit counts, wormhole ownership, cached route decisions and
  round-robin pointers as ``(lanes, nodes, ports)`` matrices;
* route computation by fancy-indexing a precomputed ``(nodes, nodes)``
  XY/YX/turn-model route table;
* switch allocation by sorting the flat request list on an
  ``(output port, rotated round-robin priority)`` key and taking the first
  entry of every output-port group;
* traversal/credit/ejection applied by scatters on flat
  ``lane x node x port`` indices.

Two implementation choices keep the per-cycle NumPy dispatch count low:
input buffers store packet-index and flit-index packed into one integer
(one gather/scatter instead of two), and activity/throughput counters are
not touched inside the cycle loop at all — each cycle appends its winner /
writer / ejection index arrays to event logs that are reduced with a single
``bincount`` pass when results are read.

The seed object-graph engine (one object per router, buffer and flit) is
the behavioural specification, kept as the test oracle in
``tests/noc/object_engine.py``: the kernel reproduces its per-cycle
semantics *exactly* — same round-robin pointer updates (the pointer only
advances when an output port actually saw contention), same credit timing,
same injection bookkeeping (a packet is dequeued before the buffer-space
check, so a full local buffer stalls that packet), same ejection order
(routers in row-major order within a cycle).  The parity suite in
``tests/noc/test_vector_engine.py`` pins per-packet latencies, ejection
order, router activity counters and stalled-injection counts against the
oracle on identical traffic.

Traffic enters as :class:`~repro.noc.schedule.TrafficSchedule` arrays, one
schedule per lane.  Multi-lane batches are how the latency curve becomes
ONE vectorized run: every injection rate is a lane, and all lanes advance
in lockstep (see :mod:`repro.noc.batch`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from .routing import RoutingAlgorithm, make_routing
from .schedule import PACKET_CLASS_FROM_CODE, TrafficSchedule
from .stats import LatencyStats, NetworkStats, RouterActivity
from .topology import Coordinate, Direction, MeshTopology

#: Number of router ports (LOCAL, EAST, WEST, NORTH, SOUTH).
NUM_PORTS = 5
_LOCAL = int(Direction.LOCAL)

#: Bits reserved for the flit index inside a packed buffer entry.
_FLIT_BITS = 22
_FLIT_MASK = (1 << _FLIT_BITS) - 1

#: Opposite-direction table indexed by Direction value.
_OPPOSITE = np.array([0, 2, 1, 4, 3], dtype=np.int64)

# Registry counters for the batched cycle kernel (no-ops while telemetry is
# disabled).  ``lane_cycles`` is lanes x cycles — the kernel's unit of work.
_OBS_RUNS = _obs_counter("noc.vector.runs")
_OBS_DRAINS = _obs_counter("noc.vector.drains")
_OBS_LANE_CYCLES = _obs_counter("noc.vector.lane_cycles")


class _MeshTables:
    """Precomputed per-(topology, routing) lookup tables."""

    def __init__(self, topology: MeshTopology, routing: RoutingAlgorithm):
        n = topology.num_nodes
        coords = list(topology.coordinates())
        #: deterministic route decision for every (current, destination) pair
        self.route_lut = np.zeros((n, n), dtype=np.int64)
        for i, src in enumerate(coords):
            for j, dst in enumerate(coords):
                self.route_lut[i, j] = int(routing.route(src, dst))
        #: neighbour node id per (node, direction); -1 where no link exists
        self.neighbor = np.full((n, NUM_PORTS), -1, dtype=np.int64)
        #: position of each direction in the node's connected-port list
        self.port_pos = np.full((n, NUM_PORTS), -1, dtype=np.int64)
        #: number of connected ports per node
        self.n_ports = np.zeros(n, dtype=np.int64)
        for i, coord in enumerate(coords):
            neighbors = topology.neighbors(coord)
            connected = [Direction.LOCAL] + list(neighbors.keys())
            self.n_ports[i] = len(connected)
            for pos, direction in enumerate(connected):
                self.port_pos[i, int(direction)] = pos
            for direction, ncoord in neighbors.items():
                self.neighbor[i, int(direction)] = topology.node_id(ncoord)
        self.neighbor_flat = self.neighbor.ravel()
        self.port_pos_flat = self.port_pos.ravel()


class VectorNetwork:
    """Batched struct-of-arrays wormhole mesh simulator.

    Parameters
    ----------
    topology:
        Mesh dimensions (shared by every lane).
    schedules:
        One :class:`TrafficSchedule` per lane.  Lanes are independent
        simulations advanced in lockstep.
    routing:
        Routing algorithm name or instance (deterministic first-candidate
        decision).
    buffer_depth:
        Input FIFO depth per router port, in flits.
    """

    def __init__(
        self,
        topology: MeshTopology,
        schedules: Sequence[TrafficSchedule],
        routing: "str | RoutingAlgorithm" = "xy",
        buffer_depth: int = 4,
    ):
        if not schedules:
            raise ValueError("at least one traffic lane is required")
        if buffer_depth < 1:
            raise ValueError("buffer depth must be at least one flit")
        self.topology = topology
        if isinstance(routing, str):
            routing = make_routing(routing, topology)
        self.routing = routing
        self.buffer_depth = buffer_depth
        self.schedules = list(schedules)

        self.num_lanes = len(self.schedules)
        self.num_nodes = topology.num_nodes
        self.tables = _MeshTables(topology, routing)
        self._build_packet_table()
        self._build_state()
        self.current_cycle = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_packet_table(self) -> None:
        lanes = [
            np.full(sched.num_packets, lane, dtype=np.int64)
            for lane, sched in enumerate(self.schedules)
        ]
        self.pkt_lane = np.concatenate(lanes)
        self.pkt_src = np.concatenate([s.src for s in self.schedules])
        self.pkt_dst = np.concatenate([s.dst for s in self.schedules])
        self.pkt_size = np.concatenate([s.size for s in self.schedules])
        self.pkt_class = np.concatenate([s.pclass for s in self.schedules])
        self.pkt_sched = np.concatenate([s.cycle for s in self.schedules])
        total = self.pkt_lane.size
        if np.any(self.pkt_src == self.pkt_dst):
            raise ValueError("schedule contains a packet with source == destination")
        if total and int(self.pkt_size.max()) >= _FLIT_MASK:
            raise ValueError("packet size exceeds the packed flit-index range")
        #: absolute cycle a packet started injecting (-1 while queued)
        self.pkt_inject = np.full(total, -1, dtype=np.int64)
        #: absolute cycle the tail flit ejected, plus one (-1 while in flight)
        self.pkt_eject = np.full(total, -1, dtype=np.int64)

        # Per-(lane, source-node) FIFO queues in offer order, as one sorted
        # index array plus CSR-style [start, end) ranges.
        B, N = self.num_lanes, self.num_nodes
        seq = np.arange(total, dtype=np.int64)
        order = np.lexsort((seq, self.pkt_sched, self.pkt_src, self.pkt_lane))
        self.q_pkts = order
        self.q_sched = self.pkt_sched[order]
        key = self.pkt_lane[order] * N + self.pkt_src[order]
        counts = np.bincount(key, minlength=B * N).astype(np.int64)
        ends = np.cumsum(counts)
        self.q_end = ends.reshape(B, N)
        self.q_ptr = (ends - counts).reshape(B, N)
        # One padding slot so availability checks can index q_sched safely.
        self._q_sched_padded = np.concatenate([self.q_sched, [np.iinfo(np.int64).max]])

    def _build_state(self) -> None:
        B, N, P, D = self.num_lanes, self.num_nodes, NUM_PORTS, self.buffer_depth
        #: packed (packet_index << _FLIT_BITS | flit_index) circular FIFOs
        self.buf_enc = np.zeros((B, N, P, D), dtype=np.int64)
        self.buf_head = np.zeros((B, N, P), dtype=np.int64)
        self.buf_len = np.zeros((B, N, P), dtype=np.int64)
        # Credits for every output port; unconnected ports keep zero credits
        # and are never routed toward.
        connected = self.tables.port_pos >= 0
        self.credits = np.where(connected, D, 0).astype(np.int64)[None].repeat(B, axis=0)
        self.owner = np.full((B, N, P), -1, dtype=np.int64)
        self.head_route = np.full((B, N, P), -1, dtype=np.int64)
        self.rr_ptr = np.zeros((B, N, P), dtype=np.int64)
        self.inj_pkt = np.full((B, N), -1, dtype=np.int64)
        self.inj_flit = np.zeros((B, N), dtype=np.int64)

        # Python-scalar occupancy trackers let the cycle kernel skip whole
        # phases without touching an array.
        self._buffered = 0  # flits across all input FIFOs
        self._queued = int(self.q_pkts.size)  # packets not yet dequeued
        self._injecting = 0  # nodes with a packet mid-injection

        # Per-lane cycle counters (the only stat advanced inside the loop).
        self.cycles = np.zeros(B, dtype=np.int64)

        # Event logs, reduced lazily by _aggregate().  Entries are flat
        # lane*N+node indices (or packet ids for the injection/ejection logs).
        self._log_switch: List[np.ndarray] = []  # one entry per switch winner
        self._log_link: List[np.ndarray] = []  # winners with non-LOCAL output
        self._log_header: List[np.ndarray] = []  # head-flit route computes
        self._log_write: List[np.ndarray] = []  # input-buffer writes
        self._log_inj_node: List[np.ndarray] = []  # packet dequeues
        self._log_inj_pkt: List[np.ndarray] = []  # dequeued packet ids
        self._log_stall: List[np.ndarray] = []  # stalled injection attempts
        self._log_ej_node: List[np.ndarray] = []  # tail ejections
        self._log_ej_pkt: List[np.ndarray] = []  # ejected packet ids
        self._agg: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Measurement control
    # ------------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Zero statistics and activity counters, keeping traffic in flight.

        Called at the warm-up/measurement boundary.
        """
        self.cycles.fill(0)
        for log in (
            self._log_switch,
            self._log_link,
            self._log_header,
            self._log_write,
            self._log_inj_node,
            self._log_inj_pkt,
            self._log_stall,
            self._log_ej_node,
            self._log_ej_pkt,
        ):
            log.clear()
        self._agg = None

    # ------------------------------------------------------------------
    # Cycle kernel
    # ------------------------------------------------------------------
    def step(self, active: Optional[np.ndarray] = None) -> None:
        """Advance every lane (or the lanes in ``active``) by one cycle."""
        B, N, P, D = self.num_lanes, self.num_nodes, NUM_PORTS, self.buffer_depth
        cycle = self.current_cycle
        tables = self.tables
        buf_len_flat = self.buf_len.ravel()
        buf_head_flat = self.buf_head.ravel()
        buf_enc_flat = self.buf_enc.ravel()
        route_flat = self.head_route.ravel()
        owner_flat = self.owner.ravel()
        credits_flat = self.credits.ravel()
        self._agg = None

        if self._buffered:
            # ---- Phase 1: route computation for new head-of-FIFO flits ----
            need = np.flatnonzero((buf_len_flat > 0) & (route_flat < 0))
            if need.size:
                enc = buf_enc_flat[need * D + buf_head_flat[need]]
                is_head = (enc & _FLIT_MASK) == 0
                if is_head.any():
                    hi = need[is_head]
                    node = (hi // P) % N
                    dst = self.pkt_dst[enc[is_head] >> _FLIT_BITS]
                    route_flat[hi] = tables.route_lut[node, dst]
                    self._log_header.append(hi // P)
                if not is_head.all():
                    bi = need[~is_head]
                    bn = bi // P
                    owner_rows = self.owner.reshape(-1, P)[bn]
                    match = owner_rows == (bi - bn * P)[:, None]
                    found = match.any(axis=1)
                    route_flat[bi[found]] = match.argmax(axis=1)[found]

            # ---- Phase 2: switch allocation (scatter-min arbitration) -----
            # route >= 0 implies an occupied buffer: routes are cleared on
            # pop and never survive an empty FIFO.
            req = np.flatnonzero(route_flat >= 0)
            out_sel = route_flat[req]
            bn = req // P
            pin = req - bn * P
            tgt = bn * P + out_sel
            o_owner = owner_flat[tgt]
            ok = (o_owner < 0) | (o_owner == pin)
            ok &= (credits_flat[tgt] > 0) | (out_sel == _LOCAL)
            if not ok.all():
                pin = pin[ok]
                tgt = tgt[ok]
                bn = bn[ok]
            if tgt.size:
                node = bn % N
                rot = (
                    tables.port_pos_flat[node * P + pin] - self.rr_ptr.ravel()[tgt]
                ) % tables.n_ports[node]
                # Group requests by output port via one stable sort; the
                # winner of each group is its smallest rotated priority.
                keys = tgt * (P * P) + rot * P + pin
                order = np.argsort(keys, kind="stable")
                sorted_tgt = tgt[order]
                first = np.empty(order.size, dtype=bool)
                first[0] = True
                np.not_equal(sorted_tgt[1:], sorted_tgt[:-1], out=first[1:])
                win_req = order[first]
                widx = tgt[win_req]
                wbn = widx // P
                wo = widx - wbn * P
                wi = pin[win_req]
                wnode = wbn % N

                # The pointer moves only when the output saw real contention.
                starts = np.flatnonzero(first)
                contested = (
                    np.append(starts[1:], order.size) - starts
                ) > 1
                if contested.any():
                    mi = widx[contested]
                    self.rr_ptr.ravel()[mi] = (
                        tables.port_pos_flat[wnode[contested] * P + wi[contested]]
                        + 1
                    ) % tables.n_ports[wnode[contested]]

                # ---- Phase 3: pop winners and apply traversals atomically --
                bnin = wbn * P + wi
                h = buf_head_flat[bnin]
                enc = buf_enc_flat[bnin * D + h]
                buf_head_flat[bnin] = (h + 1) % D
                buf_len_flat[bnin] -= 1
                route_flat[bnin] = -1
                fp = enc >> _FLIT_BITS
                ff = enc & _FLIT_MASK
                is_head = ff == 0
                is_tail = ff == self.pkt_size[fp] - 1

                bno = wbn * P + wo
                owner_flat[bno] = np.where(
                    is_tail, -1, np.where(is_head, wi, owner_flat[bno])
                )
                not_local = wo != _LOCAL
                nl_bno = bno[not_local]
                credits_flat[nl_bno] -= 1
                self._log_switch.append(wbn)
                self._log_link.append(wbn[not_local])

                # Credit return to the upstream output port that fed us.
                upstream = wi != _LOCAL
                if upstream.any():
                    un = tables.neighbor_flat[wnode[upstream] * P + wi[upstream]]
                    ubn = wbn[upstream] - wnode[upstream] + un
                    credits_flat[ubn * P + _OPPOSITE[wi[upstream]]] += 1

                # Ejection on the LOCAL port.
                et = ~not_local & is_tail
                if et.any():
                    self.pkt_eject[fp[et]] = cycle + 1
                    self._log_ej_node.append(wbn[et])
                    self._log_ej_pkt.append(fp[et])

                # Link traversal into the downstream input buffer.
                if not_local.any():
                    dn = tables.neighbor_flat[wnode[not_local] * P + wo[not_local]]
                    dbn = wbn[not_local] - wnode[not_local] + dn
                    dbnp = dbn * P + _OPPOSITE[wo[not_local]]
                    dpos = (buf_head_flat[dbnp] + buf_len_flat[dbnp]) % D
                    buf_enc_flat[dbnp * D + dpos] = enc[not_local]
                    buf_len_flat[dbnp] += 1
                    self._log_write.append(dbn)
                self._buffered += int(nl_bno.size) - int(wbn.size)

        # ---- Phase 4: injection from the per-node source queues ----------
        if self._queued:
            ptr_flat = self.q_ptr.ravel()
            avail = (ptr_flat < self.q_end.ravel()) & (
                self._q_sched_padded[np.minimum(ptr_flat, self.q_sched.size)]
                <= cycle
            )
            deq = np.flatnonzero((self.inj_pkt.ravel() < 0) & avail)
            if deq.size:
                pk = self.q_pkts[ptr_flat[deq]]
                self.pkt_inject[pk] = cycle
                self.inj_pkt.ravel()[deq] = pk
                self.inj_flit.ravel()[deq] = 0
                ptr_flat[deq] += 1
                self._log_inj_node.append(deq)
                self._log_inj_pkt.append(pk)
                self._queued -= int(deq.size)
                self._injecting += int(deq.size)

        if self._injecting:
            inj_flat = self.inj_pkt.ravel()
            pushing = np.flatnonzero(inj_flat >= 0)
            local_bnp = pushing * P + _LOCAL
            occupancy = buf_len_flat[local_bnp]
            room = occupancy < D
            if not room.all():
                self._log_stall.append(pushing[~room])
                pushing = pushing[room]
                local_bnp = local_bnp[room]
                occupancy = occupancy[room]
            if pushing.size:
                pk = inj_flat[pushing]
                flit_index = self.inj_flit.ravel()[pushing]
                pos = (buf_head_flat[local_bnp] + occupancy) % D
                buf_enc_flat[local_bnp * D + pos] = (pk << _FLIT_BITS) | flit_index
                buf_len_flat[local_bnp] += 1
                self._log_write.append(pushing)
                flit_index += 1
                self.inj_flit.ravel()[pushing] = flit_index
                finished = flit_index == self.pkt_size[pk]
                if finished.any():
                    inj_flat[pushing[finished]] = -1
                    self._injecting -= int(np.count_nonzero(finished))
                self._buffered += int(pushing.size)

        # ---- Phase 5: advance clocks -------------------------------------
        self.current_cycle = cycle + 1
        if active is None:
            self.cycles += 1
        else:
            self.cycles[active] += 1

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Advance all lanes by a fixed number of cycles."""
        with _obs_span("noc.vector.run", lanes=self.num_lanes, cycles=int(cycles)):
            for _ in range(cycles):
                self.step()
        _OBS_RUNS.add()
        _OBS_LANE_CYCLES.add(self.num_lanes * int(cycles))

    def lane_idle(self) -> np.ndarray:
        """Boolean per-lane idleness (no queued, buffered or in-flight traffic).

        Wormhole ownership needs no separate check: an owned output implies
        the owning packet's tail is still buffered somewhere, so global
        emptiness implies every wormhole has been released.
        """
        B = self.num_lanes
        busy = (self.inj_pkt >= 0).any(axis=1)
        busy |= self.buf_len.reshape(B, -1).any(axis=1)
        if self._queued:
            busy |= (self.q_ptr < self.q_end).any(axis=1)
        return ~busy

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Step until every lane is idle; returns the cycles used.

        Per-lane cycle counters freeze as soon as that lane drains, so each
        lane reports what a drain of it alone would.  Raises
        ``RuntimeError`` when any lane fails to drain within ``max_cycles``.
        """
        used = 0
        with _obs_span("noc.vector.drain", lanes=self.num_lanes) as drain_span:
            active = ~self.lane_idle()
            while active.any():
                if used >= max_cycles:
                    agg = self._aggregate()
                    in_flight = int(
                        (agg["lane_inj_packets"] - agg["lane_ej_packets"])[active].sum()
                    )
                    raise RuntimeError(
                        f"network failed to drain within {max_cycles} cycles "
                        f"({in_flight} packets in flight)"
                    )
                self.step(active=active)
                used += 1
                active = ~self.lane_idle()
            drain_span.args["cycles"] = used
        _OBS_DRAINS.add()
        _OBS_LANE_CYCLES.add(self.num_lanes * used)
        return used

    # ------------------------------------------------------------------
    # Result extraction
    # ------------------------------------------------------------------
    def _aggregate(self) -> Dict[str, np.ndarray]:
        """Reduce the event logs to per-node / per-lane counters (cached)."""
        if self._agg is not None:
            return self._agg
        B, N = self.num_lanes, self.num_nodes

        def per_node(log: List[np.ndarray]) -> np.ndarray:
            if not log:
                return np.zeros((B, N), dtype=np.int64)
            flat = np.concatenate(log)
            return np.bincount(flat, minlength=B * N).reshape(B, N)

        inj_node = per_node(self._log_inj_node)
        ej_node = per_node(self._log_ej_node)
        agg: Dict[str, np.ndarray] = {
            "switch": per_node(self._log_switch),
            "link": per_node(self._log_link),
            "header": per_node(self._log_header),
            "write": per_node(self._log_write),
            "inj_node": inj_node,
            "ej_node": ej_node,
            "stall": per_node(self._log_stall).sum(axis=1),
            "lane_inj_packets": inj_node.sum(axis=1),
            "lane_ej_packets": ej_node.sum(axis=1),
        }
        if self._log_inj_pkt:
            pk = np.concatenate(self._log_inj_pkt)
            agg["lane_inj_flits"] = np.bincount(
                self.pkt_lane[pk], weights=self.pkt_size[pk], minlength=B
            ).astype(np.int64)
        else:
            agg["lane_inj_flits"] = np.zeros(B, dtype=np.int64)
        if self._log_ej_pkt:
            pk = np.concatenate(self._log_ej_pkt)
            agg["ej_order"] = pk
            agg["lane_ej_flits"] = np.bincount(
                self.pkt_lane[pk], weights=self.pkt_size[pk], minlength=B
            ).astype(np.int64)
        else:
            agg["ej_order"] = np.zeros(0, dtype=np.int64)
            agg["lane_ej_flits"] = np.zeros(B, dtype=np.int64)
        self._agg = agg
        return agg

    def ejection_order(self, lane: int) -> np.ndarray:
        """Packet-table indices in ejection order for one lane.

        Within a cycle the order is row-major over routers.
        """
        pkts = self._aggregate()["ej_order"]
        return pkts[self.pkt_lane[pkts] == lane]

    def lane_stats(self, lane: int) -> NetworkStats:
        """Assemble the :class:`NetworkStats` of one lane."""
        agg = self._aggregate()
        stats = NetworkStats()
        stats.cycles = int(self.cycles[lane])
        stats.packets_injected = int(agg["lane_inj_packets"][lane])
        stats.flits_injected = int(agg["lane_inj_flits"][lane])
        stats.packets_ejected = int(agg["lane_ej_packets"][lane])
        stats.flits_ejected = int(agg["lane_ej_flits"][lane])
        stats.stalled_injections = int(agg["stall"][lane])
        for node in np.flatnonzero(agg["inj_node"][lane]):
            coord = self.topology.coordinate(int(node))
            stats.injected_per_node[coord] = int(agg["inj_node"][lane, node])
        for node in np.flatnonzero(agg["ej_node"][lane]):
            coord = self.topology.coordinate(int(node))
            stats.ejected_per_node[coord] = int(agg["ej_node"][lane, node])

        order = self.ejection_order(lane)
        if order.size:
            latencies = (self.pkt_eject[order] - self.pkt_inject[order]).astype(
                np.float64
            )
            stats.latency = LatencyStats(
                count=int(latencies.size),
                total=float(latencies.sum()),
                minimum=float(latencies.min()),
                maximum=float(latencies.max()),
            )
            for code in np.unique(self.pkt_class[order]):
                values = latencies[self.pkt_class[order] == code]
                stats.latency_by_class[PACKET_CLASS_FROM_CODE[int(code)]] = (
                    LatencyStats(
                        count=int(values.size),
                        total=float(values.sum()),
                        minimum=float(values.min()),
                        maximum=float(values.max()),
                    )
                )
        return stats

    def lane_activity(self, lane: int) -> Dict[Coordinate, RouterActivity]:
        """Per-router activity counters for one lane.

        ``flits_routed``, ``buffer_reads``, ``crossbar_traversals`` and
        ``arbitration_rounds`` always advance together (every arbitrated
        output pops exactly one flit), so all four map to the switch-winner
        count.
        """
        agg = self._aggregate()
        result: Dict[Coordinate, RouterActivity] = {}
        for node in range(self.num_nodes):
            coord = self.topology.coordinate(node)
            switched = int(agg["switch"][lane, node])
            result[coord] = RouterActivity(
                flits_routed=switched,
                headers_decoded=int(agg["header"][lane, node]),
                buffer_reads=switched,
                buffer_writes=int(agg["write"][lane, node]),
                crossbar_traversals=switched,
                link_traversals=int(agg["link"][lane, node]),
                arbitration_rounds=switched,
            )
        return result

    def lane_link_flits(self, lane: int) -> int:
        """Total flits carried over every inter-router link of one lane."""
        return int(self._aggregate()["link"][lane].sum())

    def write_back_packets(self) -> None:
        """Copy injection/ejection cycles onto the originating Packet objects."""
        offset = 0
        for sched in self.schedules:
            count = sched.num_packets
            if sched.packets is not None:
                inject = self.pkt_inject[offset : offset + count]
                eject = self.pkt_eject[offset : offset + count]
                for index, packet in enumerate(sched.packets):
                    if inject[index] >= 0:
                        packet.injection_cycle = int(inject[index])
                    if eject[index] >= 0:
                        packet.ejection_cycle = int(eject[index])
            offset += count

    # ------------------------------------------------------------------
    # Introspection used by the conservation property tests
    # ------------------------------------------------------------------
    def buffered_flits(self, lane: int) -> int:
        """Flits currently sitting in the lane's input FIFOs."""
        return int(self.buf_len[lane].sum())

    def in_network_packets(self, lane: int) -> int:
        """Distinct packets with at least one flit inside the network."""
        pkts = set()
        lens = self.buf_len[lane]
        heads = self.buf_head[lane]
        for node in range(self.num_nodes):
            for port in range(NUM_PORTS):
                length = int(lens[node, port])
                head = int(heads[node, port])
                for k in range(length):
                    enc = int(self.buf_enc[lane, node, port, (head + k) % self.buffer_depth])
                    pkts.add(enc >> _FLIT_BITS)
            if self.inj_pkt[lane, node] >= 0:
                pkts.add(int(self.inj_pkt[lane, node]))
        return len(pkts)
