"""Congestion-free phased migration scheduling.

Section 2.2 of the paper: "During the migration operation, it is possible to
ensure congestion-free packet movement by transforming groups of PEs in
phases.  This congestion-free operation allows for deterministic migration
times, making our technique applicable to real-time systems."

A migration moves every PE's configuration/state packet from its old
coordinate to its new coordinate.  Two moves *conflict* when their
deterministic XY routes share a link in the same direction; moves that
conflict may not run in the same phase.  The scheduler greedily colours the
conflict graph so that each phase is link-disjoint, and reports a
deterministic cycle count for the whole migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..noc.routing import RoutingAlgorithm, XYRouting
from ..noc.topology import Coordinate, MeshTopology
from .state_transfer import StateTransferModel
from .transforms import MigrationTransform


@dataclass(frozen=True)
class PeMove:
    """One PE's migration: its payload travels ``source`` -> ``destination``."""

    source: Coordinate
    destination: Coordinate
    payload_flits: int

    @property
    def is_local(self) -> bool:
        """True when the PE does not actually change location (fixed point)."""
        return self.source == self.destination

    @property
    def hops(self) -> int:
        return abs(self.source[0] - self.destination[0]) + abs(
            self.source[1] - self.destination[1]
        )


@dataclass
class MigrationSchedule:
    """Phased, congestion-free schedule of a full-chip migration."""

    phases: List[List[PeMove]]
    cycles_per_phase: List[int]
    local_moves: List[PeMove] = field(default_factory=list)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def total_cycles(self) -> int:
        """Deterministic duration of the migration in cycles."""
        return sum(self.cycles_per_phase)

    @property
    def total_moves(self) -> int:
        return sum(len(phase) for phase in self.phases) + len(self.local_moves)

    def all_moves(self) -> List[PeMove]:
        moves = [move for phase in self.phases for move in phase]
        return moves + list(self.local_moves)


def _links_of_route(route: Sequence[Coordinate]) -> Set[Tuple[Coordinate, Coordinate]]:
    """Directed links used by a route (consecutive coordinate pairs)."""
    return {(route[i], route[i + 1]) for i in range(len(route) - 1)}


class MigrationScheduler:
    """Builds congestion-free phased schedules for a migration transform."""

    def __init__(
        self,
        topology: MeshTopology,
        state_model: Optional[StateTransferModel] = None,
        routing: Optional[RoutingAlgorithm] = None,
        router_pipeline_cycles: int = 2,
    ):
        self.topology = topology
        self.state_model = state_model or StateTransferModel()
        self.routing = routing or XYRouting(topology)
        if router_pipeline_cycles < 1:
            raise ValueError("router pipeline must be at least one cycle per hop")
        self.router_pipeline_cycles = router_pipeline_cycles
        self._paths: Dict[Tuple[Coordinate, Coordinate], Tuple[Coordinate, ...]] = {}

    def path(self, source: Coordinate, destination: Coordinate) -> Tuple[Coordinate, ...]:
        """Deterministic route of one move, walked once per (source, destination).

        The schedule's link sets and the per-router energy charges of
        :class:`repro.migration.unit.MigrationUnit` read the same memoized
        route, so a migration's cost walks each route once.
        """
        key = (source, destination)
        route = self._paths.get(key)
        if route is None:
            route = self._paths[key] = tuple(self.routing.path(source, destination))
        return route

    # ------------------------------------------------------------------
    def moves_for_transform(
        self,
        transform: MigrationTransform,
        tanner_nodes_per_pe: Optional[Dict[Coordinate, int]] = None,
    ) -> List[PeMove]:
        """The per-PE moves a transform induces on the current placement.

        ``tanner_nodes_per_pe`` sizes each PE's live state; when omitted every
        PE carries only its configuration.
        """
        moves = []
        for coord in self.topology.coordinates():
            nodes = 0 if tanner_nodes_per_pe is None else tanner_nodes_per_pe.get(coord, 0)
            moves.append(
                PeMove(
                    source=coord,
                    destination=transform(coord),
                    payload_flits=self.state_model.payload_flits(nodes),
                )
            )
        return moves

    # ------------------------------------------------------------------
    def schedule(self, moves: Sequence[PeMove]) -> MigrationSchedule:
        """Greedy link-disjoint phasing of the given moves.

        Moves are considered longest-route-first (a standard interval-graph
        colouring heuristic that keeps the phase count low); each move joins
        the earliest phase whose link set it does not intersect.
        """
        local = [move for move in moves if move.is_local]
        remote = [move for move in moves if not move.is_local]
        remote_sorted = sorted(remote, key=lambda m: (-m.hops, m.source))

        phases: List[List[PeMove]] = []
        phase_links: List[Set[Tuple[Coordinate, Coordinate]]] = []
        for move in remote_sorted:
            links = _links_of_route(self.path(move.source, move.destination))
            placed = False
            for idx, used in enumerate(phase_links):
                if not (links & used):
                    phases[idx].append(move)
                    used |= links
                    placed = True
                    break
            if not placed:
                phases.append([move])
                phase_links.append(set(links))

        cycles_per_phase = [self._phase_cycles(phase) for phase in phases]
        return MigrationSchedule(
            phases=phases, cycles_per_phase=cycles_per_phase, local_moves=local
        )

    def schedule_for_transform(
        self,
        transform: MigrationTransform,
        tanner_nodes_per_pe: Optional[Dict[Coordinate, int]] = None,
    ) -> MigrationSchedule:
        """Convenience: moves + schedule in one call."""
        return self.schedule(self.moves_for_transform(transform, tanner_nodes_per_pe))

    # ------------------------------------------------------------------
    def move_cycles(self, move: PeMove) -> int:
        """Congestion-free duration of one move in cycles.

        This is THE per-move cycle cost: (serialization of the payload
        through the conversion unit) + (hops x per-hop router pipeline
        latency).  Every cycle account — phased schedules, the serialised
        baseline, and staged :mod:`repro.migration.plan` stages — routes
        through this one function so they cannot drift.
        """
        serialization = (
            move.payload_flits * self.state_model.serialization_cycles_per_flit
        )
        traversal = move.hops * self.router_pipeline_cycles
        return serialization + traversal

    # ------------------------------------------------------------------
    def _phase_cycles(self, phase: Sequence[PeMove]) -> int:
        """Duration of one phase.

        Within a phase no two packets share a link, so each move completes in
        :meth:`move_cycles`; the phase lasts as long as its slowest move.
        """
        if not phase:
            return 0
        return max(self.move_cycles(move) for move in phase)

    # ------------------------------------------------------------------
    def naive_cycles(self, moves: Sequence[PeMove]) -> int:
        """Duration of an un-phased, fully serialised migration (baseline).

        The tests compare this against the phased schedule to quantify the
        benefit of congestion-free grouping.
        """
        return sum(
            self.move_cycles(move) for move in moves if not move.is_local
        )
