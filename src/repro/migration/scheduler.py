"""Congestion-free phased migration scheduling.

Section 2.2 of the paper: "During the migration operation, it is possible to
ensure congestion-free packet movement by transforming groups of PEs in
phases.  This congestion-free operation allows for deterministic migration
times, making our technique applicable to real-time systems."

A migration moves every PE's configuration/state packet from its old node to
its new one: the move of source node ``s`` goes to ``perm[s]``, where
``perm`` is the transform's node permutation.  Two moves *conflict* when
their deterministic routes share a link in the same direction; moves that
conflict may not run in the same phase.  :func:`link_disjoint_groups` is the
one greedy colouring of that relation: the scheduler's phases and the
batched stages of :mod:`repro.migration.plan` are both formed by it, and the
scheduler reports a deterministic cycle count for a set of moves.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..noc.routing import RoutingAlgorithm, XYRouting
from ..noc.topology import MeshTopology
from .state_transfer import StateTransferModel

Link = Tuple[int, int]


def link_disjoint_groups(items: Iterable, links_of: Callable) -> List[list]:
    """Greedy link-disjoint colouring: each item, in order, joins the
    earliest group none of whose links (``links_of(item)``) it uses, or
    opens a new group."""
    groups: List[list] = []
    used: List[Set[Link]] = []
    for item in items:
        links = links_of(item)
        for group, taken in zip(groups, used):
            if links.isdisjoint(taken):
                group.append(item)
                taken |= links
                break
        else:
            groups.append([item])
            used.append(set(links))
    return groups


class MigrationScheduler:
    """Builds congestion-free phased schedules of per-PE moves on node ids."""

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
        self._routes: Dict[Link, Tuple[int, ...]] = {}

    def route(self, source: int, destination: int) -> Tuple[int, ...]:
        """Deterministic route of one move as node ids, both ends included,
        walked once per (source, destination): the phases' links and the
        per-router energy charges read the same memoized route."""
        route = self._routes.get((source, destination))
        if route is None:
            coordinate, node_id = self.topology.coordinate, self.topology.node_id
            path = self.routing.path(coordinate(source), coordinate(destination))
            route = self._routes[source, destination] = tuple(map(node_id, path))
        return route

    def links(self, source: int, destination: int) -> Set[Link]:
        """Directed links ``(node, next node)`` of one move's route."""
        route = self.route(source, destination)
        return set(zip(route, route[1:]))

    def hops(self, source: int, destination: int) -> int:
        return len(self.route(source, destination)) - 1

    def move_cycles(self, payload_flits: int, hops: int) -> int:
        """Congestion-free duration of one move in cycles.

        This is THE per-move cycle cost: (serialization of the payload
        through the conversion unit) + (hops x per-hop router pipeline
        latency).  Phases and staged :mod:`repro.migration.plan` stages are
        priced through this one function.
        """
        serialization = payload_flits * self.state_model.serialization_cycles_per_flit
        return serialization + hops * self.router_pipeline_cycles

    # ------------------------------------------------------------------
    def phases(self, perm: Sequence[int], sources: Iterable[int]) -> List[List[int]]:
        """Link-disjoint phases of the moves ``s -> perm[s]`` for ``s`` in
        ``sources``.  Fixed points join no phase; remote moves are coloured
        longest route first (a heuristic that keeps the phase count low),
        ties broken by the source's ``(x, y)``."""
        coordinate = self.topology.coordinate
        remote = sorted(
            (s for s in sources if perm[s] != s),
            key=lambda s: (-self.hops(s, perm[s]), coordinate(s)),
        )
        return link_disjoint_groups(remote, lambda s: self.links(s, perm[s]))

    def phased_cycles(
        self, perm: Sequence[int], flits: Sequence[int], sources: Iterable[int]
    ) -> int:
        """Deterministic duration of the moves' phases: no two packets of a
        phase share a link, so each move takes its :meth:`move_cycles`
        (``flits[s]`` payload flits) and a phase lasts as long as its
        slowest move."""
        return sum(
            max(self.move_cycles(flits[s], self.hops(s, perm[s])) for s in phase)
            for phase in self.phases(perm, sources)
        )
