"""Routing algorithms for the 2-D mesh NoC.

The paper's platform uses deterministic dimension-ordered routing (the usual
choice for LDPC-on-NoC designs and the one that makes the migration traffic
pattern predictable).  We provide XY and YX dimension-ordered routing plus
two classic partially-adaptive algorithms (west-first and odd-even) as
substrate baselines.

A routing function maps ``(current, destination)`` to the output
:class:`~repro.noc.topology.Direction` a head flit should take.  Adaptive
algorithms return the full set of permitted directions; the router picks the
least congested one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Tuple

from .topology import Coordinate, Direction, MeshTopology


class RoutingAlgorithm(ABC):
    """Base class for mesh routing functions."""

    name: str = "abstract"

    def __init__(self, topology: MeshTopology):
        self.topology = topology

    @abstractmethod
    def candidate_outputs(
        self, current: Coordinate, destination: Coordinate
    ) -> List[Direction]:
        """Permitted output directions for a head flit at ``current``.

        Returns ``[Direction.LOCAL]`` when the flit has arrived.
        """

    def route(self, current: Coordinate, destination: Coordinate) -> Direction:
        """Deterministic routing decision (first candidate)."""
        return self.candidate_outputs(current, destination)[0]

    def path(self, source: Coordinate, destination: Coordinate) -> List[Coordinate]:
        """Full deterministic path including both endpoints.

        Useful for computing link utilisation analytically and for the
        congestion-free migration schedule.
        """
        path = [source]
        current = source
        # A deterministic minimal route takes at most diameter hops.
        for _ in range(self.topology.diameter() + 1):
            if current == destination:
                break
            direction = self.route(current, destination)
            if direction == Direction.LOCAL:
                break
            current = self.topology.neighbor(current, direction)
            path.append(current)
        if current != destination:
            raise RuntimeError(
                f"{self.name} routing did not reach {destination} from {source}"
            )
        return path

    # ------------------------------------------------------------------
    def _productive_directions(
        self, current: Coordinate, destination: Coordinate
    ) -> List[Direction]:
        """Directions that reduce the distance to the destination."""
        dirs: List[Direction] = []
        cx, cy = current
        dx, dy = destination
        if dx > cx:
            dirs.append(Direction.EAST)
        elif dx < cx:
            dirs.append(Direction.WEST)
        if dy > cy:
            dirs.append(Direction.NORTH)
        elif dy < cy:
            dirs.append(Direction.SOUTH)
        return dirs


class XYRouting(RoutingAlgorithm):
    """Dimension-ordered routing: correct X first, then Y.

    Deadlock-free on meshes and deterministic, which the paper relies on for
    predictable traffic after a coordinate transform (the relative positions
    of communicating PEs are preserved by every migration function, so the
    route lengths are unchanged).
    """

    name = "xy"

    def candidate_outputs(
        self, current: Coordinate, destination: Coordinate
    ) -> List[Direction]:
        cx, cy = current
        dx, dy = destination
        if cx < dx:
            return [Direction.EAST]
        if cx > dx:
            return [Direction.WEST]
        if cy < dy:
            return [Direction.NORTH]
        if cy > dy:
            return [Direction.SOUTH]
        return [Direction.LOCAL]


class YXRouting(RoutingAlgorithm):
    """Dimension-ordered routing: correct Y first, then X."""

    name = "yx"

    def candidate_outputs(
        self, current: Coordinate, destination: Coordinate
    ) -> List[Direction]:
        cx, cy = current
        dx, dy = destination
        if cy < dy:
            return [Direction.NORTH]
        if cy > dy:
            return [Direction.SOUTH]
        if cx < dx:
            return [Direction.EAST]
        if cx > dx:
            return [Direction.WEST]
        return [Direction.LOCAL]


class WestFirstRouting(RoutingAlgorithm):
    """West-first turn-model routing (partially adaptive, deadlock-free).

    All westward hops must be taken first; afterwards the packet may choose
    adaptively among the remaining productive directions.
    """

    name = "west-first"

    def candidate_outputs(
        self, current: Coordinate, destination: Coordinate
    ) -> List[Direction]:
        if current == destination:
            return [Direction.LOCAL]
        productive = self._productive_directions(current, destination)
        if Direction.WEST in productive:
            return [Direction.WEST]
        return productive


class OddEvenRouting(RoutingAlgorithm):
    """Odd-even turn-model routing (partially adaptive, deadlock-free).

    Restriction (Chiu, 2000): in even columns a packet may not take an
    east-to-north or east-to-south turn's mirror — concretely, EN/ES turns
    are forbidden in even columns and NW/SW turns are forbidden in odd
    columns.  We implement the standard formulation in terms of permitted
    output directions.
    """

    name = "odd-even"

    def candidate_outputs(
        self, current: Coordinate, destination: Coordinate
    ) -> List[Direction]:
        cx, cy = current
        dx, dy = destination
        if current == destination:
            return [Direction.LOCAL]

        candidates: List[Direction] = []
        ex = dx - cx
        ey = dy - cy

        if ex == 0:
            # Same column: move vertically.
            candidates.append(Direction.NORTH if ey > 0 else Direction.SOUTH)
            return candidates

        if ex > 0:
            # Destination to the east.
            if ey == 0:
                candidates.append(Direction.EAST)
            else:
                # Turns from east to north/south are only allowed in odd
                # columns or when the packet is in the destination column - 1.
                if cx % 2 == 1 or cx == dx - 1:
                    candidates.append(Direction.NORTH if ey > 0 else Direction.SOUTH)
                candidates.append(Direction.EAST)
        else:
            # Destination to the west: NW/SW turns only allowed in even columns.
            candidates.append(Direction.WEST)
            if ey != 0 and cx % 2 == 0:
                candidates.append(Direction.NORTH if ey > 0 else Direction.SOUTH)

        if not candidates:
            candidates = self._productive_directions(current, destination)
        return candidates


_ALGORITHMS = {
    "xy": XYRouting,
    "yx": YXRouting,
    "west-first": WestFirstRouting,
    "odd-even": OddEvenRouting,
}


def make_routing(name: str, topology: MeshTopology) -> RoutingAlgorithm:
    """Factory for routing algorithms by name.

    Parameters
    ----------
    name:
        One of ``"xy"``, ``"yx"``, ``"west-first"``, ``"odd-even"``.
    """
    try:
        cls = _ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown routing algorithm {name!r}; choose from {sorted(_ALGORITHMS)}"
        ) from None
    return cls(topology)


def available_algorithms() -> Tuple[str, ...]:
    """Names accepted by :func:`make_routing`."""
    return tuple(sorted(_ALGORITHMS))
