"""2-D mesh topology for the Network-on-Chip.

The paper's test chips are 4x4 and 5x5 meshes of processing elements (PEs),
each PE attached to one router.  This module provides the coordinate system
and the neighbourhood relation used by routing, the analytic NoC model and
the migration transforms.

Coordinates follow the paper's convention: ``(x, y)`` with ``x`` growing to
the east (right) and ``y`` growing to the north (up).  Node ids are assigned
row-major: ``node_id = y * width + x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Iterator, Tuple

Coordinate = Tuple[int, int]


class Direction(IntEnum):
    """Router port directions for a 2-D mesh.

    ``LOCAL`` is the injection/ejection port connecting the router to its PE.
    """

    LOCAL = 0
    EAST = 1
    WEST = 2
    NORTH = 3
    SOUTH = 4


#: Offsets applied to a coordinate when moving one hop in a direction.
DIRECTION_OFFSETS: Dict[Direction, Coordinate] = {
    Direction.EAST: (1, 0),
    Direction.WEST: (-1, 0),
    Direction.NORTH: (0, 1),
    Direction.SOUTH: (0, -1),
}


@dataclass(frozen=True)
class MeshTopology:
    """A ``width`` x ``height`` 2-D mesh.

    Parameters
    ----------
    width:
        Number of columns (extent of the ``x`` coordinate).
    height:
        Number of rows (extent of the ``y`` coordinate).
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"mesh dimensions must be positive, got {self.width}x{self.height}"
            )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of routers/PEs in the mesh."""
        return self.width * self.height

    @property
    def is_square(self) -> bool:
        """True when the mesh has equal width and height."""
        return self.width == self.height

    @property
    def center(self) -> Coordinate:
        """Geometric centre coordinate (exact only for odd dimensions)."""
        return (self.width // 2, self.height // 2)

    # ------------------------------------------------------------------
    # Coordinate <-> id conversion
    # ------------------------------------------------------------------
    def contains(self, coord: Coordinate) -> bool:
        """Return True if ``coord`` is inside the mesh."""
        x, y = coord
        return 0 <= x < self.width and 0 <= y < self.height

    def node_id(self, coord: Coordinate) -> int:
        """Row-major node id of ``coord``."""
        if not self.contains(coord):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height} mesh")
        x, y = coord
        return y * self.width + x

    def coordinate(self, node_id: int) -> Coordinate:
        """Coordinate of a row-major ``node_id``."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node id {node_id} outside mesh with {self.num_nodes} nodes")
        return (node_id % self.width, node_id // self.width)

    def coordinates(self) -> Iterator[Coordinate]:
        """Iterate over all coordinates in row-major order."""
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    # ------------------------------------------------------------------
    # Neighbourhood
    # ------------------------------------------------------------------
    def neighbor(self, coord: Coordinate, direction: Direction) -> Coordinate:
        """Coordinate one hop from ``coord`` towards ``direction``.

        Raises ``ValueError`` when the move would leave the mesh or when the
        direction is ``LOCAL``.
        """
        if direction == Direction.LOCAL:
            raise ValueError("LOCAL is not a mesh direction")
        dx, dy = DIRECTION_OFFSETS[direction]
        nxt = (coord[0] + dx, coord[1] + dy)
        if not self.contains(nxt):
            raise ValueError(f"no neighbor of {coord} towards {direction.name}")
        return nxt

    def neighbors(self, coord: Coordinate) -> Dict[Direction, Coordinate]:
        """All in-mesh neighbours of ``coord`` keyed by direction."""
        result: Dict[Direction, Coordinate] = {}
        for direction, (dx, dy) in DIRECTION_OFFSETS.items():
            nxt = (coord[0] + dx, coord[1] + dy)
            if self.contains(nxt):
                result[direction] = nxt
        return result

    def diameter(self) -> int:
        """Longest shortest path in hops."""
        return (self.width - 1) + (self.height - 1)
