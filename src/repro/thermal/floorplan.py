"""Chip floorplans for the thermal model.

The paper takes its floorplans "directly from the layout of our sample
chips": a regular grid of functional units, each 4.36 mm^2, one per mesh
node.  :func:`mesh_floorplan` builds exactly that, and
:func:`refine_floorplan` meshes every block into finer cells for the
thermal model's grid resolutions; the generic :class:`Floorplan` also
supports irregular block lists so the thermal model can be exercised on
non-mesh layouts in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..noc.topology import Coordinate, MeshTopology


@dataclass(frozen=True)
class Block:
    """A rectangular floorplan block (dimensions in metres)."""

    name: str
    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"block {self.name} must have positive dimensions")

    @property
    def area(self) -> float:
        """Block area in m^2."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def x_max(self) -> float:
        return self.x + self.width

    @property
    def y_max(self) -> float:
        return self.y + self.height

    def shared_edge_length(self, other: "Block") -> float:
        """Length of the boundary shared with ``other`` (0 if not adjacent).

        Two blocks share an edge when they touch along a vertical or
        horizontal line over a positive length.
        """
        tol = 1e-12
        # Vertical adjacency (side by side).
        if abs(self.x_max - other.x) < tol or abs(other.x_max - self.x) < tol:
            overlap = min(self.y_max, other.y_max) - max(self.y, other.y)
            return max(0.0, overlap)
        # Horizontal adjacency (stacked).
        if abs(self.y_max - other.y) < tol or abs(other.y_max - self.y) < tol:
            overlap = min(self.x_max, other.x_max) - max(self.x, other.x)
            return max(0.0, overlap)
        return 0.0


class Floorplan:
    """A collection of non-overlapping blocks covering the die."""

    def __init__(self, blocks: List[Block]):
        if not blocks:
            raise ValueError("a floorplan needs at least one block")
        names = [block.name for block in blocks]
        if len(set(names)) != len(names):
            raise ValueError("floorplan block names must be unique")
        self.blocks = list(blocks)
        self._by_name: Dict[str, Block] = {block.name: block for block in blocks}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def block(self, name: str) -> Block:
        return self._by_name[name]

    @property
    def total_area(self) -> float:
        """Total die area in m^2."""
        return sum(block.area for block in self.blocks)

    @property
    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) of the die."""
        x_min = min(block.x for block in self.blocks)
        y_min = min(block.y for block in self.blocks)
        x_max = max(block.x_max for block in self.blocks)
        y_max = max(block.y_max for block in self.blocks)
        return (x_min, y_min, x_max, y_max)

    def adjacency(self) -> Dict[Tuple[str, str], float]:
        """Shared-edge lengths between every adjacent block pair.

        Keys are ordered name pairs (a < b); values are shared lengths in
        metres.  The RC model creates a lateral resistance per entry.
        """
        result: Dict[Tuple[str, str], float] = {}
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1 :]:
                shared = a.shared_edge_length(b)
                if shared > 0:
                    key = (a.name, b.name) if a.name < b.name else (b.name, a.name)
                    result[key] = shared
        return result

    def validate_no_overlap(self) -> None:
        """Raise if any two blocks overlap (touching edges are allowed)."""
        tol = 1e-12
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1 :]:
                overlap_x = min(a.x_max, b.x_max) - max(a.x, b.x)
                overlap_y = min(a.y_max, b.y_max) - max(a.y, b.y)
                if overlap_x > tol and overlap_y > tol:
                    raise ValueError(f"blocks {a.name} and {b.name} overlap")


def block_name_for(coord: Coordinate) -> str:
    """Canonical block name of the functional unit at mesh coordinate ``coord``."""
    return f"PE_{coord[0]}_{coord[1]}"


def mesh_floorplan(
    topology: MeshTopology,
    unit_area_mm2: float = 4.36,
) -> Floorplan:
    """Regular grid floorplan with one square block per mesh node.

    Each functional unit (PE + router) occupies ``unit_area_mm2`` square
    millimetres, the figure the paper reports for its 160 nm LDPC chips.
    """
    if unit_area_mm2 <= 0:
        raise ValueError("unit area must be positive")
    side_m = math.sqrt(unit_area_mm2) * 1e-3
    blocks = []
    for coord in topology.coordinates():
        x, y = coord
        blocks.append(
            Block(
                name=block_name_for(coord),
                x=x * side_m,
                y=y * side_m,
                width=side_m,
                height=side_m,
            )
        )
    plan = Floorplan(blocks)
    plan.validate_no_overlap()
    return plan


def refine_floorplan(floorplan: Floorplan, resolution: int) -> Floorplan:
    """Split every block into ``resolution`` x ``resolution`` equal sub-cells.

    Sub-cells are named ``<block>::<i>_<j>`` with ``i`` the column and ``j``
    the row inside the parent block, so the parent is recoverable by
    splitting the name on ``"::"``.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if resolution == 1:
        return Floorplan(list(floorplan))
    cells = []
    for block in floorplan:
        cell_width = block.width / resolution
        cell_height = block.height / resolution
        for j in range(resolution):
            for i in range(resolution):
                cells.append(
                    Block(
                        name=f"{block.name}::{i}_{j}",
                        x=block.x + i * cell_width,
                        y=block.y + j * cell_height,
                        width=cell_width,
                        height=cell_height,
                    )
                )
    refined = Floorplan(cells)
    refined.validate_no_overlap()
    return refined


def parent_block_name(cell_name: str) -> str:
    """Parent block of a refined cell (identity for unrefined names)."""
    return cell_name.split("::", 1)[0]
