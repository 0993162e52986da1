"""The migration (remapping) functions of Table 1.

The paper restricts migrations to algebraic transforms of the whole logical
plane so that (a) the new position of every workload is computable from its
current position with trivial hardware, and (b) all workloads keep their
*relative* positions, making the post-migration traffic pattern predictable.
The three primitive plane operations are rotation, mirroring and translation;
the five concrete schemes evaluated in Figure 1 are:

================  =========================== ===========================
Scheme            New X coordinate            New Y coordinate
================  =========================== ===========================
Rotation          ``N - 1 - Y``               ``X``
X mirroring       ``N - 1 - X``               ``Y``
X-Y mirroring     ``N - 1 - X``               ``M - 1 - Y``
Right shift       ``(X + 1) mod N``           ``Y``
X-Y shift         ``(X + 1) mod N``           ``(Y + 1) mod M``
================  =========================== ===========================

(``N`` = mesh width, ``M`` = mesh height; the paper's chips are square so
``N = M`` there.)  Each transform is a bijection of the mesh onto itself, a
property the tests verify exhaustively and by hypothesis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..noc.topology import Coordinate, MeshTopology


class MigrationTransform(ABC):
    """A bijective coordinate transform of the mesh (one migration step)."""

    #: Short name used in reports and the Figure 1 legend.
    name: str = "abstract"

    def __init__(self, topology: MeshTopology):
        self.topology = topology
        self._node_permutation: Optional[np.ndarray] = None
        self._permutation_bytes: Optional[bytes] = None

    @abstractmethod
    def apply(self, coord: Coordinate) -> Coordinate:
        """New physical coordinate for the workload currently at ``coord``."""

    def __call__(self, coord: Coordinate) -> Coordinate:
        result = self.apply(coord)
        if not self.topology.contains(result):
            raise ValueError(
                f"{self.name} transform mapped {coord} outside the mesh to {result}"
            )
        return result

    # ------------------------------------------------------------------
    def as_permutation(self) -> Dict[Coordinate, Coordinate]:
        """The full old-coordinate -> new-coordinate map."""
        return {coord: self(coord) for coord in self.topology.coordinates()}

    def node_permutation(self) -> np.ndarray:
        """The transform as a read-only node-id array (``perm[i]`` = image of node ``i``).

        Built once per instance (a transform is a fixed bijection of its
        mesh), so applying the migration to a whole task -> node mapping is
        one gather, ``node_permutation()[mapping]``.  Raises ``ValueError``
        if the transform is not a bijection.
        """
        if self._node_permutation is None:
            topology = self.topology
            perm = np.fromiter(
                (topology.node_id(self(coord)) for coord in topology.coordinates()),
                dtype=np.intp,
                count=topology.num_nodes,
            )
            if np.unique(perm).size != perm.size:
                raise ValueError(f"{self.name} transform is not a bijection of the mesh")
            perm.flags.writeable = False
            self._node_permutation = perm
        return self._node_permutation

    @property
    def permutation_bytes(self) -> bytes:
        """:meth:`node_permutation` as bytes (built once per instance): the
        transform's part of a plan-memo key."""
        if self._permutation_bytes is None:
            self._permutation_bytes = self.node_permutation().tobytes()
        return self._permutation_bytes

    def fixed_points(self) -> List[Coordinate]:
        """Coordinates whose workload does not move under this transform.

        The paper attributes the weakness of rotation/mirroring on the 5x5
        chips to the central PE being such a fixed point.
        """
        perm = self.node_permutation()
        fixed = np.flatnonzero(perm == np.arange(perm.size))
        return [self.topology.coordinate(int(node)) for node in fixed]

    def order(self, limit: int = 1024) -> int:
        """Number of applications after which every workload is back home."""
        perm = self.as_permutation()
        current = {coord: coord for coord in self.topology.coordinates()}
        for step in range(1, limit + 1):
            current = {start: perm[pos] for start, pos in current.items()}
            if all(start == pos for start, pos in current.items()):
                return step
        raise RuntimeError(f"transform order exceeds {limit}")

    def orbit(self, coord: Coordinate) -> List[Coordinate]:
        """Sequence of coordinates a workload starting at ``coord`` visits."""
        positions = [coord]
        current = self(coord)
        while current != coord:
            positions.append(current)
            current = self(current)
        return positions

    def is_bijection(self) -> bool:
        images = {self(coord) for coord in self.topology.coordinates()}
        return len(images) == self.topology.num_nodes

    def preserves_relative_positions(self) -> bool:
        """True when pairwise Manhattan distances are preserved.

        Rotations and mirrors are isometries; shifts wrap around the mesh
        edge and therefore do *not* preserve all pairwise distances, which is
        why the paper notes a (small) migration-dependent impact on traffic.
        """
        coords = list(self.topology.coordinates())
        for i, a in enumerate(coords):
            for b in coords[i + 1 :]:
                before = self.topology.manhattan_distance(a, b)
                after = self.topology.manhattan_distance(self(a), self(b))
                if before != after:
                    return False
        return True


class RotationTransform(MigrationTransform):
    """90-degree rotation: ``(x, y) -> (N - 1 - y, x)``.

    Requires a square mesh (rotation of a non-square grid is not a
    self-bijection).
    """

    name = "rotation"

    def __init__(self, topology: MeshTopology):
        if not topology.is_square:
            raise ValueError("rotation requires a square mesh")
        super().__init__(topology)

    def apply(self, coord: Coordinate) -> Coordinate:
        x, y = coord
        n = self.topology.width
        return (n - 1 - y, x)


class XMirrorTransform(MigrationTransform):
    """Mirror about the vertical axis: ``(x, y) -> (N - 1 - x, y)``."""

    name = "x-mirror"

    def apply(self, coord: Coordinate) -> Coordinate:
        x, y = coord
        return (self.topology.width - 1 - x, y)


class YMirrorTransform(MigrationTransform):
    """Mirror about the horizontal axis: ``(x, y) -> (x, M - 1 - y)``."""

    name = "y-mirror"

    def apply(self, coord: Coordinate) -> Coordinate:
        x, y = coord
        return (x, self.topology.height - 1 - y)


class XYMirrorTransform(MigrationTransform):
    """Mirror about both axes: ``(x, y) -> (N - 1 - x, M - 1 - y)``."""

    name = "xy-mirror"

    def apply(self, coord: Coordinate) -> Coordinate:
        x, y = coord
        return (self.topology.width - 1 - x, self.topology.height - 1 - y)


class RightShiftTransform(MigrationTransform):
    """Translation by one column with wrap-around: ``(x, y) -> ((x+1) mod N, y)``."""

    name = "right-shift"

    def __init__(self, topology: MeshTopology, offset: int = 1):
        super().__init__(topology)
        if offset % topology.width == 0:
            raise ValueError("a shift offset that is a multiple of the width does nothing")
        self.offset = offset

    def apply(self, coord: Coordinate) -> Coordinate:
        x, y = coord
        return ((x + self.offset) % self.topology.width, y)


class XYShiftTransform(MigrationTransform):
    """Diagonal translation with wrap-around: ``(x, y) -> ((x+1) mod N, (y+1) mod M)``."""

    name = "xy-shift"

    def __init__(self, topology: MeshTopology, offset_x: int = 1, offset_y: int = 1):
        super().__init__(topology)
        if offset_x % topology.width == 0 and offset_y % topology.height == 0:
            raise ValueError("a zero shift does nothing")
        self.offset_x = offset_x
        self.offset_y = offset_y

    def apply(self, coord: Coordinate) -> Coordinate:
        x, y = coord
        return (
            (x + self.offset_x) % self.topology.width,
            (y + self.offset_y) % self.topology.height,
        )


class IdentityTransform(MigrationTransform):
    """No-op transform (the "no migration" baseline)."""

    name = "identity"

    def apply(self, coord: Coordinate) -> Coordinate:
        return coord


#: The five schemes of Figure 1, in the paper's legend order.
FIGURE1_SCHEMES: Tuple[str, ...] = (
    "rotation",
    "x-mirror",
    "xy-mirror",
    "right-shift",
    "xy-shift",
)


_TRANSFORMS = {
    "rotation": RotationTransform,
    "x-mirror": XMirrorTransform,
    "y-mirror": YMirrorTransform,
    "xy-mirror": XYMirrorTransform,
    "right-shift": RightShiftTransform,
    "xy-shift": XYShiftTransform,
    "identity": IdentityTransform,
}


def make_transform(name: str, topology: MeshTopology, **kwargs) -> MigrationTransform:
    """The shared transform of scheme ``name`` on ``topology`` (with the
    scheme's offset keywords, if any).

    A transform is a fixed function of its mesh, so every call with the
    same scheme, mesh and offsets returns one instance, built on the first
    call with its node permutation and permutation bytes already derived;
    nothing writes to it afterwards, so runs and threads may share it.
    Construct a transform class directly for an instance of your own.
    """
    if name not in _TRANSFORMS:
        raise ValueError(
            f"unknown migration transform {name!r}; choose from {sorted(_TRANSFORMS)}"
        )
    return _shared_transform(name, topology, tuple(sorted(kwargs.items())))


@lru_cache(maxsize=1024)
def _shared_transform(
    name: str, topology: MeshTopology, offsets: Tuple[Tuple[str, int], ...]
) -> MigrationTransform:
    transform = _TRANSFORMS[name](topology, **dict(offsets))
    # Derived before the instance is shared, so no caller ever writes it.
    transform.permutation_bytes
    return transform


def available_transforms() -> Tuple[str, ...]:
    """All transform names accepted by :func:`make_transform`."""
    return tuple(_TRANSFORMS)
