"""Power traces: epochs x units power arrays with a coordinate index.

:class:`~repro.core.experiment.ThermalExperiment` emits one per-unit power
row per migration epoch, a window of epochs at a time, and the thermal
solvers consume the window's piecewise-constant trace at once (multi-RHS
steady solves, sequenced transients).  :class:`PowerTrace` is the contract
between those layers: a duration vector and a ``(num_samples, num_units)``
power matrix indexed by the topology's row-major coordinate order.
:func:`map_to_vector` and :func:`vector_to_map` convert rows at the
dict-keyed edges.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..noc.topology import Coordinate, MeshTopology


# ----------------------------------------------------------------------
# Coordinate-indexed vector <-> dict conversion (the "edges" of the
# array-native pipeline: everything inside works on vectors, everything
# user-facing can still ask for dicts).
# ----------------------------------------------------------------------
def map_to_vector(topology: MeshTopology, values: Dict[Coordinate, float]) -> np.ndarray:
    """Row-major vector over the mesh from a per-coordinate dict.

    Missing coordinates become zero; coordinates outside the mesh raise.
    """
    vector = np.zeros(topology.num_nodes)
    for coord, value in values.items():
        vector[topology.node_id(coord)] = value
    return vector


def vector_to_map(topology: MeshTopology, vector: np.ndarray) -> Dict[Coordinate, float]:
    """Per-coordinate dict view of a row-major vector over the mesh."""
    vector = np.asarray(vector)
    if vector.shape != (topology.num_nodes,):
        raise ValueError(
            f"expected a vector of {topology.num_nodes} values, got shape {vector.shape}"
        )
    return {coord: float(vector[idx]) for idx, coord in enumerate(topology.coordinates())}


class PowerTrace:
    """A piecewise-constant power trace over a mesh, validated once.

    ``durations`` holds each interval's length in seconds and ``powers`` its
    ``(num_samples, num_units)`` watts, column ``topology.node_id(coord)``
    carrying ``coord``'s power.  Both are read-only views of the arrays the
    trace was built from (no copy; the caller's arrays keep their flags).
    The constructor is the only way in: it raises ``ValueError`` for an
    empty trace, a shape mismatch, a non-positive or non-finite duration
    and a negative or non-finite power.
    """

    def __init__(
        self, topology: MeshTopology, durations_s: np.ndarray, power_w: np.ndarray
    ):
        durations = np.asarray(durations_s, dtype=float)
        powers = np.asarray(power_w, dtype=float)
        if durations.ndim != 1 or durations.size == 0:
            raise ValueError("durations must be a non-empty 1-D array")
        if powers.shape != (durations.size, topology.num_nodes):
            raise ValueError(
                f"power matrix must be ({durations.size}, {topology.num_nodes}), "
                f"got shape {powers.shape}"
            )
        # A minimum and a maximum decide each gate: NaN fails every
        # comparison, and +inf fails the maximum's.
        if not (
            np.minimum.reduce(durations, axis=None) > 0.0
            and np.maximum.reduce(durations, axis=None) < np.inf
        ):
            raise ValueError("sample durations must be positive and finite")
        if not (
            np.minimum.reduce(powers, axis=None) >= 0.0
            and np.maximum.reduce(powers, axis=None) < np.inf
        ):
            raise ValueError("non-finite or negative power in trace")
        self.topology = topology
        self._durations = _read_only_view(durations)
        self._powers = _read_only_view(powers)

    @property
    def durations(self) -> np.ndarray:
        """Per-sample durations in seconds (read-only)."""
        return self._durations

    @property
    def powers(self) -> np.ndarray:
        """``(num_samples, num_units)`` power matrix (read-only)."""
        return self._powers

    def __len__(self) -> int:
        return len(self._durations)

    def average_vector(self) -> np.ndarray:
        """Time-weighted average power per unit as a row-major vector."""
        return self._durations @ self._powers / self._durations.sum()


def _read_only_view(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view
