"""ASCII rendering of spatial maps (temperature, power) over the mesh.

Keeps the examples and reports dependency-free: no matplotlib is available in
the reproduction environment, so figures are emitted as aligned text grids
instead.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..noc.topology import Coordinate, MeshTopology
from ..power.trace import vector_to_map


def _as_map(topology: MeshTopology, values) -> Dict[Coordinate, float]:
    """Accept either a per-coordinate dict or a row-major vector.

    Lets the renderers consume rows of the array-native pipeline (power
    trace rows, batched temperature rows) without the caller building the
    dict view by hand.
    """
    if isinstance(values, dict):
        return values
    return vector_to_map(topology, np.asarray(values))


def render_grid(
    topology: MeshTopology,
    values,
    title: str = "",
    unit: str = "",
    cell_format: str = "{:7.2f}",
) -> str:
    """Render a per-coordinate value map (dict or row-major vector) as a grid.

    Row ``y = height - 1`` is printed first so the output matches the usual
    mathematical orientation (y grows upwards).
    """
    values = _as_map(topology, values)
    missing = [c for c in topology.coordinates() if c not in values]
    if missing:
        raise ValueError(f"missing values for {len(missing)} coordinates, e.g. {missing[0]}")
    lines = []
    if title:
        suffix = f" ({unit})" if unit else ""
        lines.append(f"{title}{suffix}")
    for y in range(topology.height - 1, -1, -1):
        row = [cell_format.format(values[(x, y)]) for x in range(topology.width)]
        lines.append(" ".join(row))
    return "\n".join(lines)


def render_heat_bar(
    topology: MeshTopology,
    values,
    levels: str = " .:-=+*#%@",
) -> str:
    """Coarse character heat map (one character per PE, hotter = denser)."""
    values = _as_map(topology, values)
    lo = min(values.values())
    hi = max(values.values())
    span = hi - lo if hi > lo else 1.0
    lines = []
    for y in range(topology.height - 1, -1, -1):
        row = []
        for x in range(topology.width):
            frac = (values[(x, y)] - lo) / span
            idx = min(len(levels) - 1, int(frac * (len(levels) - 1) + 0.5))
            row.append(levels[idx])
        lines.append("".join(row))
    return "\n".join(lines)
