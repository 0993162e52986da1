"""Small reference computations the tests check the runtime against.

Each is written out from its definition, independent of the runtime code it
checks.  Test modules import it by module name (pytest puts ``tests/`` on
``sys.path``, as for ``strategies``).
"""

import numpy as np

from repro.core.metrics import ThermalMetrics
from repro.placement.mapping import Mapping


def hops(a, b):
    """Manhattan distance between two mesh coordinates."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def moved(mapping, transform):
    """``mapping`` with every physical coordinate moved by ``transform``."""
    return Mapping(
        topology=mapping.topology,
        physical_of_task={
            task: transform(coord) for task, coord in mapping.physical_of_task.items()
        },
    )


def metrics_of(per_unit_celsius):
    """Peak, mean and minimum of a per-coordinate Celsius map."""
    values = np.array(list(per_unit_celsius.values()))
    return ThermalMetrics(
        peak_celsius=float(values.max()),
        mean_celsius=float(values.mean()),
        min_celsius=float(values.min()),
        per_unit_celsius=dict(per_unit_celsius),
    )


def row_powers(topology, profile):
    """Total power per mesh row."""
    rows = np.zeros(topology.height)
    for (_x, y), power in profile.items():
        rows[y] += power
    return rows


def peak_at_scale(chip, scale):
    """Steady peak of the chip's static power map, every unit scaled by ``scale``."""
    power = {coord: watts * scale for coord, watts in chip.power_map().items()}
    return max(chip.thermal_model.steady_state_by_coord(power).values())
