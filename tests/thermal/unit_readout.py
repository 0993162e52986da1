"""Per-unit readout of a node-space trajectory, as the thermal model reports it.

``HotSpotModel.transient_sequence`` evaluates a transient only at its units'
cells and reports each unit as its hottest cell, in Celsius.  An oracle
trajectory (``lu_oracle.LuSolver``, or ``ThermalSolver.transient_sequence``)
is sampled at every node; :func:`unit_celsius` reads it out the same way, so
the two compare sample for sample.  Test files import it by module name, as
they import ``lu_oracle``.
"""

from __future__ import annotations

import numpy as np

from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import KELVIN_OFFSET


def unit_celsius(model: HotSpotModel, node_kelvin: np.ndarray) -> np.ndarray:
    """``(..., num_units)`` Celsius of ``(..., num_nodes)`` node kelvin:
    each unit reads as the hottest of its cells."""
    return node_kelvin[..., model.unit_nodes].max(axis=-1) - KELVIN_OFFSET
