"""The 2-D mesh Network-on-Chip the paper's evaluation runs on.

The runtime prices the network with one closed-form model:
:mod:`repro.noc.analytic` walks every flow of a traffic pattern through the
deterministic route tables of the mesh (:mod:`repro.noc.routing`,
:mod:`repro.noc.topology`) and prices each injection rate with an
M/D/1-style wormhole waiting term, cached once per (mesh, pattern, routing,
packet size).  Scenarios, migration plans and streams all read that model.

The cycle-accurate engine the model is calibrated against is the seed's
object-graph wormhole mesh, kept as the test oracle in
``tests/noc/object_engine.py`` together with its synthetic traffic
generators.  :mod:`repro.noc.flit` holds the packets the migration unit's
I/O address translation rewrites.
"""

from .analytic import AnalyticModel, analytic_model, destination_probabilities
from .engine import SimulationClock
from .flit import Packet, PacketClass
from .routing import (
    OddEvenRouting,
    RoutingAlgorithm,
    WestFirstRouting,
    XYRouting,
    YXRouting,
    available_algorithms,
    make_routing,
)
from .topology import Coordinate, Direction, MeshTopology

__all__ = [
    "AnalyticModel",
    "analytic_model",
    "destination_probabilities",
    "SimulationClock",
    "Packet",
    "PacketClass",
    "RoutingAlgorithm",
    "XYRouting",
    "YXRouting",
    "WestFirstRouting",
    "OddEvenRouting",
    "make_routing",
    "available_algorithms",
    "Coordinate",
    "Direction",
    "MeshTopology",
]
