"""Cycle-accurate 2-D mesh Network-on-Chip simulator.

This package is the substrate the paper's evaluation runs on: a wormhole,
credit-flow-controlled mesh NoC with dimension-ordered routing, synthetic
traffic and explicit packet batches, and per-router switching-activity
counters that feed the power and thermal models.

Two evaluation tiers, fastest first:

* :mod:`repro.noc.analytic` — closed-form M/D/1-style wormhole model
  (microseconds per point, validated below saturation);
* :mod:`repro.noc.vector` — the array-native cycle kernel, batched over
  many independent lanes (:class:`NocSimulator` runs one lane;
  :mod:`repro.noc.batch` runs whole latency curves as one run).

The seed object-graph engine the cycle kernel reproduces exactly lives in
the test suite as its oracle (``tests/noc/object_engine.py``).
"""

from .analytic import AnalyticModel, analytic_model, destination_probabilities
from .batch import LatencyCurve, default_rate_grid, latency_curve
from .engine import SimulationClock
from .flit import Packet, PacketClass, reset_packet_ids
from .routing import (
    OddEvenRouting,
    RoutingAlgorithm,
    WestFirstRouting,
    XYRouting,
    YXRouting,
    available_algorithms,
    make_routing,
)
from .schedule import TrafficSchedule
from .simulator import NocSimulator, SimulationResult, run_schedules
from .stats import LatencyStats, NetworkStats, RouterActivity
from .topology import Coordinate, Direction, MeshTopology
from .traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    NeighborTraffic,
    TrafficGenerator,
    TransposeTraffic,
    UniformRandomTraffic,
    make_traffic,
)
from .vector import VectorNetwork

__all__ = [
    "AnalyticModel",
    "analytic_model",
    "destination_probabilities",
    "LatencyCurve",
    "default_rate_grid",
    "latency_curve",
    "run_schedules",
    "TrafficSchedule",
    "VectorNetwork",
    "SimulationClock",
    "Packet",
    "PacketClass",
    "reset_packet_ids",
    "RouterActivity",
    "RoutingAlgorithm",
    "XYRouting",
    "YXRouting",
    "WestFirstRouting",
    "OddEvenRouting",
    "make_routing",
    "available_algorithms",
    "NocSimulator",
    "SimulationResult",
    "LatencyStats",
    "NetworkStats",
    "Coordinate",
    "Direction",
    "MeshTopology",
    "TrafficGenerator",
    "UniformRandomTraffic",
    "TransposeTraffic",
    "BitComplementTraffic",
    "NeighborTraffic",
    "HotspotTraffic",
    "make_traffic",
]
