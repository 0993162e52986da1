"""Analytic wormhole latency model — the closed-form fast path.

Below saturation, the average packet latency of a wormhole mesh is well
approximated by an M/D/1-style queueing model (Dally & Towles ch. 23;
Agarwal's mesh analysis): each packet pays its zero-load latency plus a
waiting term at every channel it acquires along the route.

* **Zero-load latency** of an ``H``-hop, ``L``-flit packet is ``H + L + 1``
  cycles in this router (one cycle per hop for the head, ``L - 1`` cycles of
  pipeline drain for the body, one ejection cycle).  This matches the vector
  engine's measured latency at vanishing load exactly.
* **Channel waiting**: a channel (an output port of some router, including
  the ejection port at the destination) serves one packet per ``L`` cycles.
  The M/D/1 waiting time is ``W_c = rho_c * L / (2 * (1 - rho_c))`` with
  utilisation ``rho_c = lambda_c * L``.  The arrivals are superpositions of
  thinned Bernoulli flows — less bursty than Poisson, burstier than a
  single Bernoulli stream — so the wait is scaled by
  :data:`ARRIVAL_DISCRETISATION`, the midpoint of the Poisson (``1``) and
  discrete-time Geo/D/1 (``1 - 1/L``) limits, calibrated once against the
  event engine (``tests/noc/test_analytic.py`` pins the agreement).
* **Channel loads** come from the same deterministic route tables the cycle
  engines use: every source/destination flow is walked through the route
  LUT, accumulating its probability on each traversed link plus the
  ejection channel.  ``capacity_rate`` is the injection rate at which the
  most-loaded channel reaches unit utilisation — an upper bound no wormhole
  router attains.  With ``buffer_depth == packet_size`` (one packet per
  input buffer) head-of-line blocking caps achievable channel utilisation
  at roughly half of capacity (measured 0.53x on 4x4, 0.50x on 5x5
  uniform), so the reported ``saturation_rate`` is
  ``WORMHOLE_BLOCKING_FACTOR * capacity_rate`` and the model is validated
  below it.

The model is *per flow* exact about paths (it uses the real routing
function, not a uniform-distance approximation), so it tracks pattern
asymmetries — hotspot ejection bottlenecks, transpose's silent diagonal —
that a generic formula misses.  For the stochastic patterns (uniform,
hotspot, neighbor) agreement with the event-driven engines is pinned to
<10% mean latency below ~0.85x ``saturation_rate`` by
``tests/noc/test_analytic.py``.  Deterministic permutations (transpose,
bit-complement) see smoother per-channel arrivals than the queueing model
assumes, so there it is a conservative upper bound rather than a tight
estimate — use the batched event engine for those.

Walking the routes is the expensive part, and it depends only on (mesh,
pattern, routing, packet size, pattern arguments), not on the rate.
:func:`analytic_model` builds each such model once per process and returns
the cached :class:`AnalyticModel`, whose every rate then costs a few array
operations.  A global lock guards the cache, a short-lived per-key lock
serializes threads building the *same* model, and distinct keys build in
parallel (the discipline of the decoder-effort probes in
:mod:`repro.scenarios.compile`).
"""

from __future__ import annotations

import math
import numbers
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .routing import make_routing
from .topology import MeshTopology
from .vector import _LOCAL, _MeshTables

__all__ = [
    "ARRIVAL_DISCRETISATION",
    "WORMHOLE_BLOCKING_FACTOR",
    "AnalyticModel",
    "analytic_model",
    "destination_probabilities",
]

#: Wait-time scale between the Poisson (1.0) and Geo/D/1 (1 - 1/L) limits.
ARRIVAL_DISCRETISATION = 0.875

#: Fraction of raw channel capacity a single-packet-buffer wormhole router
#: sustains before head-of-line blocking saturates it.
WORMHOLE_BLOCKING_FACTOR = 0.5


# ----------------------------------------------------------------------
# Destination probability matrices (one row per source node)
# ----------------------------------------------------------------------
def _traffic_arguments(
    pattern: str,
    topology: MeshTopology,
    *,
    hotspots: Optional[Sequence[Tuple[int, int]]] = None,
    hotspot_fraction: Optional[float] = None,
    **unknown,
) -> Tuple[List[Tuple[int, int]], float]:
    """The ``(hotspots, fraction)`` of a pattern's arguments, checked as
    :class:`repro.noc.traffic.HotspotTraffic` checks them and by type (a
    scenario's JSON may carry any); a malformed one raises ``ValueError``."""
    if unknown:
        raise ValueError(f"unknown traffic arguments: {sorted(unknown)}")
    if pattern != "hotspot":
        if hotspots is not None or hotspot_fraction is not None:
            raise ValueError(f"{pattern!r} traffic takes no hotspot arguments")
        return [], 0.0
    if not hotspots:
        raise ValueError("hotspot pattern needs hotspots=[(x, y), ...]")
    pairs = np.asarray(hotspots)
    if pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"hotspots must be integer (x, y) pairs, got {hotspots!r}")
    spots = [tuple(spot) for spot in hotspots]
    for spot in spots:
        if not topology.contains(spot):
            raise ValueError(f"hotspot {spot} outside mesh")
    fraction = 0.5 if hotspot_fraction is None else hotspot_fraction
    if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real):
        raise ValueError(f"hotspot_fraction must be a real number, got {fraction!r}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("hotspot fraction must be in [0, 1]")
    return spots, fraction


def destination_probabilities(
    pattern: str, topology: MeshTopology, **pattern_kwargs
) -> np.ndarray:
    """``P[s, d]`` = probability an injection slot at ``s`` targets ``d``.

    Rows mirror the generators in :mod:`repro.noc.traffic`: the diagonal is
    zero, and rows may sum to less than one for patterns that drop slots
    (a transpose diagonal node never sends, so its row is all zero).
    Malformed arguments raise ``ValueError`` (:func:`_traffic_arguments`).
    """
    spots, fraction = _traffic_arguments(pattern, topology, **pattern_kwargs)
    n = topology.num_nodes
    probs = np.zeros((n, n), dtype=np.float64)
    if pattern == "uniform":
        probs[:] = 1.0 / (n - 1)
        np.fill_diagonal(probs, 0.0)
    elif pattern == "transpose":
        for s in range(n):
            x, y = topology.coordinate(s)
            if topology.contains((y, x)) and (y, x) != (x, y):
                probs[s, topology.node_id((y, x))] = 1.0
    elif pattern == "bit-complement":
        for s in range(n):
            x, y = topology.coordinate(s)
            d = (topology.width - 1 - x, topology.height - 1 - y)
            if d != (x, y):
                probs[s, topology.node_id(d)] = 1.0
    elif pattern == "neighbor":
        for s in range(n):
            neighbors = list(topology.neighbors(topology.coordinate(s)).values())
            for coord in neighbors:
                probs[s, topology.node_id(coord)] = 1.0 / len(neighbors)
    elif pattern == "hotspot":
        uniform = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(uniform, 0.0)
        spot_ids = [topology.node_id(s) for s in spots]
        for s in range(n):
            candidates = [d for d in spot_ids if d != s]
            frac = fraction if candidates else 0.0
            probs[s] = (1.0 - frac) * uniform[s]
            for d in candidates:
                probs[s, d] += frac / len(candidates)
    else:
        raise ValueError(f"unknown traffic pattern {pattern!r}")
    return probs


# ----------------------------------------------------------------------
# Route walking: flows -> channel loads
# ----------------------------------------------------------------------
def _flow_channels(
    topology: MeshTopology, routing: str
) -> "Dict[Tuple[int, int], List[int]]":
    """Channel indices traversed by every source->destination flow.

    A channel is an output port of a router: ``node * 5 + port`` for link
    channels, and the destination's LOCAL port for the ejection channel.
    The walk uses the same route LUT the vector engine precomputes, so the
    paths are exactly the deterministic routes of the cycle engines.
    """
    tables = _MeshTables(topology, make_routing(routing, topology))
    n = topology.num_nodes
    flows: "Dict[Tuple[int, int], List[int]]" = {}
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            node, channels = s, []
            while node != d:
                port = int(tables.route_lut[node, d])
                channels.append(node * 5 + port)
                node = int(tables.neighbor[node, port])
            channels.append(d * 5 + _LOCAL)  # ejection channel
            flows[(s, d)] = channels
    return flows


class AnalyticModel:
    """The closed-form latency of one traffic pattern on one mesh.

    The flow-weighted mean latency ``sum_f p_f (H_f + L + 1 + sum_{c in f}
    W_c) / sum_f p_f`` needs no per-flow state at evaluation time: the
    channel-wait term regroups by channel as ``unit_loads . W`` because
    ``unit_loads[c]`` is exactly the probability mass of the flows crossing
    ``c``.  The model therefore keeps the channel loads plus two scalars,
    ``sum p`` and ``sum p * hops``, and every rate costs a few array
    operations over the ``5 * num_nodes`` channels.  Build it through
    :func:`analytic_model`, which caches it.
    """

    def __init__(
        self,
        topology: MeshTopology,
        pattern: str,
        packet_size_flits: int,
        routing: str,
        **pattern_kwargs,
    ):
        self.packet_size_flits = packet_size_flits
        probs = destination_probabilities(pattern, topology, **pattern_kwargs)
        flows = _flow_channels(topology, routing)
        n = topology.num_nodes
        # Per-unit-rate packet load on every channel.
        loads = np.zeros(n * 5, dtype=np.float64)
        total_probability = weighted_hops = 0.0
        for (s, d), channels in flows.items():
            p = probs[s, d]
            if p <= 0.0:
                continue
            loads[channels] += p
            total_probability += p
            weighted_hops += p * (len(channels) - 1)  # last entry is ejection
        if total_probability <= 0.0:
            raise ValueError("traffic pattern generates no packets on this mesh")
        self.unit_loads = loads
        #: ``sum_f p_f`` and ``sum_f p_f * hops_f`` over the flows that send.
        self.total_probability = total_probability
        self.weighted_hops = weighted_hops
        #: Flow-weighted mean latency at vanishing load (what ``latency(0)``
        #: returns); the denominator of every congestion factor.
        self.zero_load_latency = (
            weighted_hops + (packet_size_flits + 1) * total_probability
        ) / total_probability
        #: Rate at which the most-loaded channel reaches unit utilisation;
        #: the latency is infinite from here on.
        self.capacity_rate = 1.0 / (packet_size_flits * float(loads.max()))
        #: Rate from which the model is not validated (head-of-line blocking).
        self.saturation_rate = WORMHOLE_BLOCKING_FACTOR * self.capacity_rate
        #: The last validated rate, where saturated rates are priced.
        self.last_validated_rate = math.nextafter(self.saturation_rate, 0.0)

    def latency(self, injection_rate: float) -> float:
        """Mean packet latency (cycles) at one per-node injection rate."""
        size = self.packet_size_flits
        util = injection_rate * size * self.unit_loads
        if float(util.max()) >= 1.0:
            return math.inf
        # M/D/1 waiting time per channel, deterministic service of L cycles,
        # scaled for the discrete (sub-Poisson) arrival process.
        wait = ARRIVAL_DISCRETISATION * util * size / (2.0 * (1.0 - util))
        total_p = self.total_probability
        total_latency = (
            self.weighted_hops
            + (size + 1) * total_p
            + float(self.unit_loads @ wait)
        )
        return total_latency / total_p


#: (width, height, pattern, routing, packet size, pattern-argument items)
#: -> built model.  See the module docstring for the locking.
_MODEL_CACHE: Dict[Tuple, AnalyticModel] = {}
_MODEL_KEY_LOCKS: Dict[Tuple, threading.Lock] = {}
_MODEL_CACHE_LOCK = threading.Lock()


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def analytic_model(
    topology: MeshTopology,
    pattern: str,
    *,
    packet_size_flits: int = 4,
    routing: str = "xy",
    **pattern_kwargs,
) -> AnalyticModel:
    """The process-wide cached model of ``pattern`` on ``topology``'s mesh;
    malformed arguments raise ``ValueError`` before they key the cache."""
    _traffic_arguments(pattern, topology, **pattern_kwargs)
    frozen = tuple(
        (name, _freeze(value)) for name, value in sorted(pattern_kwargs.items())
    )
    key = (topology.width, topology.height, pattern, routing, packet_size_flits, frozen)
    with _MODEL_CACHE_LOCK:
        cached = _MODEL_CACHE.get(key)
        if cached is not None:
            return cached
        key_lock = _MODEL_KEY_LOCKS.setdefault(key, threading.Lock())
    with key_lock:
        with _MODEL_CACHE_LOCK:
            cached = _MODEL_CACHE.get(key)
        if cached is not None:
            return cached
        try:
            model = AnalyticModel(
                topology, pattern, packet_size_flits, routing, **pattern_kwargs
            )
            with _MODEL_CACHE_LOCK:
                _MODEL_CACHE[key] = model
        finally:
            with _MODEL_CACHE_LOCK:
                _MODEL_KEY_LOCKS.pop(key, None)
        return model
