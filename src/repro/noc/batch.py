"""Batched latency-curve evaluation on the vector NoC engine.

The classic NoC characterisation — average latency versus offered load —
used to be a Python loop running one simulation per injection rate.  The
:class:`~repro.noc.vector.VectorNetwork` holds *many independent lanes* in
one stacked state array, so the whole curve is ONE vectorized run: every
injection rate becomes a lane, the cycle kernel advances all of them
together, and the marginal cost of an extra point is a slightly larger
array operation instead of a whole extra simulation.

:func:`latency_curve` is the high-level entry point; it builds one
:class:`~repro.noc.schedule.TrafficSchedule` per rate and hands them to the
lane-level primitive :func:`~repro.noc.simulator.run_schedules`, which
callers already holding schedules use directly — e.g. sweeping *patterns*
at a fixed rate, or replaying many migration windows at once.

The default rate grid spans up to ~1.3x the cached analytic model's
``saturation_rate`` (:func:`~repro.noc.analytic.analytic_model`): dense
enough to resolve the knee, capped so the post-measurement drain (which
runs until the slowest lane empties) stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .analytic import analytic_model
from .simulator import SimulationResult, run_schedules
from .topology import MeshTopology
from .traffic import make_traffic

__all__ = ["LatencyCurve", "default_rate_grid", "latency_curve"]


@dataclass
class LatencyCurve:
    """Latency-vs-offered-load sweep produced by :func:`latency_curve`."""

    pattern: str
    injection_rates: np.ndarray
    avg_latency: np.ndarray
    throughput_flits_per_cycle: np.ndarray
    results: List[SimulationResult] = field(repr=False)

    @property
    def num_points(self) -> int:
        return int(self.injection_rates.size)

    def saturation_estimate(self, threshold: float = 3.0) -> float:
        """First rate whose latency exceeds ``threshold`` x zero-load latency.

        Returns the largest swept rate if the curve never crosses — the
        sweep then ended below saturation.
        """
        base = float(self.avg_latency[0])
        above = np.nonzero(self.avg_latency > threshold * base)[0]
        if above.size == 0:
            return float(self.injection_rates[-1])
        return float(self.injection_rates[above[0]])


def default_rate_grid(
    topology: MeshTopology,
    pattern: str = "uniform",
    *,
    num_points: int = 32,
    packet_size_flits: int = 4,
    routing: str = "xy",
    span: float = 1.3,
    **pattern_kwargs,
) -> np.ndarray:
    """Dense injection-rate grid from near zero to ``span`` x saturation.

    The cap matters for wall-clock: the drain phase runs until the most
    congested lane empties, so sweeping far past saturation buys hundreds
    of drain cycles for no extra information about the knee.
    """
    sat = analytic_model(
        topology,
        pattern,
        packet_size_flits=packet_size_flits,
        routing=routing,
        **pattern_kwargs,
    ).saturation_rate
    return np.linspace(0.005, span * sat, num_points)


def latency_curve(
    topology: MeshTopology,
    pattern: str = "uniform",
    injection_rates: Optional[Sequence[float]] = None,
    *,
    cycles: int = 600,
    warmup_cycles: int = 100,
    packet_size_flits: int = 4,
    routing: str = "xy",
    buffer_depth: int = 4,
    seed: Optional[int] = 0,
    drain: bool = True,
    drain_limit: int = 200_000,
    **pattern_kwargs,
) -> LatencyCurve:
    """Sweep a traffic pattern over injection rates in one batched run.

    Each rate gets its own lane (and its own seed offset, so lanes are
    statistically independent); traffic is pregenerated with the numpy
    ``schedule()`` path.  Returns per-point averages plus the full
    :class:`~repro.noc.simulator.SimulationResult` list for callers that
    need activity counters or per-class latencies.
    """
    if injection_rates is None:
        injection_rates = default_rate_grid(
            topology,
            pattern,
            packet_size_flits=packet_size_flits,
            routing=routing,
            **pattern_kwargs,
        )
    rates = np.asarray(injection_rates, dtype=np.float64)
    horizon = warmup_cycles + cycles
    schedules = []
    for index, rate in enumerate(rates):
        generator = make_traffic(
            pattern,
            topology,
            float(rate),
            packet_size_flits=packet_size_flits,
            seed=None if seed is None else seed + index,
            **pattern_kwargs,
        )
        schedules.append(generator.schedule(horizon))
    results = run_schedules(
        topology,
        schedules,
        routing=routing,
        buffer_depth=buffer_depth,
        cycles=cycles,
        warmup_cycles=warmup_cycles,
        drain=drain,
        drain_limit=drain_limit,
    )
    return LatencyCurve(
        pattern=pattern,
        injection_rates=rates,
        avg_latency=np.array([r.average_latency for r in results]),
        throughput_flits_per_cycle=np.array(
            [r.throughput_flits_per_cycle for r in results]
        ),
        results=results,
    )
