"""Reconfiguration policies: when to migrate and with which transform.

The paper evaluates *periodic* migration with a fixed transform (one curve
per transform in Figure 1, one period per point in the Section 3 sweep).  The
policy abstraction also provides two natural extensions the conclusions hint
at — temperature-threshold triggering and an adaptive transform choice —
which are exercised by the tests, the scenario registry and the examples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..migration.transforms import (
    FIGURE1_SCHEMES,
    MigrationTransform,
    make_transform,
)
from ..noc.topology import Coordinate, MeshTopology
from ..power.trace import vector_to_map
from .metrics import ThermalMetrics


class PolicyContext:
    """Information a policy may use when deciding whether to migrate.

    The context is vector-native: the experiment driver hands policies the
    previous epoch's power as a row-major ``current_power_vector`` and never
    builds a dict per epoch.  :attr:`current_power_map` remains available as
    a **lazily built** dict view — the conversion runs only if a policy
    actually reads it, so policies that work on the vector (or ignore power
    entirely) keep ``vector_to_map`` out of the epoch loop.  Constructing a
    context with an explicit ``current_power_map`` dict still works for
    hand-written tests and external callers.
    """

    def __init__(
        self,
        epoch_index: int,
        current_thermal: Optional[ThermalMetrics],
        current_power_map: Optional[Dict[Coordinate, float]] = None,
        topology: Optional[MeshTopology] = None,
        current_power_vector: Optional[np.ndarray] = None,
        migration_in_progress: bool = False,
    ):
        if topology is None:
            raise TypeError("PolicyContext requires a topology")
        self.epoch_index = epoch_index
        self.current_thermal = current_thermal
        self.topology = topology
        self.current_power_vector = current_power_vector
        #: True while a staged migration plan is still unfolding — the
        #: controller will not start a new migration this epoch, so policies
        #: may skip their decision work (any transform returned is dropped
        #: and counted as a stalled epoch).
        self.migration_in_progress = migration_in_progress
        self._power_map: Optional[Dict[Coordinate, float]] = (
            dict(current_power_map) if current_power_map is not None else None
        )

    @property
    def current_power_map(self) -> Dict[Coordinate, float]:
        """Dict view of the previous epoch's power (built on first access)."""
        if self._power_map is None:
            if self.current_power_vector is None:
                self._power_map = {}
            else:
                self._power_map = vector_to_map(
                    self.topology, self.current_power_vector
                )
        return self._power_map

    @property
    def has_power(self) -> bool:
        """Whether any power information is attached (vector or dict)."""
        if self.current_power_vector is not None:
            return self.current_power_vector.size > 0
        return bool(self._power_map)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PolicyContext(epoch_index={self.epoch_index}, "
            f"current_thermal={self.current_thermal is not None}, "
            f"has_power={self.has_power})"
        )


class ReconfigurationPolicy(ABC):
    """Decides, at each period boundary, which transform (if any) to apply."""

    #: Name used in reports.
    name: str = "abstract"

    #: Whether the policy reads ``context.current_thermal`` and therefore
    #: needs the experiment driver to evaluate feedback temperatures.  The
    #: driver used to infer this with isinstance checks, which silently put
    #: every custom policy on the expensive per-epoch feedback path; now a
    #: policy opts in explicitly (threshold/adaptive do), and everything else
    #: runs feedback-free at zero thermal cost inside the epoch loop.
    requires_thermal_feedback: bool = False

    def __init__(self, period_us: float):
        if period_us <= 0:
            raise ValueError("migration period must be positive")
        self.period_us = period_us

    @abstractmethod
    def decide(self, context: PolicyContext) -> Optional[MigrationTransform]:
        """Transform to apply at this period boundary, or None to stay put."""

    def reset(self) -> None:
        """Clear any internal state before a fresh experiment run."""

    def compact(self) -> None:
        """Fold any per-epoch logs into aggregate counters.

        Streaming runs call this once per window so policy state stays
        constant-size over an unbounded stream.  Policies whose state is
        already O(1) (all the built-ins except adaptive's choice log) need
        not override it.
        """

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the decision-relevant state."""
        return {}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`."""


class NoMigrationPolicy(ReconfigurationPolicy):
    """Baseline: never migrate (static thermally-aware mapping only)."""

    name = "static"

    def __init__(self, period_us: float = 109.0):
        super().__init__(period_us)

    def decide(self, context: PolicyContext) -> Optional[MigrationTransform]:
        return None


class PeriodicMigrationPolicy(ReconfigurationPolicy):
    """The paper's scheme: apply the same transform at every period boundary."""

    def __init__(
        self,
        topology: MeshTopology,
        scheme: str,
        period_us: float = 109.0,
        skip_first: bool = True,
    ):
        super().__init__(period_us)
        self.scheme = scheme
        self.transform = make_transform(scheme, topology)
        self.name = f"periodic-{scheme}"
        #: when True, the first epoch runs in the static mapping (so the
        #: experiment's baseline and migrated phases share a starting point).
        self.skip_first = skip_first

    def decide(self, context: PolicyContext) -> Optional[MigrationTransform]:
        if self.skip_first and context.epoch_index == 0:
            return None
        return self.transform


class ThresholdMigrationPolicy(ReconfigurationPolicy):
    """Migrate only while the peak temperature exceeds a trigger level.

    An extension beyond the paper: periodic checking, but migrations are
    suppressed when the chip is already cool, saving the migration energy and
    throughput penalty during light load.
    """

    requires_thermal_feedback = True

    def __init__(
        self,
        topology: MeshTopology,
        scheme: str,
        trigger_celsius: float,
        period_us: float = 109.0,
    ):
        super().__init__(period_us)
        self.scheme = scheme
        self.trigger_celsius = trigger_celsius
        self.transform = make_transform(scheme, topology)
        self.name = f"threshold-{scheme}@{trigger_celsius:g}C"
        self.migrations_triggered = 0

    def decide(self, context: PolicyContext) -> Optional[MigrationTransform]:
        thermal = context.current_thermal
        if thermal is None:
            return None
        if thermal.peak_celsius >= self.trigger_celsius:
            self.migrations_triggered += 1
            return self.transform
        return None

    def reset(self) -> None:
        self.migrations_triggered = 0

    def state_dict(self) -> Dict[str, object]:
        return {"migrations_triggered": self.migrations_triggered}

    def restore_state(self, state: Dict[str, object]) -> None:
        self.migrations_triggered = int(state["migrations_triggered"])  # type: ignore[arg-type]


class AdaptiveMigrationPolicy(ReconfigurationPolicy):
    """Pick, each period, the candidate transform that best cools the hotspot.

    At every boundary the policy scores each candidate transform by how far
    the predicted post-migration hotspot ends up from the currently hottest
    unit (a cheap spatial heuristic that needs no thermal solve), preferring
    transforms that move the hot workload furthest from its heat.  This is
    the "dynamic alteration of the migration function at runtime" the paper's
    Section 2.3 explicitly allows for.
    """

    requires_thermal_feedback = True

    def __init__(
        self,
        topology: MeshTopology,
        candidate_schemes: Optional[Sequence[str]] = None,
        period_us: float = 109.0,
    ):
        super().__init__(period_us)
        self.topology = topology
        schemes = list(candidate_schemes) if candidate_schemes else list(FIGURE1_SCHEMES)
        self.candidates: List[MigrationTransform] = []
        for scheme in schemes:
            try:
                self.candidates.append(make_transform(scheme, topology))
            except ValueError:
                # e.g. rotation on a non-square mesh: simply not a candidate.
                continue
        if not self.candidates:
            raise ValueError("no valid candidate transforms for this topology")
        # Secondary criterion: prefer transforms with fewer fixed points
        # (they leave nothing pinned on a hotspot).  A transform is a fixed
        # bijection, so each candidate's penalty is computed once.
        self._scored = [
            (transform, len(transform.fixed_points()) * 0.25)
            for transform in self.candidates
        ]
        self.name = "adaptive"
        self.choices: List[str] = []
        #: transform name -> times chosen, including compacted-away entries.
        self.choice_counts: Dict[str, int] = {}

    def decide(self, context: PolicyContext) -> Optional[MigrationTransform]:
        thermal = context.current_thermal
        if thermal is None or not context.has_power:
            choice = self.candidates[0]
            self._record_choice(choice.name)
            return choice
        hottest = thermal.hottest_unit()
        if hottest is None:
            hottest = self.topology.center

        best = None
        best_score = None
        for transform, fixed_penalty in self._scored:
            displaced = transform(hottest)
            distance = self.topology.manhattan_distance(hottest, displaced)
            score = distance - fixed_penalty
            if best_score is None or score > best_score:
                best_score = score
                best = transform
        self._record_choice(best.name)
        return best

    def _record_choice(self, name: str) -> None:
        self.choices.append(name)
        self.choice_counts[name] = self.choice_counts.get(name, 0) + 1

    def reset(self) -> None:
        self.choices = []
        self.choice_counts = {}

    def compact(self) -> None:
        """Drop the per-epoch choice log; :attr:`choice_counts` keeps totals."""
        self.choices = []

    def state_dict(self) -> Dict[str, object]:
        return {"choice_counts": dict(self.choice_counts)}

    def restore_state(self, state: Dict[str, object]) -> None:
        counts = state["choice_counts"]
        self.choice_counts = {str(k): int(v) for k, v in counts.items()}  # type: ignore[union-attr]
        self.choices = []


def policy_family(name: str) -> str:
    """The policy class :func:`make_policy` builds for ``name``.

    ``"threshold"``, ``"adaptive"`` or ``"periodic"`` — static shares the
    periodic family.  A scheme's keyword arguments fit only its own family.
    """
    if name == "adaptive":
        return "adaptive"
    if name.startswith("threshold-"):
        return "threshold"
    return "periodic"


def make_policy(
    name: str,
    topology: MeshTopology,
    period_us: float = 109.0,
    **kwargs,
) -> ReconfigurationPolicy:
    """Factory: ``"static"``, a Figure-1 scheme name, ``"adaptive"``, or
    ``"threshold-<scheme>"``."""
    if name == "static":
        return NoMigrationPolicy(period_us)
    if name == "adaptive":
        return AdaptiveMigrationPolicy(topology, period_us=period_us, **kwargs)
    if name.startswith("threshold-"):
        scheme = name[len("threshold-") :]
        return ThresholdMigrationPolicy(topology, scheme, period_us=period_us, **kwargs)
    return PeriodicMigrationPolicy(topology, name, period_us=period_us, **kwargs)
