"""Reconfiguration policies: when to migrate and with which transform.

The paper evaluates *periodic* migration with a fixed transform (one curve
per transform in Figure 1, one period per point in the Section 3 sweep).  The
policy abstraction also provides two natural extensions the conclusions hint
at — temperature-threshold triggering and an adaptive transform choice —
which are exercised by the tests, the scenario registry and the examples.
"""

from __future__ import annotations

import inspect
import numbers
from abc import ABC, abstractmethod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..migration.transforms import (
    FIGURE1_SCHEMES,
    MigrationTransform,
    available_transforms,
    make_transform,
)
from ..noc.topology import MeshTopology

#: Every scheme name :func:`make_policy` builds a policy for.
POLICY_SCHEMES: Tuple[str, ...] = (
    "static",
    "adaptive",
    *available_transforms(),
    *(f"threshold-{name}" for name in available_transforms()),
)


class PolicyContext(NamedTuple):
    """Information a policy may use when deciding whether to migrate.

    ``unit_celsius`` is the feedback temperature of the previous epoch's
    power: one read-only Celsius value per unit in the topology's row-major
    coordinate order, or None when the policy did not ask for feedback (see
    :attr:`ReconfigurationPolicy.requires_thermal_feedback`).  The row is
    carried checkpoint state, so policies must not write to it.

    ``migration_in_progress`` is True while a staged migration plan is still
    unfolding: the controller will not start a new migration this epoch, so
    policies may skip their decision work (any transform returned is dropped
    and counted as a stalled epoch).
    """

    epoch_index: int
    unit_celsius: Optional[np.ndarray] = None
    migration_in_progress: bool = False


class ReconfigurationPolicy(ABC):
    """Decides, at each period boundary, which transform (if any) to apply."""

    #: Name used in reports.
    name: str = "abstract"

    #: Whether the policy reads ``context.unit_celsius``, so the experiment
    #: driver evaluates feedback temperatures (threshold/adaptive opt in;
    #: everything else runs feedback-free at zero thermal cost).
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
        if not isinstance(skip_first, bool):
            raise ValueError(
                f"policy {scheme!r}: skip_first must be true or false, "
                f"got {skip_first!r}"
            )
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
        if isinstance(trigger_celsius, bool) or not isinstance(
            trigger_celsius, numbers.Real
        ):
            raise ValueError(
                f"policy 'threshold-{scheme}': trigger_celsius must be a real "
                f"number, got {trigger_celsius!r}"
            )
        self.scheme = scheme
        self.trigger_celsius = trigger_celsius
        self.transform = make_transform(scheme, topology)
        self.name = f"threshold-{scheme}@{trigger_celsius:g}C"
        self.migrations_triggered = 0

    def decide(self, context: PolicyContext) -> Optional[MigrationTransform]:
        row = context.unit_celsius
        if row is None:
            return None
        if row.max() >= self.trigger_celsius:
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

    The policy scores each candidate transform by how far it moves the
    currently hottest unit (a cheap spatial heuristic that needs no thermal
    solve), preferring transforms that move the hot workload furthest from
    its heat.  This is the "dynamic alteration of the migration function at
    runtime" the paper's Section 2.3 explicitly allows for.

    The score depends only on the hottest unit, so ``__init__`` scores every
    unit once and a decision is one ``argmax`` and one table lookup.
    """

    requires_thermal_feedback = True

    def __init__(
        self,
        topology: MeshTopology,
        candidate_schemes: Optional[Sequence[str]] = None,
        period_us: float = 109.0,
    ):
        super().__init__(period_us)
        if candidate_schemes is not None and (
            not isinstance(candidate_schemes, (list, tuple))
            or not all(isinstance(scheme, str) for scheme in candidate_schemes)
        ):
            raise ValueError(
                "policy 'adaptive': candidate_schemes must be a list of scheme "
                f"names, got {candidate_schemes!r}"
            )
        schemes = list(candidate_schemes) if candidate_schemes else list(FIGURE1_SCHEMES)
        unknown = [scheme for scheme in schemes if scheme not in available_transforms()]
        if unknown:
            raise ValueError(
                f"policy 'adaptive': unknown candidate scheme(s) {unknown}; "
                f"choose from {list(available_transforms())}"
            )
        self.candidates: List[MigrationTransform] = []
        for scheme in schemes:
            try:
                self.candidates.append(make_transform(scheme, topology))
            except ValueError:
                # A known scheme this mesh cannot run (e.g. rotation on a
                # non-square mesh): simply not a candidate.
                continue
        if not self.candidates:
            raise ValueError("no valid candidate transforms for this topology")
        # A candidate scores its displacement of the hottest unit, less 0.25
        # per fixed point (a fixed point leaves something pinned on a
        # hotspot); argmax keeps the earlier candidate on a tie.
        perms = np.array([t.node_permutation() for t in self.candidates])
        nodes = np.arange(topology.num_nodes)
        x, y = nodes % topology.width, nodes // topology.width
        fixed = (perms == nodes).sum(axis=1, keepdims=True)
        scores = abs(x[perms] - x) + abs(y[perms] - y) - fixed * 0.25
        #: Row-major unit index -> the transform chosen when that unit is
        #: the hottest.
        self.choice_by_unit: List[MigrationTransform] = [
            self.candidates[index] for index in scores.argmax(axis=0).tolist()
        ]
        self.name = "adaptive"
        #: transform name -> times chosen (the policy's checkpoint state).
        self.choice_counts: Dict[str, int] = {}

    def decide(self, context: PolicyContext) -> Optional[MigrationTransform]:
        row = context.unit_celsius
        if row is None:
            choice = self.candidates[0]
        else:
            # argmax takes the first maximum: ties go to the earlier unit in
            # row-major order.
            choice = self.choice_by_unit[int(row.argmax())]
        self.choice_counts[choice.name] = self.choice_counts.get(choice.name, 0) + 1
        return choice

    def reset(self) -> None:
        self.choice_counts = {}

    def state_dict(self) -> Dict[str, object]:
        return {"choice_counts": dict(self.choice_counts)}

    def restore_state(self, state: Dict[str, object]) -> None:
        counts = state["choice_counts"]
        self.choice_counts = {str(k): int(v) for k, v in counts.items()}  # type: ignore[union-attr]


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
    /,
    period_us: float = 109.0,
    **kwargs,
) -> ReconfigurationPolicy:
    """Factory: ``"static"``, a Figure-1 scheme name, ``"adaptive"``, or
    ``"threshold-<scheme>"``; keyword arguments the policy's constructor
    does not bind (one it does not take, or a required one missing) raise
    ``ValueError`` naming them."""
    if name == "static":
        policy, args = NoMigrationPolicy, ()
    elif name == "adaptive":
        policy, args = AdaptiveMigrationPolicy, (topology,)
    elif name.startswith("threshold-"):
        policy, args = ThresholdMigrationPolicy, (topology, name[len("threshold-") :])
    else:
        policy, args = PeriodicMigrationPolicy, (topology, name)
    try:
        return policy(*args, period_us=period_us, **kwargs)
    except TypeError:
        # The signature is bound only on this failure path: a TypeError
        # from arguments that do not bind is the caller's error.
        try:
            inspect.signature(policy).bind(*args, period_us=period_us, **kwargs)
        except TypeError as error:
            raise ValueError(f"policy {name!r}: {error}") from None
        raise
