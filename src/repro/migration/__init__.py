"""Runtime migration: coordinate transforms, scheduling, cost and chip I/O.

This package implements the paper's contribution proper — the plane
transforms of Table 1 (rotation, mirroring, translation), the phased
congestion-free migration schedule, the migration unit's cycle/energy cost
model, and the transparent I/O address translation — plus the staged
migration engine (:mod:`repro.migration.plan`) that unfolds a transform
over epochs in the sudden / fluid / batched styles.
"""

from .io_interface import IoAddressTranslator
from .plan import (
    MIGRATION_STYLES,
    MigrationPlan,
    MigrationStage,
    congestion_factor,
    lower_transform,
)
from .scheduler import MigrationScheduler
from .state_transfer import StateTransferModel
from .transforms import (
    FIGURE1_SCHEMES,
    IdentityTransform,
    MigrationTransform,
    RightShiftTransform,
    RotationTransform,
    XMirrorTransform,
    XYMirrorTransform,
    XYShiftTransform,
    YMirrorTransform,
    available_transforms,
    make_transform,
)
from .unit import MigrationUnit

__all__ = [
    "IoAddressTranslator",
    "MIGRATION_STYLES",
    "MigrationPlan",
    "MigrationStage",
    "congestion_factor",
    "lower_transform",
    "MigrationScheduler",
    "StateTransferModel",
    "FIGURE1_SCHEMES",
    "IdentityTransform",
    "MigrationTransform",
    "RightShiftTransform",
    "RotationTransform",
    "XMirrorTransform",
    "XYMirrorTransform",
    "XYShiftTransform",
    "YMirrorTransform",
    "available_transforms",
    "make_transform",
    "MigrationUnit",
]
