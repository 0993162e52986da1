"""Core contribution: runtime reconfiguration policies, controller and experiments."""

from .controller import MigrationEvent, RuntimeReconfigurationController
from .dtm import DvfsThrottling, StopGoThrottling
from .experiment import ExperimentSettings, FeedbackPlan, ThermalExperiment
from .metrics import (
    EpochColumns,
    EpochRecord,
    ExperimentResult,
    PerformanceMetrics,
    ThermalMetrics,
)
from .policy import (
    AdaptiveMigrationPolicy,
    NoMigrationPolicy,
    PeriodicMigrationPolicy,
    PolicyContext,
    ReconfigurationPolicy,
    ThresholdMigrationPolicy,
    make_policy,
)

__all__ = [
    "MigrationEvent",
    "RuntimeReconfigurationController",
    "DvfsThrottling",
    "StopGoThrottling",
    "ExperimentSettings",
    "FeedbackPlan",
    "ThermalExperiment",
    "EpochColumns",
    "EpochRecord",
    "ExperimentResult",
    "PerformanceMetrics",
    "ThermalMetrics",
    "AdaptiveMigrationPolicy",
    "NoMigrationPolicy",
    "PeriodicMigrationPolicy",
    "PolicyContext",
    "ReconfigurationPolicy",
    "ThresholdMigrationPolicy",
    "make_policy",
]
