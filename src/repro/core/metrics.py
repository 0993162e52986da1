"""Metrics recorded by the runtime-reconfiguration experiments.

The paper reports three kinds of numbers: peak-temperature reductions
(Figure 1), average-temperature effects of migration energy, and throughput
penalties as a function of the migration period.  The records here carry all
three plus the per-epoch detail needed to plot time series.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..noc.topology import Coordinate


@dataclass
class ThermalMetrics:
    """Spatial temperature summary at one instant (or steady state)."""

    peak_celsius: float
    mean_celsius: float
    min_celsius: float
    per_unit_celsius: Dict[Coordinate, float] = field(default_factory=dict)

    @property
    def spread_celsius(self) -> float:
        """Peak-to-minimum spatial spread; migration's goal is to shrink this."""
        return self.peak_celsius - self.min_celsius

    @property
    def spatial_std_celsius(self) -> float:
        """Standard deviation of unit temperatures (thermal uniformity)."""
        if not self.per_unit_celsius:
            return 0.0
        return float(np.std(list(self.per_unit_celsius.values())))

    @classmethod
    def from_map(cls, per_unit_celsius: Dict[Coordinate, float]) -> "ThermalMetrics":
        values = list(per_unit_celsius.values())
        return cls(
            peak_celsius=max(values),
            mean_celsius=float(np.mean(values)),
            min_celsius=min(values),
            per_unit_celsius=dict(per_unit_celsius),
        )

    @classmethod
    def from_vector(cls, topology, per_unit_celsius: np.ndarray) -> "ThermalMetrics":
        """Metrics from one row of a batched temperature array.

        The vector follows the topology's row-major coordinate index;
        ``per_unit_celsius`` gets the same keys and values :meth:`from_map`
        would hold.
        """
        values = np.array(per_unit_celsius, dtype=float)
        if values.shape != (topology.num_nodes,):
            raise ValueError(
                f"expected {topology.num_nodes} unit temperatures, got shape {values.shape}"
            )
        return cls(
            peak_celsius=float(values.max()),
            mean_celsius=float(values.mean()),
            min_celsius=float(values.min()),
            per_unit_celsius=dict(zip(topology.coordinates(), values.tolist())),
        )


@dataclass
class PerformanceMetrics:
    """Throughput accounting over a simulated interval."""

    total_cycles: int
    migration_cycles: int
    migrations_performed: int

    def __post_init__(self) -> None:
        if self.total_cycles < 0 or self.migration_cycles < 0:
            raise ValueError("cycle counts cannot be negative")
        if self.migration_cycles > self.total_cycles:
            raise ValueError("migration cycles cannot exceed total cycles")

    @property
    def useful_cycles(self) -> int:
        return self.total_cycles - self.migration_cycles

    @property
    def throughput_penalty(self) -> float:
        """Fraction of cycles lost to migration (the paper's 1.6 % / 0.4 % / 0.2 %)."""
        if self.total_cycles == 0:
            return 0.0
        return self.migration_cycles / self.total_cycles

    @property
    def throughput_fraction(self) -> float:
        """Fraction of nominal throughput retained."""
        return 1.0 - self.throughput_penalty


@dataclass
class EpochRecord:
    """One migration period of an experiment."""

    epoch_index: int
    transform_applied: Optional[str]
    migration_cycles: int
    migration_energy_j: float
    thermal: ThermalMetrics
    power_map: Dict[Coordinate, float] = field(default_factory=dict)

    @property
    def migrated(self) -> bool:
        return self.transform_applied is not None


class EpochColumns(Sequence):
    """A run's per-epoch columns, read as a sequence of :class:`EpochRecord`.

    ``power`` and ``celsius`` are ``(num_epochs, num_units)`` rows in the
    topology's row-major coordinate order (the emitted power and each
    epoch's per-unit Celsius: the steady solution, or the transient's final
    instant); ``transforms``, ``cycles`` and ``energy`` hold each epoch's
    executed migration stage (None, 0 and 0.0 when none ran).  ``len``
    costs nothing; a record is built on the first read of its index, through
    :meth:`ThermalMetrics.from_vector`, and kept.
    """

    def __init__(
        self,
        topology,
        power: np.ndarray,
        celsius: np.ndarray,
        transforms: List[Optional[str]],
        cycles: np.ndarray,
        energy: np.ndarray,
        first_epoch: int = 0,
    ):
        self.topology = topology
        self.power = power
        self.celsius = celsius
        self.transforms = transforms
        self.cycles = cycles
        self.energy = energy
        self.first_epoch = first_epoch
        self._records: List[Optional[EpochRecord]] = [None] * len(transforms)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(len(self))[index]]
        position = range(len(self))[index]
        record = self._records[position]
        if record is None:
            record = self._records[position] = EpochRecord(
                epoch_index=self.first_epoch + position,
                transform_applied=self.transforms[position],
                migration_cycles=int(self.cycles[position]),
                migration_energy_j=float(self.energy[position]),
                thermal=ThermalMetrics.from_vector(
                    self.topology, self.celsius[position]
                ),
                power_map=dict(
                    zip(self.topology.coordinates(), self.power[position].tolist())
                ),
            )
        return record

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]


@dataclass
class ExperimentResult:
    """Complete outcome of one (configuration, policy) experiment."""

    configuration_name: str
    scheme_name: str
    period_us: float
    baseline_peak_celsius: float
    baseline_mean_celsius: float
    epochs: EpochColumns
    performance: PerformanceMetrics
    total_migration_energy_j: float
    settled_peak_celsius: float
    settled_mean_celsius: float

    # ------------------------------------------------------------------
    @property
    def peak_reduction_celsius(self) -> float:
        """Figure 1's quantity: baseline peak minus peak with migration.

        Positive means migration lowered the hotspot; the paper reports up to
        ~8 °C for the best schemes and a slightly negative value for rotation
        on configuration E.
        """
        return self.baseline_peak_celsius - self.settled_peak_celsius

    @property
    def mean_increase_celsius(self) -> float:
        """Average-temperature change caused by migration energy."""
        return self.settled_mean_celsius - self.baseline_mean_celsius

    @property
    def throughput_penalty(self) -> float:
        return self.performance.throughput_penalty

    @property
    def migrations_performed(self) -> int:
        return self.performance.migrations_performed

    def peak_series(self) -> np.ndarray:
        """Per-epoch peak temperatures (for convergence plots): each record's
        ``thermal.peak_celsius``, read from the Celsius column."""
        return self.epochs.celsius.max(axis=1)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary for CSV/report output."""
        return {
            "configuration": self.configuration_name,
            "scheme": self.scheme_name,
            "period_us": self.period_us,
            "baseline_peak_c": round(self.baseline_peak_celsius, 3),
            "settled_peak_c": round(self.settled_peak_celsius, 3),
            "peak_reduction_c": round(self.peak_reduction_celsius, 3),
            "mean_increase_c": round(self.mean_increase_celsius, 3),
            "throughput_penalty": round(self.throughput_penalty, 5),
            "migrations": self.migrations_performed,
            "migration_energy_j": self.total_migration_energy_j,
        }
