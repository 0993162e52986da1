"""Metrics recorded by the runtime-reconfiguration experiments.

The paper reports three kinds of numbers: peak-temperature reductions
(Figure 1), average-temperature effects of migration energy, and throughput
penalties as a function of the migration period.  The records here carry all
three plus the per-epoch detail needed to plot time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..noc.topology import Coordinate


def _row_view(topology, row: np.ndarray) -> Dict[Coordinate, float]:
    """Per-coordinate dict of a row-major vector (the report-edge view)."""
    return dict(zip(topology.coordinates(), row.tolist()))


class _Record:
    """Dataclass-style ``==`` and ``repr`` over the names in ``_FIELDS``.

    The two record types below are plain classes rather than dataclasses so
    one of their fields can be a dict view built on first read.
    """

    _FIELDS: Tuple[str, ...] = ()

    def _values(self) -> Tuple[object, ...]:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values())
        )
        return f"{type(self).__name__}({body})"


class ThermalMetrics(_Record):
    """Spatial temperature summary at one instant (or steady state).

    Metrics built by :meth:`from_vector` (the batched pipeline) keep a
    private copy of the temperature row and build the ``per_unit_celsius``
    dict only when something reads it; the summary scalars never need it.
    """

    _FIELDS = ("peak_celsius", "mean_celsius", "min_celsius", "per_unit_celsius")

    def __init__(
        self,
        peak_celsius: float,
        mean_celsius: float,
        min_celsius: float,
        per_unit_celsius: Optional[Dict[Coordinate, float]] = None,
    ):
        self.peak_celsius = peak_celsius
        self.mean_celsius = mean_celsius
        self.min_celsius = min_celsius
        self._per_unit: Optional[Dict[Coordinate, float]] = (
            {} if per_unit_celsius is None else per_unit_celsius
        )
        self._topology = None
        self._row: Optional[np.ndarray] = None

    @property
    def per_unit_celsius(self) -> Dict[Coordinate, float]:
        if self._per_unit is None:
            self._per_unit = _row_view(self._topology, self._row)
        return self._per_unit

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

        The vector follows the topology's row-major coordinate index.  The
        metrics keep a private copy of it; ``per_unit_celsius`` is built from
        that copy on first read, with the same keys and values
        :meth:`from_map` would hold.
        """
        values = np.array(per_unit_celsius, dtype=float)
        if values.shape != (topology.num_nodes,):
            raise ValueError(
                f"expected {topology.num_nodes} unit temperatures, got shape {values.shape}"
            )
        metrics = cls(
            peak_celsius=float(values.max()),
            mean_celsius=float(values.mean()),
            min_celsius=float(values.min()),
        )
        metrics._per_unit = None
        metrics._topology = topology
        metrics._row = values
        return metrics


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


class EpochRecord(_Record):
    """One migration period of an experiment.

    Like :class:`ThermalMetrics`, a record built from a power row
    (:meth:`from_power_row`, the experiment driver's path) keeps a private
    copy of the row and builds the ``power_map`` dict on first read.
    """

    _FIELDS = (
        "epoch_index",
        "transform_applied",
        "migration_cycles",
        "migration_energy_j",
        "thermal",
        "power_map",
    )

    def __init__(
        self,
        epoch_index: int,
        transform_applied: Optional[str],
        migration_cycles: int,
        migration_energy_j: float,
        thermal: ThermalMetrics,
        power_map: Optional[Dict[Coordinate, float]] = None,
    ):
        self.epoch_index = epoch_index
        self.transform_applied = transform_applied
        self.migration_cycles = migration_cycles
        self.migration_energy_j = migration_energy_j
        self.thermal = thermal
        self._power_map: Optional[Dict[Coordinate, float]] = (
            {} if power_map is None else power_map
        )
        self._topology = None
        self._power_row: Optional[np.ndarray] = None

    @classmethod
    def from_power_row(
        cls, topology, power_row: np.ndarray, **fields: object
    ) -> "EpochRecord":
        """A record whose ``power_map`` is a lazy view of ``power_row``."""
        record = cls(**fields)  # type: ignore[arg-type]
        record._power_map = None
        record._topology = topology
        record._power_row = np.array(power_row, dtype=float)
        return record

    @property
    def power_map(self) -> Dict[Coordinate, float]:
        if self._power_map is None:
            self._power_map = _row_view(self._topology, self._power_row)
        return self._power_map

    @property
    def migrated(self) -> bool:
        return self.transform_applied is not None


@dataclass
class ExperimentResult:
    """Complete outcome of one (configuration, policy) experiment."""

    configuration_name: str
    scheme_name: str
    period_us: float
    baseline_peak_celsius: float
    baseline_mean_celsius: float
    epochs: List[EpochRecord]
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
        """Per-epoch peak temperatures (for convergence plots)."""
        return np.array([epoch.thermal.peak_celsius for epoch in self.epochs])

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
