"""The per-epoch control loop the chunk loop replaced, kept as an oracle.

:class:`PerEpochExperiment` is a :class:`ThermalExperiment` that emits power
one epoch at a time: one scatter of the per-task watts per epoch, the
feedback plan fed row by row, the window's rows collected into one
``PowerTrace`` and the steady settled ring filled with every row.
:meth:`PerEpochExperiment.records` builds one :class:`EpochRecord` per
stepped epoch from the window's trace, events and Celsius rows, without the
runtime's record columns.  Everything else (the thermal evaluation, the
checkpoint state) is the runtime's, so the chunk loop must match it to the
bit: trace rows, events, Celsius rows, records and the encoded
``state_dict()`` after every window.

:func:`peak_series` is the per-record loop ``ExperimentResult.peak_series``
ran before it read the Celsius column.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.controller import MigrationEvent
from repro.core.experiment import _OBS_STALLED, ThermalExperiment
from repro.core.metrics import EpochRecord, ExperimentResult, ThermalMetrics
from repro.core.policy import PolicyContext
from repro.migration.plan import congestion_factor
from repro.power.trace import PowerTrace, vector_to_map


def eager_records(topology, trace, costs, celsius_rows, start_epoch) -> List[EpochRecord]:
    """One fully built record per epoch of a stepped window."""
    return [
        EpochRecord(
            epoch_index=start_epoch + index,
            transform_applied=event.transform_name if event else None,
            migration_cycles=event.cycles if event else 0,
            migration_energy_j=event.energy_j if event else 0.0,
            thermal=ThermalMetrics.from_vector(topology, celsius_rows[index]),
            power_map=vector_to_map(topology, trace.powers[index]),
        )
        for index, event in enumerate(costs)
    ]


def peak_series(result: ExperimentResult) -> np.ndarray:
    """Per-epoch peak temperatures, one record at a time."""
    return np.array([epoch.thermal.peak_celsius for epoch in result.epochs])


class PerEpochExperiment(ThermalExperiment):
    """A :class:`ThermalExperiment` running the per-epoch emission loop."""

    def prepare(self, *args, **kwargs) -> None:
        super().prepare(*args, **kwargs)
        self._stepped = []

    def records(self) -> List[EpochRecord]:
        """Every stepped epoch's record, built from its window's arrays."""
        topology = self.configuration.topology
        return [
            record
            for window in self._stepped
            for record in eager_records(topology, *window)
        ]

    def step_window(self, window, *, is_last=False):
        offsets = window.ambient_offsets
        start_epoch = self._next_epoch
        trace, costs = self._loop_window(window)
        if self.settings.mode == "steady":
            # The settled rings take every row, one at a time, and keep the
            # newest `capacity`.
            powers = trace.powers
            capacity = self._settled_capacity
            for index in range(len(trace)):
                offset = float(offsets[index]) if offsets is not None else 0.0
                self._power_ring = np.concatenate(
                    (self._power_ring, powers[index : index + 1])
                )[-capacity:]
                self._offset_ring = np.concatenate(
                    (self._offset_ring, [offset])
                )[-capacity:]
            outcome = self._step_steady(trace, costs, offsets, start_epoch, is_last)
        else:
            outcome = self._step_transient(trace, costs, offsets, start_epoch, is_last)
        if self._collect_records:
            self._column_windows.append((trace.powers, outcome.epoch_metrics, costs))
        self._stepped.append((trace, costs, outcome.epoch_metrics, start_epoch))
        return outcome

    def _loop_window(self, window):
        configuration = self.configuration
        controller = self.controller
        base_period_us = self.policy.period_us
        period_s = base_period_us * 1e-6
        topology = configuration.topology
        power_modulation = window.modulation_matrix(topology.num_nodes)
        period_scale = window.period_scale
        noc_rates = window.noc_rates
        plan = self.feedback_plan
        if plan is not None:
            plan.add_offsets(self._next_epoch, window.ambient_offsets)
        style = self.settings.migration_style
        units_per_epoch = self.settings.units_per_epoch
        staged = style != "sudden"

        periods: List[float] = []
        rows: List[np.ndarray] = []
        costs: List[Optional[MigrationEvent]] = []

        for local_index in range(window.num_epochs):
            epoch_index = self._next_epoch + local_index
            if period_scale is not None:
                period_us = base_period_us * float(period_scale[local_index])
                period_s = period_us * 1e-6
                self._cycles_run += configuration.block_period_cycles(period_us)
            else:
                self._cycles_run += self._period_cycles
            in_progress = controller.migration_in_progress
            context = PolicyContext(
                epoch_index,
                plan.thermal_for(epoch_index) if plan is not None else None,
                in_progress,
            )
            transform = self.policy.decide(context)
            wants = transform is not None and transform.name != "identity"
            cost: Optional[MigrationEvent] = None
            if in_progress or wants:
                congestion = 1.0
                if staged:
                    rate = (
                        float(noc_rates[local_index]) if noc_rates is not None else None
                    )
                    congestion = congestion_factor(self.noc_model, rate)
                if in_progress:
                    if wants:
                        _OBS_STALLED.add()
                    cost = controller.advance_plan(congestion)
                else:
                    cost = controller.apply_migration(
                        transform,
                        style=style,
                        units_per_epoch=units_per_epoch,
                        congestion=congestion,
                    )
            # The per-epoch power row, computed here rather than through the
            # controller's chunk scatter.
            power = np.empty(topology.num_nodes)
            power[controller.nodes] = controller._task_watts
            if cost is not None and controller.include_migration_energy:
                power += cost.energy_vector / period_s
            if power_modulation is not None:
                power = power * power_modulation[local_index]
            periods.append(period_s)
            rows.append(power)
            costs.append(cost)

            if plan is not None:
                plan.observe(epoch_index, power[np.newaxis, :])
        self._next_epoch += window.num_epochs
        return PowerTrace(topology, np.array(periods), np.array(rows)), costs
