"""Conventional dynamic thermal management (DTM) baselines.

The paper's introduction contrasts runtime reconfiguration against the
thermal solutions "employed in current commercial processors such as dynamic
clock disabling and dynamic frequency scaling [which] stop or shut down the
entire chip for brief periods of time".  These baselines trade *global*
throughput for temperature, whereas migration only moves the heat around.

This module implements the two classical chip-wide mechanisms so the
comparison can be made quantitatively:

* :class:`StopGoThrottling` — duty-cycle the whole chip (clock gating): for a
  fraction ``d`` of the time the chip runs at full power, for ``1 - d`` it
  only leaks.  Throughput scales with ``d``.
* :class:`DvfsThrottling` — scale frequency (and optionally voltage) of the
  whole chip.  Dynamic power scales as ``f * V^2`` while throughput scales
  with ``f``.

Both expose the same question the migration experiments answer: *what does it
cost, in throughput, to bring the peak temperature down by X degrees?*
:func:`repro.analysis.report.compare_with_migration` puts the three
techniques side by side on a chip configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..chips.configurations import ChipConfiguration
from ..noc.topology import Coordinate
from ..power.trace import map_to_vector


@dataclass
class DtmOperatingPoint:
    """One throttling level of a chip-wide DTM mechanism."""

    label: str
    throughput_fraction: float
    peak_celsius: float
    mean_celsius: float

    @property
    def throughput_penalty(self) -> float:
        return 1.0 - self.throughput_fraction


class StopGoThrottling:
    """Global stop-go (clock-gating) thermal management.

    At duty cycle ``d`` the chip alternates between running at full power and
    being clock-gated (leakage only).  Because the gating period of real DTM
    (microseconds to milliseconds) is far below the package time constants,
    the die effectively sees the time-averaged power
    ``d * P_active + (1 - d) * P_idle``.
    """

    name = "stop-go"

    def __init__(self, configuration: ChipConfiguration, idle_fraction_of_power: float = 0.08):
        if not 0.0 <= idle_fraction_of_power < 1.0:
            raise ValueError("idle power fraction must be in [0, 1)")
        self.configuration = configuration
        self.idle_fraction_of_power = idle_fraction_of_power

    def power_map(self, duty_cycle: float) -> Dict[Coordinate, float]:
        """Effective per-unit power at a given duty cycle."""
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in (0, 1]")
        base = self.configuration.power_map()
        idle = self.idle_fraction_of_power
        return {
            coord: watts * (duty_cycle + (1.0 - duty_cycle) * idle)
            for coord, watts in base.items()
        }

    def operating_point(self, duty_cycle: float) -> DtmOperatingPoint:
        temps = self.configuration.thermal_model.steady_state_by_coord(
            self.power_map(duty_cycle)
        )
        values = list(temps.values())
        return DtmOperatingPoint(
            label=f"{self.name} d={duty_cycle:.2f}",
            throughput_fraction=duty_cycle,
            peak_celsius=max(values),
            mean_celsius=float(np.mean(values)),
        )

    def duty_cycle_for_peak(self, target_peak_celsius: float) -> float:
        """Smallest throughput loss that keeps the peak below the target.

        The effective power (and hence the temperature rise) is affine in the
        duty cycle, so the answer is a closed-form interpolation between the
        full and gated operating points — evaluated with one batched steady
        solve — clamped to (0, 1].
        """
        base = map_to_vector(
            self.configuration.topology, self.configuration.power_map()
        )
        idle_fraction = self.idle_fraction_of_power
        scales = np.array(
            [d + (1.0 - d) * idle_fraction for d in (1.0, 1e-6)]
        )
        peaks = (
            self.configuration.thermal_model.steady_temperatures(
                scales[:, np.newaxis] * base[np.newaxis, :]
            ).max(axis=1)
        )
        full, idle = float(peaks[0]), float(peaks[1])
        if target_peak_celsius >= full:
            return 1.0
        if target_peak_celsius <= idle:
            raise ValueError(
                f"target {target_peak_celsius:.2f} C is below the idle-chip peak "
                f"{idle:.2f} C; no duty cycle can reach it"
            )
        # Linear interpolation between the idle and full operating points.
        fraction = (target_peak_celsius - idle) / (full - idle)
        return float(np.clip(fraction, 1e-6, 1.0))


class DvfsThrottling:
    """Global dynamic voltage/frequency scaling.

    Frequency scaling alone multiplies dynamic power (and throughput) by the
    frequency ratio; coupled voltage scaling (``scale_voltage=True``) follows
    the classical linear V-f relation so dynamic power shrinks roughly with
    the cube of the ratio while throughput still shrinks linearly.
    """

    name = "dvfs"

    def __init__(
        self,
        configuration: ChipConfiguration,
        leakage_fraction_of_power: float = 0.08,
        scale_voltage: bool = True,
        min_voltage_ratio: float = 0.6,
    ):
        if not 0.0 <= leakage_fraction_of_power < 1.0:
            raise ValueError("leakage fraction must be in [0, 1)")
        if not 0.0 < min_voltage_ratio <= 1.0:
            raise ValueError("minimum voltage ratio must be in (0, 1]")
        self.configuration = configuration
        self.leakage_fraction_of_power = leakage_fraction_of_power
        self.scale_voltage = scale_voltage
        self.min_voltage_ratio = min_voltage_ratio

    def _power_scale(self, frequency_ratio: float) -> float:
        """Dynamic-power multiplier at a given frequency ratio."""
        if self.scale_voltage:
            voltage_ratio = max(frequency_ratio, self.min_voltage_ratio)
            return frequency_ratio * voltage_ratio**2
        return frequency_ratio

    def power_map(self, frequency_ratio: float) -> Dict[Coordinate, float]:
        if not 0.0 < frequency_ratio <= 1.0:
            raise ValueError("frequency ratio must be in (0, 1]")
        base = self.configuration.power_map()
        leak = self.leakage_fraction_of_power
        dynamic_scale = self._power_scale(frequency_ratio)
        return {
            coord: watts * (leak + (1.0 - leak) * dynamic_scale)
            for coord, watts in base.items()
        }

    def operating_point(self, frequency_ratio: float) -> DtmOperatingPoint:
        temps = self.configuration.thermal_model.steady_state_by_coord(
            self.power_map(frequency_ratio)
        )
        values = list(temps.values())
        return DtmOperatingPoint(
            label=f"{self.name} f={frequency_ratio:.2f}",
            throughput_fraction=frequency_ratio,
            peak_celsius=max(values),
            mean_celsius=float(np.mean(values)),
        )

    def frequency_for_peak(
        self, target_peak_celsius: float, resolution: float = 0.01
    ) -> float:
        """Highest frequency ratio whose steady peak stays below the target.

        All candidate ratios share the same spatial power shape (the scaling
        is global), so the whole search grid is one batched multi-RHS steady
        solve instead of a solve per candidate.
        """
        if resolution <= 0 or resolution >= 1:
            raise ValueError("resolution must be in (0, 1)")
        ratios: List[float] = []
        ratio = 1.0
        while ratio > resolution:
            ratios.append(ratio)
            ratio -= resolution
        base = map_to_vector(
            self.configuration.topology, self.configuration.power_map()
        )
        leak = self.leakage_fraction_of_power
        scales = np.array(
            [leak + (1.0 - leak) * self._power_scale(r) for r in ratios]
        )
        peaks = (
            self.configuration.thermal_model.steady_temperatures(
                scales[:, np.newaxis] * base[np.newaxis, :]
            ).max(axis=1)
        )
        for candidate, peak in zip(ratios, peaks):
            if peak <= target_peak_celsius:
                return candidate
        raise ValueError(
            f"even the slowest operating point cannot reach {target_peak_celsius:.2f} C"
        )
