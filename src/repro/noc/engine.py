"""Cycle / wall-clock conversion for the NoC.

The NoC advances in lockstep cycles, but the paper specifies its migration
periods (109/437.2/874.4 microseconds) in wall-clock time.
:class:`SimulationClock` converts between the two at a given clock frequency;
each chip configuration carries one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimulationClock:
    """Conversion between simulation cycles and seconds.

    Parameters
    ----------
    frequency_hz:
        Clock frequency of the NoC.  The paper's 160 nm LDPC decoder chips
        are in the few-hundred-MHz range; the default of 500 MHz gives the
        109 us migration period a concrete cycle count (54 500 cycles).
    """

    frequency_hz: float = 500e6

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")

    @property
    def cycle_time_s(self) -> float:
        """Duration of one cycle in seconds."""
        return 1.0 / self.frequency_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def seconds_to_cycles(self, seconds: float) -> int:
        """Convert a duration to a whole number of cycles (rounded)."""
        return int(round(seconds * self.frequency_hz))

    def microseconds_to_cycles(self, microseconds: float) -> int:
        return self.seconds_to_cycles(microseconds * 1e-6)

    def cycles_to_microseconds(self, cycles: float) -> float:
        return self.cycles_to_seconds(cycles) * 1e6
