"""Power traces: epochs x units power arrays with a coordinate index.

The experiment driver produces one per-unit power sample per migration epoch
and the thermal solvers consume the whole piecewise-constant trace at once
(multi-RHS steady solves, sequenced transients).  :class:`PowerTrace` is the
array-native contract between those layers: internally it stores a
``(num_samples, num_units)`` float array plus a parallel duration vector,
indexed by the topology's row-major coordinate order, while dict views
(:meth:`PowerTrace.power_map`, :class:`PowerSample`) remain available at the
edges for policies, reports and hand-written tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..noc.topology import Coordinate, MeshTopology


# ----------------------------------------------------------------------
# Coordinate-indexed vector <-> dict conversion (the "edges" of the
# array-native pipeline: everything inside works on vectors, everything
# user-facing can still ask for dicts).
# ----------------------------------------------------------------------
def map_to_vector(topology: MeshTopology, values: Dict[Coordinate, float]) -> np.ndarray:
    """Row-major vector over the mesh from a per-coordinate dict.

    Missing coordinates become zero; coordinates outside the mesh raise.
    """
    vector = np.zeros(topology.num_nodes)
    for coord, value in values.items():
        vector[topology.node_id(coord)] = value
    return vector


def vector_to_map(topology: MeshTopology, vector: np.ndarray) -> Dict[Coordinate, float]:
    """Per-coordinate dict view of a row-major vector over the mesh."""
    vector = np.asarray(vector)
    if vector.shape != (topology.num_nodes,):
        raise ValueError(
            f"expected a vector of {topology.num_nodes} values, got shape {vector.shape}"
        )
    return {coord: float(vector[idx]) for idx, coord in enumerate(topology.coordinates())}


@dataclass
class PowerSample:
    """Average per-unit power over one interval (dict view of one trace row)."""

    duration_s: float
    power_w: Dict[Coordinate, float]

    def __post_init__(self) -> None:
        # NaN fails every ordering comparison, so `<= 0` / `< 0` gates alone
        # would wave non-finite values straight into the solver; check
        # finiteness explicitly.
        if not np.isfinite(self.duration_s) or self.duration_s <= 0:
            raise ValueError("sample duration must be positive and finite")
        for coord, power in self.power_w.items():
            if not np.isfinite(power) or power < 0:
                raise ValueError(f"non-finite or negative power {power} at {coord}")

    @property
    def total_power_w(self) -> float:
        return sum(self.power_w.values())

    @property
    def peak_power_w(self) -> float:
        return max(self.power_w.values()) if self.power_w else 0.0

    @property
    def energy_j(self) -> float:
        return self.total_power_w * self.duration_s

    def as_vector(self, topology: MeshTopology) -> np.ndarray:
        """Row-major power vector over the mesh (zeros for missing units)."""
        return map_to_vector(topology, self.power_w)


class PowerTrace:
    """A time-ordered sequence of per-unit power samples, stored as arrays.

    The backing store is a ``(num_samples, num_units)`` float array (row-major
    coordinate index, i.e. column ``topology.node_id(coord)`` carries
    ``coord``'s power) and a duration vector.  Rows can be appended
    incrementally (amortised doubling) or supplied wholesale via
    :meth:`from_arrays`; every aggregate (energies, averages, settled-regime
    means) is a vectorised array reduction.
    """

    def __init__(self, topology: MeshTopology, samples: Optional[List[PowerSample]] = None):
        self.topology = topology
        self._num_units = topology.num_nodes
        self._capacity = 8
        self._durations = np.zeros(self._capacity)
        self._powers = np.zeros((self._capacity, self._num_units))
        self._length = 0
        self._grows = 0
        for sample in samples or ():
            self.append(sample)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        topology: MeshTopology,
        durations_s: np.ndarray,
        power_w: np.ndarray,
    ) -> "PowerTrace":
        """Build a trace directly from a duration vector and a power matrix."""
        durations = np.asarray(durations_s, dtype=float)
        powers = np.asarray(power_w, dtype=float)
        if durations.ndim != 1:
            raise ValueError("durations must be a 1-D array")
        if powers.shape != (durations.size, topology.num_nodes):
            raise ValueError(
                f"power matrix must be (num_samples, {topology.num_nodes}), "
                f"got shape {powers.shape}"
            )
        # np.isfinite first: NaN durations/powers pass min()-based gates
        # (NaN comparisons are always False) and would silently poison the
        # batched solves downstream.
        if durations.size and (
            not np.all(np.isfinite(durations)) or durations.min() <= 0
        ):
            raise ValueError("sample durations must be positive and finite")
        if powers.size and (not np.all(np.isfinite(powers)) or powers.min() < 0):
            raise ValueError("non-finite or negative power in trace")
        trace = cls(topology)
        trace._capacity = max(durations.size, 1)
        trace._durations = durations.copy() if durations.size else np.zeros(1)
        trace._powers = (
            powers.copy() if durations.size else np.zeros((1, topology.num_nodes))
        )
        trace._length = durations.size
        return trace

    def _grow_to(self, capacity: int) -> None:
        new_capacity = max(capacity, 2 * self._capacity)
        durations = np.zeros(new_capacity)
        powers = np.zeros((new_capacity, self._num_units))
        durations[: self._length] = self._durations[: self._length]
        powers[: self._length] = self._powers[: self._length]
        self._capacity = new_capacity
        self._durations = durations
        self._powers = powers
        self._grows += 1

    @property
    def growth_count(self) -> int:
        """Number of backing-store reallocations so far.

        Capacity doubles on reallocation, so appending ``n`` rows one at a
        time costs ``O(log n)`` grows — the amortisation guard the streaming
        tests pin (a quadratic-recopy builder would grow once per row).
        """
        return self._grows

    def append(self, sample: PowerSample) -> None:
        """Append one dict-view sample (validated by :class:`PowerSample`)."""
        self.add_interval(sample.duration_s, sample.power_w)

    def add_interval(self, duration_s: float, power_w) -> None:
        """Append one interval; ``power_w`` may be a dict or a row vector."""
        if isinstance(power_w, dict):
            # PowerSample performs the duration/negativity validation.
            sample = PowerSample(duration_s=duration_s, power_w=dict(power_w))
            vector = sample.as_vector(self.topology)
        else:
            vector = np.asarray(power_w, dtype=float)
            if vector.shape != (self._num_units,):
                raise ValueError(
                    f"expected a power vector of {self._num_units} units, "
                    f"got shape {vector.shape}"
                )
            if not np.isfinite(duration_s) or duration_s <= 0:
                raise ValueError("sample duration must be positive and finite")
            if vector.size and (
                not np.all(np.isfinite(vector)) or vector.min() < 0
            ):
                raise ValueError("non-finite or negative power in sample")
        if self._length == self._capacity:
            self._grow_to(self._length + 1)
        self._durations[self._length] = duration_s
        self._powers[self._length] = vector
        self._length += 1

    def extend(self, durations_s: np.ndarray, power_w: np.ndarray) -> None:
        """Append many intervals at once (one validation pass, one copy).

        The bulk counterpart of :meth:`add_interval` — the streaming engine
        assembles each epoch window with a single ``extend`` so per-window
        trace construction stays amortised ``O(rows)`` rather than paying a
        Python-level append per epoch.
        """
        durations = np.asarray(durations_s, dtype=float)
        powers = np.asarray(power_w, dtype=float)
        if durations.ndim != 1:
            raise ValueError("durations must be a 1-D array")
        if powers.shape != (durations.size, self._num_units):
            raise ValueError(
                f"power matrix must be (num_samples, {self._num_units}), "
                f"got shape {powers.shape}"
            )
        if durations.size == 0:
            return
        if not np.all(np.isfinite(durations)) or durations.min() <= 0:
            raise ValueError("sample durations must be positive and finite")
        if not np.all(np.isfinite(powers)) or powers.min() < 0:
            raise ValueError("non-finite or negative power in trace")
        needed = self._length + durations.size
        if needed > self._capacity:
            self._grow_to(needed)
        self._durations[self._length : needed] = durations
        self._powers[self._length : needed] = powers
        self._length = needed

    def window(self, start: int, stop: int) -> "PowerTrace":
        """Zero-copy trace over rows ``[start, stop)`` of this trace.

        The returned trace shares this trace's backing arrays (appending to
        the view reallocates it first, so the parent is never corrupted);
        extracting successive windows of a long trace therefore costs
        ``O(window)`` each instead of the ``O(E)`` copy of
        :meth:`from_arrays`.
        """
        if not 0 <= start < stop <= self._length:
            raise ValueError(
                f"window [{start}, {stop}) out of range for {self._length} samples"
            )
        view = PowerTrace(self.topology)
        view._capacity = stop - start
        view._durations = self._durations[start:stop]
        view._powers = self._powers[start:stop]
        view._length = stop - start
        return view

    # ------------------------------------------------------------------
    # Array views (the native representation)
    # ------------------------------------------------------------------
    @property
    def durations(self) -> np.ndarray:
        """Per-sample durations in seconds (read-only view)."""
        view = self._durations[: self._length]
        view.flags.writeable = False
        return view

    @property
    def powers(self) -> np.ndarray:
        """``(num_samples, num_units)`` power matrix (read-only view)."""
        view = self._powers[: self._length]
        view.flags.writeable = False
        return view

    def as_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """(durations, powers) array copies; powers has one row per sample."""
        return self.durations.copy(), self.powers.copy()

    def average_vector(self) -> np.ndarray:
        """Time-weighted average power per unit as a row-major vector."""
        if self._length == 0:
            return np.zeros(self._num_units)
        durations = self.durations
        return durations @ self.powers / durations.sum()

    def scaled(self, factors: np.ndarray) -> "PowerTrace":
        """New trace with every row multiplied by per-sample factors.

        ``factors`` is ``(num_samples,)`` (chip-wide per-sample multiplier)
        or ``(num_samples, num_units)`` (per-unit modulation).  This is the
        whole-trace equivalent of the experiment driver's in-loop
        ``power_modulation`` (the driver scales rows as the controller emits
        them so feedback policies see the modulated chip; the scenario tests
        pin the two transforms equal on feedback-free policies).  Durations
        are unchanged; the scaled powers are re-validated, so a negative
        modulation fails loudly.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.ndim == 1:
            factors = factors[:, np.newaxis]
        if factors.ndim != 2 or factors.shape[0] != self._length:
            raise ValueError(
                f"expected factors for {self._length} samples, got shape {factors.shape}"
            )
        return PowerTrace.from_arrays(
            self.topology, self.durations, self.powers * factors
        )

    # ------------------------------------------------------------------
    # Dict views (the edges)
    # ------------------------------------------------------------------
    def power_map(self, index: int) -> Dict[Coordinate, float]:
        """Dict view of one sample's per-unit power."""
        return vector_to_map(self.topology, self.powers[index])

    def sample(self, index: int) -> PowerSample:
        """Dict-view :class:`PowerSample` of one trace row."""
        return PowerSample(
            duration_s=float(self.durations[index]), power_w=self.power_map(index)
        )

    @property
    def samples(self) -> Tuple[PowerSample, ...]:
        """All samples as dict views.

        A tuple of freshly-built views: mutating it (the old dataclass's
        ``samples.append``) fails loudly instead of silently not updating
        the trace — append through :meth:`append`/:meth:`add_interval`.
        """
        return tuple(self.sample(index) for index in range(self._length))

    def intervals(self) -> List[Tuple[float, Dict[Coordinate, float]]]:
        """(duration, per-unit power dict) pairs: the trace's dict edge view."""
        return [
            (float(self.durations[index]), self.power_map(index))
            for index in range(self._length)
        ]

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[PowerSample]:
        return iter(self.samples)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_duration_s(self) -> float:
        return float(self.durations.sum())

    @property
    def total_energy_j(self) -> float:
        return float(self.durations @ self.powers.sum(axis=1))

    @property
    def average_power_w(self) -> float:
        duration = self.total_duration_s
        if duration == 0:
            return 0.0
        return self.total_energy_j / duration

    def average_power_per_unit(self) -> Dict[Coordinate, float]:
        """Time-weighted average power of every unit over the whole trace."""
        return vector_to_map(self.topology, self.average_vector())

    def peak_unit_power(self) -> float:
        """Largest instantaneous per-unit power anywhere in the trace."""
        if self._length == 0:
            return 0.0
        return float(self.powers.max())
