"""Steady-state and transient solvers for the RC thermal network.

* :meth:`ThermalSolver.steady_state` solves ``A T = P + G_amb T_amb`` directly.
* :meth:`ThermalSolver.transient` integrates ``C dT/dt = P - A T + G_amb T_amb``
  with an unconditionally stable implicit-Euler scheme.  The step matrix
  ``C/dt + A`` is factorised once per *distinct* time step and cached on the
  solver, so piecewise-constant traces (:meth:`ThermalSolver.transient_sequence`)
  and long migration-period sweeps reuse a single factorisation.
* ``method="spectral"`` evaluates the *same* implicit-Euler recurrence in
  closed form through the generalized eigendecomposition of ``(A, C)`` and
  jumps directly to the sampled instants, replacing the per-step Python loop
  with two matrix multiplies per power interval.
* Time-varying ambient is exact, not quasi-static: the ambient forcing
  ``G_amb * T_amb(t)`` is affine in the RHS, so a per-interval offset
  ``dT_i`` simply turns each interval's constant RHS into
  ``P_i + G_amb * (T_amb + dT_i)``.  :meth:`ThermalSolver.transient_sequence`
  accepts the offsets as a ``(num_intervals,)`` array; in the spectral-jump
  path they only move the per-interval fixed points (already one multi-RHS
  solve) and the boundary-jump recurrence — zero extra solves.

Temperatures are handled internally in kelvin; the :class:`TemperatureMap`
results report degrees Celsius, matching the paper's figures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve

from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from .package import KELVIN_OFFSET
from .rc_model import ThermalNetwork

# Registry view of the solver counters: each increment of the per-solver
# attributes below also bumps the matching process-wide counter (a no-op
# while telemetry is disabled).  The attributes stay plain ints — they are
# the per-instance live views the tests pin against; the registry
# aggregates across every solver in the process.
_OBS_STEADY_SOLVES = _obs_counter("thermal.steady_solves")
_OBS_FACTORIZATIONS = _obs_counter("thermal.step_factorizations")
_OBS_TRANSIENTS = _obs_counter("thermal.transients")
_OBS_SEQUENCES = _obs_counter("thermal.transient_sequences")
_OBS_SPECTRAL_JUMPS = _obs_counter("thermal.spectral_jumps")

#: Transient integration methods accepted by the solver.
TRANSIENT_METHODS = ("euler", "spectral")

#: Cap on cached step-matrix factorisations: traces with many distinct
#: (e.g. duration-derived) time steps must not grow the cache unboundedly.
MAX_CACHED_PROPAGATORS = 32


@dataclass
class TemperatureMap:
    """Per-block temperatures (Celsius) at one instant or steady state."""

    block_celsius: Dict[str, float]
    node_kelvin: np.ndarray

    @property
    def peak_celsius(self) -> float:
        return max(self.block_celsius.values())

    @property
    def min_celsius(self) -> float:
        return min(self.block_celsius.values())

    @property
    def mean_celsius(self) -> float:
        return float(np.mean(list(self.block_celsius.values())))

    @property
    def spread_celsius(self) -> float:
        """Peak-to-minimum spatial temperature spread."""
        return self.peak_celsius - self.min_celsius

    def hottest_block(self) -> str:
        return max(self.block_celsius, key=self.block_celsius.get)

    def as_dict(self) -> Dict[str, float]:
        return dict(self.block_celsius)


@dataclass
class TransientResult:
    """Temperature evolution over a simulated interval."""

    times_s: np.ndarray
    block_celsius: Dict[str, np.ndarray]
    final_state_kelvin: np.ndarray
    #: Sample-row ranges ``[start, stop)`` of each power interval, populated
    #: by :meth:`ThermalSolver.transient_sequence` so callers can reduce
    #: per-interval metrics straight from the concatenated arrays.
    interval_ranges: Optional[List[Tuple[int, int]]] = None

    @property
    def peak_celsius(self) -> float:
        """Hottest block temperature reached at any sampled instant."""
        return max(float(np.max(series)) for series in self.block_celsius.values())

    def peak_series(self) -> np.ndarray:
        """Per-instant maximum over blocks."""
        stacked = np.vstack(list(self.block_celsius.values()))
        return stacked.max(axis=0)

    def final_map(self) -> TemperatureMap:
        return TemperatureMap(
            block_celsius={
                name: float(series[-1]) for name, series in self.block_celsius.items()
            },
            node_kelvin=self.final_state_kelvin,
        )


@dataclass
class _StepPropagator:
    """Implicit-Euler operator ``(C/dt + A)`` factorised for one time step."""

    time_step_s: float
    c_over_dt: np.ndarray
    factor: Tuple[np.ndarray, np.ndarray]


class ThermalSolver:
    """Solves the RC network produced by :func:`build_thermal_network`.

    The LU factorisation of ``C/dt + A`` is kept per distinct time step
    (up to :data:`MAX_CACHED_PROPAGATORS`, evicted first-in first-out).
    """

    def __init__(self, network: ThermalNetwork):
        self.network = network
        self._A = network.system_matrix()
        self._A_factor = lu_factor(self._A)
        self._boundary = network.ambient_conductance * network.ambient_kelvin
        self._step_cache: Dict[float, _StepPropagator] = {}
        #: Number of step-matrix LU factorisations performed (regression
        #: guard: one per distinct time step while it stays cached).
        self.step_factorization_count = 0
        #: Number of solves against the steady-state factorisation.  A
        #: multi-RHS batch counts once, so a fully batched steady experiment
        #: shows exactly one solve (regression guard for the epoch pipeline).
        self.steady_solve_count = 0
        #: Number of *external* ``transient()`` calls (the per-epoch Python
        #: round-trip the array-native pipeline retires; intervals stepped
        #: inside ``transient_sequence`` do not count).
        self.transient_count = 0
        #: Number of ``transient_sequence()`` calls.
        self.transient_sequence_count = 0
        #: Number of sequences served by the vectorised spectral jump (one
        #: eigenbasis transform covering the whole trace; regression guard
        #: for the fast path staying engaged on shared-dt traces).
        self.spectral_jump_count = 0
        self._spectral_basis: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # A chip configuration, and so its solver, may be shared by callers
        # on several threads; guard the lazily-built caches.
        self._cache_lock = threading.Lock()
        self._thread_factors = threading.local()

    def __getstate__(self):
        # Locks and thread-local stores cannot be pickled (configurations,
        # which carry a solver, can be); recreate them on unpickling.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        del state["_thread_factors"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()
        self._thread_factors = threading.local()

    # ------------------------------------------------------------------
    def _private_factor(self, key, factor: Tuple[np.ndarray, np.ndarray]):
        """Per-thread private copy of an LU factorisation.

        LAPACK ``getrs`` via :func:`scipy.linalg.lu_solve` is not reentrant
        against *shared* ``(lu, piv)`` arrays on every BLAS build: two
        threads solving concurrently against the same factor memory can
        return corrupted temperatures, while solves against per-thread
        copies are exact.  Copies are cached per (thread, key) and refreshed
        whenever the underlying factor object changes (step-cache eviction
        rebuilds propagators).
        """
        store = getattr(self._thread_factors, "store", None)
        if store is None:
            store = self._thread_factors.store = {}
        entry = store.get(key)
        if entry is None or entry[0] is not factor:
            lu, piv = factor
            entry = (factor, (lu.copy(order="F"), piv.copy()))
            if len(store) > MAX_CACHED_PROPAGATORS:
                store.pop(next(iter(store)))
            store[key] = entry
        return entry[1]

    def _a_factor(self) -> Tuple[np.ndarray, np.ndarray]:
        """This thread's copy of the steady-state factorisation."""
        return self._private_factor("A", self._A_factor)

    # ------------------------------------------------------------------
    def _step_propagator(self, time_step_s: float) -> _StepPropagator:
        with self._cache_lock:
            cached = self._step_cache.get(time_step_s)
            if cached is not None:
                return cached
            c_over_dt = self.network.capacitance / time_step_s
            factor = lu_factor(np.diag(c_over_dt) + self._A)
            self.step_factorization_count += 1
            _OBS_FACTORIZATIONS.add()
            propagator = _StepPropagator(time_step_s, c_over_dt, factor)
            if len(self._step_cache) >= MAX_CACHED_PROPAGATORS:
                # FIFO eviction (dict preserves insertion order).
                self._step_cache.pop(next(iter(self._step_cache)))
            self._step_cache[time_step_s] = propagator
            return propagator

    def _spectral(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal eigenbasis of ``C^{-1/2} A C^{-1/2}`` (computed once).

        ``A`` is symmetric positive definite and ``C`` diagonal positive, so
        the symmetrized pencil has real non-negative eigenvalues; in this
        basis one implicit-Euler step multiplies each mode by
        ``1 / (1 + dt * lambda)``.
        """
        with self._cache_lock:
            if self._spectral_basis is None:
                c_sqrt = np.sqrt(self.network.capacitance)
                symmetric = self._A / np.outer(c_sqrt, c_sqrt)
                eigenvalues, eigenvectors = eigh(symmetric)
                self._spectral_basis = (c_sqrt, eigenvalues, eigenvectors)
            return self._spectral_basis

    def _spectral_samples(
        self,
        state: np.ndarray,
        rhs_const: np.ndarray,
        time_step_s: float,
        step_counts: np.ndarray,
    ) -> np.ndarray:
        """Implicit-Euler iterates ``T_k`` for the given step counts, directly.

        The k-th iterate of ``(C/dt + A) T_{k+1} = C/dt T_k + P`` is
        ``T_k = T* + C^{-1/2} U diag(mu^k) U^T C^{1/2} (T_0 - T*)`` with
        ``mu = 1 / (1 + dt * lambda)`` and ``T*`` the steady state, so all
        sampled instants come out of one pair of matrix multiplies.
        """
        c_sqrt, eigenvalues, eigenvectors = self._spectral()
        fixed_point = lu_solve(self._a_factor(), rhs_const)
        weights = eigenvectors.T @ (c_sqrt * (state - fixed_point))
        decay = 1.0 / (1.0 + time_step_s * eigenvalues)
        powers = decay[np.newaxis, :] ** step_counts[:, np.newaxis]
        deviations = (powers * weights[np.newaxis, :]) @ eigenvectors.T
        return fixed_point[np.newaxis, :] + deviations / c_sqrt[np.newaxis, :]

    def _ambient_offsets_of(
        self, ambient_offsets_kelvin, num_intervals: int
    ) -> Optional[np.ndarray]:
        """Validated ``(num_intervals,)`` ambient-offset array (or None)."""
        if ambient_offsets_kelvin is None:
            return None
        offsets = np.asarray(ambient_offsets_kelvin, dtype=float)
        if offsets.shape != (num_intervals,):
            raise ValueError(
                f"ambient_offsets_kelvin must have {num_intervals} entries, "
                f"got shape {offsets.shape}"
            )
        if not np.all(np.isfinite(offsets)):
            raise ValueError("ambient offsets must be finite")
        return offsets

    # ------------------------------------------------------------------
    def _power_vector_of(self, block_power_w) -> np.ndarray:
        """Node-space power vector from a per-block dict or a node vector."""
        if isinstance(block_power_w, dict):
            return self.network.power_vector(block_power_w)
        power = np.asarray(block_power_w, dtype=float)
        if power.shape != (self.network.num_nodes,):
            raise ValueError(
                f"expected a node power vector of {self.network.num_nodes} entries, "
                f"got shape {power.shape}"
            )
        if power.size and power.min() < 0:
            raise ValueError("negative power in node vector")
        return power

    # ------------------------------------------------------------------
    def steady_state(self, block_power_w) -> TemperatureMap:
        """Steady-state temperatures for a constant power assignment.

        ``block_power_w`` is a per-block dict or a node-space power vector.
        """
        power = self._power_vector_of(block_power_w)
        rhs = power + self._boundary
        self.steady_solve_count += 1
        _OBS_STEADY_SOLVES.add()
        temps_kelvin = lu_solve(self._a_factor(), rhs)
        return self._to_map(temps_kelvin)

    def steady_state_batch(self, node_power_matrix: np.ndarray) -> np.ndarray:
        """Steady-state node temperatures for many power vectors at once.

        ``node_power_matrix`` has one node-space power vector per row; the
        result is a matching ``(num_rows, num_nodes)`` kelvin array computed
        with a single multi-RHS solve against the cached factorisation.
        """
        power = np.asarray(node_power_matrix, dtype=float)
        if power.ndim != 2 or power.shape[1] != self.network.num_nodes:
            raise ValueError(
                f"expected a (num_rows, {self.network.num_nodes}) power matrix, "
                f"got shape {power.shape}"
            )
        if power.size and power.min() < 0:
            raise ValueError("negative power in batch")
        rhs = power + self._boundary[np.newaxis, :]
        self.steady_solve_count += 1
        _OBS_STEADY_SOLVES.add()
        with _obs_span("thermal.steady_batch", rows=int(power.shape[0])):
            return lu_solve(self._a_factor(), rhs.T).T

    # ------------------------------------------------------------------
    def transient(
        self,
        block_power_w,
        duration_s: float,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        record_every: int = 1,
        method: str = "euler",
        ambient_offset_kelvin: float = 0.0,
    ) -> TransientResult:
        """Integrate the network under constant power for ``duration_s``.

        Parameters
        ----------
        block_power_w:
            Per-block power dict, or a node-space power vector.
        initial_state:
            Node temperatures in kelvin to start from; defaults to ambient
            everywhere (a cold chip).
        time_step_s:
            Implicit-Euler step; defaults to ``duration_s / 200`` bounded to
            at most 1 ms, which resolves the die-level time constants.
        record_every:
            Store every k-th step in the result (the final step is always
            recorded).
        method:
            ``"euler"`` steps the cached LU factorisation; ``"spectral"``
            evaluates the same recurrence through the eigenbasis, jumping
            straight to the recorded instants (identical trajectory up to
            floating-point roundoff, no per-step loop).
        ambient_offset_kelvin:
            Shift of the ambient boundary temperature for this interval; the
            forcing is affine, so the RHS gains ``G_amb * offset`` and the
            trajectory is exactly the one a network rebuilt at the shifted
            ambient would produce.
        """
        self.transient_count += 1
        _OBS_TRANSIENTS.add()
        return self._transient(
            block_power_w,
            duration_s,
            initial_state=initial_state,
            time_step_s=time_step_s,
            record_every=record_every,
            method=method,
            ambient_offset_kelvin=ambient_offset_kelvin,
        )

    def _transient(
        self,
        block_power_w,
        duration_s: float,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        record_every: int = 1,
        method: str = "euler",
        ambient_offset_kelvin: float = 0.0,
    ) -> TransientResult:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if record_every < 1:
            raise ValueError("record_every must be at least 1")
        if method not in TRANSIENT_METHODS:
            raise ValueError(f"method must be one of {TRANSIENT_METHODS}")
        network = self.network
        power = self._power_vector_of(block_power_w)
        rhs_const = power + self._boundary
        if ambient_offset_kelvin:
            rhs_const = rhs_const + ambient_offset_kelvin * network.ambient_conductance

        if initial_state is None:
            state = np.full(network.num_nodes, network.ambient_kelvin, dtype=float)
        else:
            state = np.asarray(initial_state, dtype=float).copy()
            if state.shape != (network.num_nodes,):
                raise ValueError("initial state has wrong number of nodes")

        if time_step_s is None:
            time_step_s = min(duration_s / 200.0, 1e-3)
        time_step_s = min(time_step_s, duration_s)

        steps = max(1, int(round(duration_s / time_step_s)))
        # Steps whose post-update state is recorded (the last one always is).
        recorded = np.arange(record_every - 1, steps, record_every, dtype=np.int64)
        if recorded.size == 0 or recorded[-1] != steps - 1:
            recorded = np.append(recorded, steps - 1)
        times = np.concatenate(([0.0], (recorded + 1) * time_step_s))
        history = np.empty((recorded.size + 1, network.num_nodes))
        history[0] = state

        if method == "spectral":
            history[1:] = self._spectral_samples(
                state, rhs_const, time_step_s, recorded + 1
            )
            state = history[-1].copy()
        else:
            # Implicit Euler: (C/dt + A) T_{k+1} = C/dt T_k + P
            propagator = self._step_propagator(time_step_s)
            factor = self._private_factor(
                ("step", propagator.time_step_s), propagator.factor
            )
            record_mask = np.zeros(steps, dtype=bool)
            record_mask[recorded] = True
            row = 1
            for k in range(steps):
                rhs = propagator.c_over_dt * state + rhs_const
                state = lu_solve(factor, rhs)
                if record_mask[k]:
                    history[row] = state
                    row += 1

        block_series = {
            name: history[:, idx] - KELVIN_OFFSET
            for name, idx in network.block_node_index.items()
        }
        return TransientResult(
            times_s=times,
            block_celsius=block_series,
            final_state_kelvin=state,
        )

    # ------------------------------------------------------------------
    def transient_sequence(
        self,
        intervals: List[Tuple[float, Dict[str, float]]],
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        record_every: int = 1,
        method: str = "euler",
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        """Integrate a piecewise-constant power trace.

        ``intervals`` is a list of (duration, power) pairs where each power is
        a per-block dict or a node-space vector — exactly the shape of a
        :class:`repro.power.trace.PowerTrace`.  All intervals sharing a time
        step reuse one cached factorisation (``"euler"``) or one
        eigendecomposition (``"spectral"``); thermal state is carried across
        interval boundaries.  The result's :attr:`TransientResult.interval_ranges`
        records each interval's sample-row range so per-interval metrics can
        be reduced from the concatenated series without re-integrating.

        ``ambient_offsets_kelvin`` (optional, one entry per interval) shifts
        the ambient boundary temperature per interval: interval ``i`` is
        integrated against the RHS ``P_i + G_amb * (T_amb + dT_i)``, exactly
        the trajectory a network rebuilt at the shifted ambient would produce
        — time-varying ambient is exact, not quasi-static.  When no initial
        state is given, the cold start equilibrates at the *first* interval's
        ambient (``A @ 1 = G_amb``, so that state is uniform).

        With ``method="spectral"`` and every interval resolving to the same
        time step (the migration-epoch case: equal durations, one dt), the
        whole trace is evaluated through **one** eigenbasis transform: the
        per-interval weight projections collapse into a propagation of the
        modal coordinates across interval boundaries plus a single matrix
        multiply over all sampled instants — identical trajectory to the
        per-interval path up to floating-point roundoff.  Ambient offsets
        ride that path for free: they only move the per-interval fixed points
        (already one multi-RHS solve) and the boundary-jump recurrence.
        """
        if not intervals:
            raise ValueError("at least one interval is required")
        self.transient_sequence_count += 1
        _OBS_SEQUENCES.add()
        with _obs_span(
            "thermal.transient_sequence", intervals=len(intervals), method=method
        ):
            return self._transient_sequence(
                intervals,
                initial_state=initial_state,
                time_step_s=time_step_s,
                record_every=record_every,
                method=method,
                ambient_offsets_kelvin=ambient_offsets_kelvin,
            )

    def _transient_sequence(
        self,
        intervals: List[Tuple[float, Dict[str, float]]],
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        record_every: int = 1,
        method: str = "euler",
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        offsets = self._ambient_offsets_of(ambient_offsets_kelvin, len(intervals))
        if offsets is not None and initial_state is None:
            initial_state = np.full(
                self.network.num_nodes, self.network.ambient_kelvin + offsets[0]
            )
        if method == "spectral":
            jumped = self._spectral_sequence_jump(
                intervals,
                initial_state=initial_state,
                time_step_s=time_step_s,
                record_every=record_every,
                ambient_offsets=offsets,
            )
            if jumped is not None:
                return jumped
        state = initial_state
        all_times: List[np.ndarray] = []
        series: Dict[str, List[np.ndarray]] = {
            name: [] for name in self.network.block_node_index
        }
        offset = 0.0
        row_offset = 0
        ranges: List[Tuple[int, int]] = []
        for index, (duration, power) in enumerate(intervals):
            result = self._transient(
                power,
                duration,
                initial_state=state,
                time_step_s=time_step_s,
                record_every=record_every,
                method=method,
                ambient_offset_kelvin=float(offsets[index]) if offsets is not None else 0.0,
            )
            state = result.final_state_kelvin
            all_times.append(result.times_s + offset)
            # Advance by the integrated span (steps * dt), not the nominal
            # duration: when the duration is not an integer multiple of the
            # step the two differ, and stamping the next interval's origin at
            # the nominal duration would let sample times overlap it.
            offset += result.times_s[-1]
            num_rows = result.times_s.size
            ranges.append((row_offset, row_offset + num_rows))
            row_offset += num_rows
            for name, values in result.block_celsius.items():
                series[name].append(values)
        times = np.concatenate(all_times)
        block_series = {name: np.concatenate(chunks) for name, chunks in series.items()}
        return TransientResult(
            times_s=times,
            block_celsius=block_series,
            final_state_kelvin=state,
            interval_ranges=ranges,
        )

    # ------------------------------------------------------------------
    def _spectral_sequence_jump(
        self,
        intervals: List[Tuple[float, Dict[str, float]]],
        initial_state: Optional[np.ndarray],
        time_step_s: Optional[float],
        record_every: int,
        ambient_offsets: Optional[np.ndarray] = None,
    ) -> Optional[TransientResult]:
        """Whole-trace spectral evaluation when every interval shares one dt.

        Returns None when the intervals resolve to different time steps (the
        caller then falls back to the per-interval loop).  Otherwise the
        implicit-Euler trajectory of the whole piecewise-constant trace is
        produced from a single eigendecomposition: the modal coordinates
        ``z_i`` of the deviation from each interval's fixed point obey

        ``z_{i+1} = mu^{n_i} z_i + U^T C^{1/2} (T*_i - T*_{i+1})``

        (``mu = 1/(1 + dt lambda)``, ``n_i`` steps in interval ``i``), so one
        multi-RHS solve yields every fixed point, one short recurrence
        propagates the modal state across interval boundaries, and one matrix
        multiply evaluates every recorded instant of every interval.

        Per-interval ambient offsets are affine in the RHS, so they fold into
        the fixed points (``T*_i`` solves ``P_i + G_amb (T_amb + dT_i)``) and
        flow through the same recurrence — no extra solves.
        """
        if record_every < 1:
            raise ValueError("record_every must be at least 1")
        network = self.network

        steps_list = []
        recorded_list = []
        shared_dt: Optional[float] = None
        for duration, _power in intervals:
            if duration <= 0:
                raise ValueError("duration must be positive")
            dt = time_step_s if time_step_s is not None else min(duration / 200.0, 1e-3)
            dt = min(dt, duration)
            if shared_dt is None:
                shared_dt = dt
            elif dt != shared_dt:
                return None
            steps = max(1, int(round(duration / dt)))
            recorded = np.arange(record_every - 1, steps, record_every, dtype=np.int64)
            if recorded.size == 0 or recorded[-1] != steps - 1:
                recorded = np.append(recorded, steps - 1)
            steps_list.append(steps)
            recorded_list.append(recorded)
        assert shared_dt is not None
        self.spectral_jump_count += 1
        _OBS_SPECTRAL_JUMPS.add()

        powers = np.vstack([self._power_vector_of(power) for _dur, power in intervals])
        rhs = powers + self._boundary[np.newaxis, :]
        if ambient_offsets is not None:
            # The affine ambient boundary term: each interval's RHS becomes
            # P_i + G_amb (T_amb + dT_i).  Same single multi-RHS solve.
            rhs = rhs + ambient_offsets[:, np.newaxis] * network.ambient_conductance[np.newaxis, :]
        fixed_points = lu_solve(self._a_factor(), rhs.T).T  # (num_intervals, n)

        if initial_state is None:
            state = np.full(network.num_nodes, network.ambient_kelvin, dtype=float)
        else:
            state = np.asarray(initial_state, dtype=float).copy()
            if state.shape != (network.num_nodes,):
                raise ValueError("initial state has wrong number of nodes")

        c_sqrt, eigenvalues, eigenvectors = self._spectral()
        decay = 1.0 / (1.0 + shared_dt * eigenvalues)
        num_intervals = len(intervals)
        steps_arr = np.asarray(steps_list, dtype=np.int64)
        # Modal decay over each interval's full step count, and the modal
        # jumps induced by the fixed point changing at each boundary.
        interval_decay = decay[np.newaxis, :] ** steps_arr[:, np.newaxis]
        if num_intervals > 1:
            boundary_jumps = (
                (fixed_points[:-1] - fixed_points[1:]) * c_sqrt[np.newaxis, :]
            ) @ eigenvectors
        z_starts = np.empty((num_intervals, network.num_nodes))
        z = eigenvectors.T @ (c_sqrt * (state - fixed_points[0]))
        for index in range(num_intervals):
            z_starts[index] = z
            if index + 1 < num_intervals:
                z = z * interval_decay[index] + boundary_jumps[index]

        # Every recorded instant of every interval in one matrix multiply.
        # Equal-duration traces (the migration-epoch case) share one recorded
        # step structure, so the modal decay powers are computed once and
        # broadcast across intervals instead of materialised per sample row.
        counts = np.array([recorded.size for recorded in recorded_list])
        first = recorded_list[0]
        uniform = all(
            np.array_equal(recorded, first) for recorded in recorded_list[1:]
        )
        if uniform:
            base_pow = decay[np.newaxis, :] ** (first + 1)[:, np.newaxis]
            modal = base_pow[np.newaxis, :, :] * z_starts[:, np.newaxis, :]
        else:
            step_numbers = np.concatenate(recorded_list) + 1
            modal = (
                decay[np.newaxis, :] ** step_numbers[:, np.newaxis]
            ) * np.repeat(z_starts, counts, axis=0)
        recorded_temps = np.repeat(fixed_points, counts, axis=0) + (
            modal.reshape(-1, network.num_nodes) @ eigenvectors.T
        ) / c_sqrt[np.newaxis, :]

        # Assemble per-interval blocks: the interval's t=0 row is the carried
        # state (exactly the previous interval's final sample), then its
        # recorded rows — the same layout the per-interval loop produces.
        total_rows = int(counts.sum()) + num_intervals
        history = np.empty((total_rows, network.num_nodes))
        all_times: List[np.ndarray] = []
        ranges: List[Tuple[int, int]] = []
        offset = 0.0
        row = 0
        sample_row = 0
        for index in range(num_intervals):
            block = recorded_temps[sample_row : sample_row + counts[index]]
            history[row] = state
            history[row + 1 : row + 1 + counts[index]] = block
            state = block[-1]
            times = np.concatenate(
                ([0.0], (recorded_list[index] + 1) * shared_dt)
            )
            all_times.append(times + offset)
            # Match the per-interval path: the next interval starts where the
            # integrated samples end (steps * dt), not at the nominal
            # duration, so sample times never overlap the next origin.
            offset += steps_list[index] * shared_dt
            ranges.append((row, row + counts[index] + 1))
            row += counts[index] + 1
            sample_row += counts[index]

        block_series = {
            name: history[:, idx] - KELVIN_OFFSET
            for name, idx in network.block_node_index.items()
        }
        return TransientResult(
            times_s=np.concatenate(all_times),
            block_celsius=block_series,
            final_state_kelvin=state.copy(),
            interval_ranges=ranges,
        )

    # ------------------------------------------------------------------
    def warm_state(self, block_power_w, ambient_offset_kelvin: float = 0.0) -> np.ndarray:
        """Node state (kelvin) corresponding to steady state under a power map.

        Useful as the initial condition of transient runs so experiments do
        not spend simulated seconds heating a cold chip.  Accepts a per-block
        dict or a node-space power vector; ``ambient_offset_kelvin`` shifts
        the ambient boundary (e.g. to warm-start an ambient-scheduled
        transient at the first interval's ambient).
        """
        power = self._power_vector_of(block_power_w)
        rhs = power + self._boundary
        if ambient_offset_kelvin:
            rhs = rhs + ambient_offset_kelvin * self.network.ambient_conductance
        self.steady_solve_count += 1
        return lu_solve(self._a_factor(), rhs)

    def _to_map(self, temps_kelvin: np.ndarray) -> TemperatureMap:
        block_celsius = {
            name: float(temps_kelvin[idx]) - KELVIN_OFFSET
            for name, idx in self.network.block_node_index.items()
        }
        return TemperatureMap(block_celsius=block_celsius, node_kelvin=temps_kelvin)
