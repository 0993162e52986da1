"""Steady-state and transient solvers for the RC thermal network.

The solver works in node space only: power comes in as node-space vectors
or ``(rows, num_nodes)`` matrices and temperatures go out as kelvin arrays.
Mapping functional units onto nodes is the model's job
(:class:`repro.thermal.hotspot.HotSpotModel`).

* Every solve is a matrix product with a precomputed dense inverse.  An
  inverse holds the same ``n**2`` floats as an LU factor, and on these
  small networks (34-802 nodes) a product skips the per-call validation
  overhead of a LAPACK solve wrapper, which outweighs the arithmetic.
* :meth:`ThermalSolver.steady_state_batch` solves ``A T = P + G_amb T_amb``
  for many power rows with one product, ``rhs @ A^-T``; ``A^-1`` is built
  when the solver is constructed; :meth:`ThermalSolver.steady_state_reduced`
  solves through ``A^-T`` restricted to the inputs and nodes a caller uses.
* :meth:`ThermalSolver.transient_sequence` integrates
  ``C dT/dt = P - A T + G_amb T_amb`` over a piecewise-constant power trace
  with an unconditionally stable implicit-Euler scheme.  The step matrix
  ``C/dt + A`` is inverted once per *distinct* time step and cached on the
  solver, so each step is one matrix-vector product and every interval
  sharing a step, and every later trace, reuses a single inverse.
* ``method="spectral"`` evaluates the *same* implicit-Euler recurrence in
  closed form through the generalized eigendecomposition of ``(A, C)`` and
  jumps directly to the sampled instants, replacing the per-step Python loop
  with a few matrix multiplies per trace.
* Time-varying ambient is exact, not quasi-static: the ambient forcing
  ``G_amb * T_amb(t)`` is affine in the RHS, so a per-interval offset
  ``dT_i`` simply turns each interval's constant RHS into
  ``P_i + G_amb * (T_amb + dT_i)``.  :meth:`ThermalSolver.transient_sequence`
  accepts the offsets as a ``(num_intervals,)`` array; in the spectral-jump
  path they only move the per-interval fixed points (already one product
  with ``A^-T``) and the boundary-jump recurrence — zero extra solves.
* Nothing writes to an operator once it is built, and a matrix product only
  reads it, so one solver can serve several threads at once.

Temperatures are kelvin throughout; the model converts its per-unit
readings to degrees Celsius, matching the paper's figures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from .rc_model import ThermalNetwork

# Registry view of the solver counters: each increment of the per-solver
# attributes below also bumps the matching process-wide counter (a no-op
# while telemetry is disabled).  The attributes stay plain ints — they are
# the per-instance live views the tests pin against; the registry
# aggregates across every solver in the process.
_OBS_STEADY_SOLVES = _obs_counter("thermal.steady_solves")
_OBS_FACTORIZATIONS = _obs_counter("thermal.step_factorizations")
_OBS_SEQUENCES = _obs_counter("thermal.transient_sequences")
_OBS_SPECTRAL_JUMPS = _obs_counter("thermal.spectral_jumps")

#: Transient integration methods accepted by the solver.
TRANSIENT_METHODS = ("euler", "spectral")

#: Cap on cached step-matrix inverses: traces with many distinct
#: (e.g. duration-derived) time steps must not grow the cache unboundedly.
MAX_CACHED_PROPAGATORS = 32


@dataclass
class TransientResult:
    """Temperature evolution over a piecewise-constant power trace."""

    times_s: np.ndarray
    #: ``(num_samples, num_nodes)`` node temperatures in kelvin: each
    #: interval's start state followed by every implicit-Euler step in it.
    node_kelvin: np.ndarray
    final_state_kelvin: np.ndarray
    #: Sample-row ranges ``[start, stop)`` of each power interval, so
    #: callers can reduce per-interval metrics straight from the
    #: concatenated samples.
    interval_ranges: List[Tuple[int, int]]


@dataclass
class _StepPropagator:
    """Implicit-Euler operator ``(C/dt + A)^-1`` for one time step."""

    c_over_dt: np.ndarray
    inverse: np.ndarray


def _check_power(power: np.ndarray) -> None:
    """Reject NaN, infinite or negative node power."""
    if not np.isfinite(power).all():
        raise ValueError("node power must be finite (no NaN or inf)")
    if power.size and power.min() < 0:
        raise ValueError("negative node power")


class ThermalSolver:
    """Solves the RC network produced by :func:`build_thermal_network`.

    ``A^-1`` is computed once, at construction; the inverse of ``C/dt + A``
    once per distinct time step, on first use (up to
    :data:`MAX_CACHED_PROPAGATORS`, evicted first-in first-out).
    """

    def __init__(self, network: ThermalNetwork):
        self.network = network
        self._A = network.system_matrix()
        #: ``A^-T``: ``rhs_rows @ _steady_operator`` solves ``A T = rhs`` per row.
        self._steady_operator = np.linalg.inv(self._A).T
        self._boundary = network.ambient_conductance * network.ambient_kelvin
        self._step_cache: Dict[float, _StepPropagator] = {}
        #: Number of step-matrix inverses built (regression guard: one per
        #: distinct time step while it stays cached).
        self.step_factorization_count = 0
        #: Number of steady solves.  A multi-RHS batch counts once, so a
        #: fully batched steady experiment shows exactly one solve
        #: (regression guard for the epoch pipeline).
        self.steady_solve_count = 0
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

    def __getstate__(self):
        # Locks cannot be pickled (configurations, which carry a solver,
        # can be); recreate it on unpickling.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _step_propagator(self, time_step_s: float) -> _StepPropagator:
        with self._cache_lock:
            cached = self._step_cache.get(time_step_s)
            if cached is not None:
                return cached
            c_over_dt = self.network.capacitance / time_step_s
            propagator = _StepPropagator(
                c_over_dt, np.linalg.inv(np.diag(c_over_dt) + self._A)
            )
            self.step_factorization_count += 1
            _OBS_FACTORIZATIONS.add()
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
                eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
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
        fixed_point = rhs_const @ self._steady_operator
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

    def _node_powers(self, node_powers, shape: Tuple[int, ...]) -> np.ndarray:
        """``node_powers`` as a float array of ``shape``, checked finite and non-negative."""
        power = np.asarray(node_powers, dtype=float)
        if power.shape != shape:
            raise ValueError(
                f"expected node power of shape {shape}, got shape {power.shape}"
            )
        _check_power(power)
        return power

    # ------------------------------------------------------------------
    def steady_state_batch(self, node_power_matrix: np.ndarray) -> np.ndarray:
        """Steady-state node temperatures for many power vectors at once.

        ``node_power_matrix`` has one node-space power vector per row; the
        result is a matching ``(num_rows, num_nodes)`` kelvin array computed
        with a single product against the precomputed ``A^-T``.
        """
        power = np.asarray(node_power_matrix, dtype=float)
        if power.ndim != 2 or power.shape[1] != self.network.num_nodes:
            raise ValueError(
                f"expected a (num_rows, {self.network.num_nodes}) power matrix, "
                f"got shape {power.shape}"
            )
        _check_power(power)
        rhs = power + self._boundary[np.newaxis, :]
        self.steady_solve_count += 1
        _OBS_STEADY_SOLVES.add()
        with _obs_span("thermal.steady_batch", rows=int(power.shape[0])):
            return rhs @ self._steady_operator

    def reduced_steady_operator(
        self, injection: np.ndarray, readout: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(operator, offset)``: ``rows @ operator + offset`` equals
        ``steady_state_batch(rows @ injection)[:, readout]`` up to roundoff,
        for a ``(k, num_nodes)`` ``injection`` of ``k`` inputs."""
        columns = self._steady_operator[:, readout]
        return injection @ columns, self._boundary @ columns

    def steady_state_reduced(
        self, rows: np.ndarray, operator: np.ndarray, offset: np.ndarray
    ) -> np.ndarray:
        """A steady solve through a :meth:`reduced_steady_operator`, checked
        and counted like :meth:`steady_state_batch` (the caller checks the
        width of ``rows``)."""
        _check_power(rows)
        self.steady_solve_count += 1
        _OBS_STEADY_SOLVES.add()
        with _obs_span("thermal.steady_batch", rows=int(rows.shape[0])):
            return rows @ operator + offset

    def warm_state(self, node_power, ambient_offset_kelvin: float = 0.0) -> np.ndarray:
        """Node state (kelvin) corresponding to steady state under one power vector.

        Useful as the initial condition of transient runs so experiments do
        not spend simulated seconds heating a cold chip.
        ``ambient_offset_kelvin`` shifts the ambient boundary (e.g. to
        warm-start an ambient-scheduled transient at the first interval's
        ambient).
        """
        power = self._node_powers(node_power, (self.network.num_nodes,))
        if not np.isfinite(ambient_offset_kelvin):
            raise ValueError("ambient offset must be finite (no NaN or inf)")
        rhs = power + self._boundary
        if ambient_offset_kelvin:
            rhs = rhs + ambient_offset_kelvin * self.network.ambient_conductance
        self.steady_solve_count += 1
        _OBS_STEADY_SOLVES.add()
        return rhs @ self._steady_operator

    # ------------------------------------------------------------------
    def transient_sequence(
        self,
        durations_s,
        node_powers,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        method: str = "euler",
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        """Integrate a piecewise-constant power trace.

        Interval ``i`` lasts ``durations_s[i]`` seconds under the node-space
        power ``node_powers[i]`` (a ``(num_intervals, num_nodes)`` matrix).
        All intervals sharing a time step reuse one cached step inverse
        (``"euler"``) or one eigendecomposition (``"spectral"``); thermal
        state is carried across interval boundaries.  The result's
        :attr:`TransientResult.interval_ranges` records each interval's
        sample-row range so per-interval metrics can be reduced from the
        concatenated samples without re-integrating.

        ``initial_state`` is a node vector in kelvin (default: ambient
        everywhere, a cold chip).  ``time_step_s`` is the implicit-Euler step;
        by default each interval uses ``duration / 200`` bounded to at most
        1 ms, which resolves the die-level time constants.

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
        (already one product with ``A^-T``) and the boundary-jump recurrence.
        """
        durations = np.asarray(durations_s, dtype=float)
        if durations.ndim != 1 or durations.size == 0:
            raise ValueError("at least one interval is required")
        if durations.min() <= 0:
            raise ValueError("duration must be positive")
        if method not in TRANSIENT_METHODS:
            raise ValueError(f"method must be one of {TRANSIENT_METHODS}")
        powers = self._node_powers(
            node_powers, (durations.size, self.network.num_nodes)
        )
        self.transient_sequence_count += 1
        _OBS_SEQUENCES.add()
        with _obs_span(
            "thermal.transient_sequence", intervals=durations.size, method=method
        ):
            return self._transient_sequence(
                durations.tolist(),
                powers,
                initial_state=initial_state,
                time_step_s=time_step_s,
                method=method,
                ambient_offsets_kelvin=ambient_offsets_kelvin,
            )

    def _transient_sequence(
        self,
        durations: List[float],
        powers: np.ndarray,
        initial_state: Optional[np.ndarray],
        time_step_s: Optional[float],
        method: str,
        ambient_offsets_kelvin,
    ) -> TransientResult:
        network = self.network
        offsets = self._ambient_offsets_of(ambient_offsets_kelvin, len(durations))
        if initial_state is None:
            # A cold chip, at the first interval's ambient.
            ambient = network.ambient_kelvin
            if offsets is not None:
                ambient = ambient + offsets[0]
            state = np.full(network.num_nodes, ambient, dtype=float)
        else:
            state = np.asarray(initial_state, dtype=float).copy()
            if state.shape != (network.num_nodes,):
                raise ValueError("initial state has wrong number of nodes")
            if not np.isfinite(state).all():
                raise ValueError("initial state must be finite (no NaN or inf)")
        if method == "spectral":
            jumped = self._spectral_sequence_jump(
                durations, powers, state, time_step_s, ambient_offsets=offsets
            )
            if jumped is not None:
                return jumped
        all_times: List[np.ndarray] = []
        histories: List[np.ndarray] = []
        offset = 0.0
        row_offset = 0
        ranges: List[Tuple[int, int]] = []
        for index, duration in enumerate(durations):
            rhs_const = powers[index] + self._boundary
            if offsets is not None and offsets[index]:
                rhs_const = rhs_const + float(offsets[index]) * network.ambient_conductance
            times, history = self._integrate_interval(
                state, rhs_const, duration, time_step_s, method
            )
            state = history[-1]
            all_times.append(times + offset)
            # Advance by the integrated span (steps * dt), not the nominal
            # duration: when the duration is not an integer multiple of the
            # step the two differ, and stamping the next interval's origin at
            # the nominal duration would let sample times overlap it.
            offset += times[-1]
            ranges.append((row_offset, row_offset + times.size))
            row_offset += times.size
            histories.append(history)
        return TransientResult(
            times_s=np.concatenate(all_times),
            node_kelvin=np.concatenate(histories),
            final_state_kelvin=state.copy(),
            interval_ranges=ranges,
        )

    def _integrate_interval(
        self,
        state: np.ndarray,
        rhs_const: np.ndarray,
        duration_s: float,
        time_step_s: Optional[float],
        method: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample times and ``(steps + 1, num_nodes)`` history of one interval.

        Row 0 is ``state``; row ``k`` is the state after ``k`` implicit-Euler
        steps of ``(C/dt + A) T_{k+1} = C/dt T_k + rhs_const``.
        """
        if time_step_s is None:
            time_step_s = min(duration_s / 200.0, 1e-3)
        time_step_s = min(time_step_s, duration_s)
        steps = max(1, int(round(duration_s / time_step_s)))
        step_numbers = np.arange(1, steps + 1, dtype=np.int64)
        times = np.concatenate(([0.0], step_numbers * time_step_s))
        history = np.empty((steps + 1, self.network.num_nodes))
        history[0] = state
        if method == "spectral":
            history[1:] = self._spectral_samples(
                state, rhs_const, time_step_s, step_numbers
            )
            return times, history
        propagator = self._step_propagator(time_step_s)
        inverse, c_over_dt = propagator.inverse, propagator.c_over_dt
        for k in range(steps):
            state = inverse @ (c_over_dt * state + rhs_const)
            history[k + 1] = state
        return times, history

    # ------------------------------------------------------------------
    def _spectral_sequence_jump(
        self,
        durations: List[float],
        powers: np.ndarray,
        state: np.ndarray,
        time_step_s: Optional[float],
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
        product with ``A^-T`` yields every fixed point, one short recurrence
        propagates the modal state across interval boundaries, and one matrix
        multiply evaluates every step of every interval.

        Per-interval ambient offsets are affine in the RHS, so they fold into
        the fixed points (``T*_i`` solves ``P_i + G_amb (T_amb + dT_i)``) and
        flow through the same recurrence — no extra solves.
        """
        network = self.network

        steps_list = []
        shared_dt: Optional[float] = None
        for duration in durations:
            dt = time_step_s if time_step_s is not None else min(duration / 200.0, 1e-3)
            dt = min(dt, duration)
            if shared_dt is None:
                shared_dt = dt
            elif dt != shared_dt:
                return None
            steps_list.append(max(1, int(round(duration / dt))))
        assert shared_dt is not None
        self.spectral_jump_count += 1
        _OBS_SPECTRAL_JUMPS.add()

        rhs = powers + self._boundary[np.newaxis, :]
        if ambient_offsets is not None:
            # The affine ambient boundary term: each interval's RHS becomes
            # P_i + G_amb (T_amb + dT_i).  Same single product.
            rhs = rhs + ambient_offsets[:, np.newaxis] * network.ambient_conductance[np.newaxis, :]
        fixed_points = rhs @ self._steady_operator  # (num_intervals, n)

        c_sqrt, eigenvalues, eigenvectors = self._spectral()
        decay = 1.0 / (1.0 + shared_dt * eigenvalues)
        num_intervals = len(durations)
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

        # Every step of every interval in one matrix multiply.  Equal-duration
        # traces (the migration-epoch case) share one step count, so the
        # modal decay powers are computed once and broadcast across intervals
        # instead of materialised per sample row.
        step_numbers = [np.arange(1, steps + 1, dtype=np.int64) for steps in steps_list]
        if (steps_arr == steps_arr[0]).all():
            base_pow = decay[np.newaxis, :] ** step_numbers[0][:, np.newaxis]
            modal = base_pow[np.newaxis, :, :] * z_starts[:, np.newaxis, :]
        else:
            modal = (
                decay[np.newaxis, :] ** np.concatenate(step_numbers)[:, np.newaxis]
            ) * np.repeat(z_starts, steps_arr, axis=0)
        stepped_temps = np.repeat(fixed_points, steps_arr, axis=0) + (
            modal.reshape(-1, network.num_nodes) @ eigenvectors.T
        ) / c_sqrt[np.newaxis, :]

        # Assemble per-interval blocks: the interval's t=0 row is the carried
        # state (exactly the previous interval's final sample), then its
        # stepped rows — the same layout the per-interval loop produces.
        history = np.empty((int(steps_arr.sum()) + num_intervals, network.num_nodes))
        all_times: List[np.ndarray] = []
        ranges: List[Tuple[int, int]] = []
        offset = 0.0
        row = 0
        sample_row = 0
        for index, steps in enumerate(steps_list):
            block = stepped_temps[sample_row : sample_row + steps]
            history[row] = state
            history[row + 1 : row + 1 + steps] = block
            state = block[-1]
            times = np.concatenate(([0.0], step_numbers[index] * shared_dt))
            all_times.append(times + offset)
            # Match the per-interval path: the next interval starts where the
            # integrated samples end (steps * dt), not at the nominal
            # duration, so sample times never overlap the next origin.
            offset += steps * shared_dt
            ranges.append((row, row + steps + 1))
            row += steps + 1
            sample_row += steps

        return TransientResult(
            times_s=np.concatenate(all_times),
            node_kelvin=history,
            final_state_kelvin=state.copy(),
            interval_ranges=ranges,
        )
