"""Steady-state and transient solvers for the RC thermal network.

The solver works in node space only: power comes in as node-space vectors
or ``(rows, num_nodes)`` matrices and temperatures go out as kelvin arrays.
Mapping functional units onto nodes is the model's job
(:class:`repro.thermal.hotspot.HotSpotModel`).

* Every steady solve is a matrix product with a precomputed dense inverse.
  An inverse holds the same ``n**2`` floats as an LU factor, and on these
  small networks (34-802 nodes) a product skips the per-call validation
  overhead of a LAPACK solve wrapper, which outweighs the arithmetic.
* :meth:`ThermalSolver.steady_state_batch` solves ``A T = P + G_amb T_amb``
  for many power rows with one product, ``rhs @ A^-T``; ``A^-1`` is built
  when the solver is constructed; :meth:`ThermalSolver.steady_state_reduced`
  solves through ``A^-T`` restricted to the inputs and nodes a caller uses.
* :meth:`ThermalSolver.transient_sequence` integrates
  ``C dT/dt = P - A T + G_amb T_amb`` over a piecewise-constant power trace
  with the unconditionally stable implicit-Euler scheme, evaluated in closed
  form: in the eigenbasis of the pencil ``(A, C)`` (computed once per
  solver) every step multiplies each mode's distance to the interval's fixed
  point by ``mu = 1 / (1 + dt * lambda)``, so every sampled instant of every
  interval comes out of a few matrix products, whatever mix of step sizes
  and step counts the intervals use.
* Time-varying ambient is exact, not quasi-static: the ambient forcing
  ``G_amb * T_amb(t)`` is affine in the RHS, so a per-interval offset
  ``dT_i`` simply turns each interval's constant RHS into
  ``P_i + G_amb * (T_amb + dT_i)``; the offsets only move the per-interval
  fixed points (already one product with ``A^-T``).
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
_OBS_SEQUENCES = _obs_counter("thermal.transient_sequences")
_OBS_SPECTRAL_JUMPS = _obs_counter("thermal.spectral_jumps")

#: Most ``(dt, steps)`` step tables one solver keeps (a ``period`` channel
#: can bring a step size per epoch); past it the oldest goes.
MAX_STEP_TABLES = 256


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


@dataclass(frozen=True)
class _Eigenbasis:
    """The pencil ``(A, C)`` diagonalised, as row-vector operators.

    With ``C^{-1/2} A C^{-1/2} = U diag(eigenvalues) U^T``, the modal
    coordinates of a node state ``T`` are ``T @ to_modal``
    (``= U^T C^{1/2} T``), those of the fixed point ``A^-1 rhs`` are
    ``rhs @ fixed_to_modal``, and ``modal @ from_modal`` maps back.
    """

    eigenvalues: np.ndarray
    to_modal: np.ndarray
    fixed_to_modal: np.ndarray
    from_modal: np.ndarray


def _check_power(power: np.ndarray) -> None:
    """Reject NaN, infinite or negative node power.

    Two reductions decide (a NaN fails both comparisons); the message is
    worked out only for a refused array.
    """
    if not (
        np.minimum.reduce(power, axis=None, initial=0.0) >= 0.0
        and np.maximum.reduce(power, axis=None, initial=0.0) < np.inf
    ):
        if not np.isfinite(power).all():
            raise ValueError("node power must be finite (no NaN or inf)")
        raise ValueError("negative node power")


class ThermalSolver:
    """Solves the RC network produced by :func:`build_thermal_network`.

    ``A^-1`` is computed once, at construction; the eigenbasis of ``(A, C)``
    once, on the first transient; a transient's step table once per
    distinct ``(dt, steps)`` pair (at most :data:`MAX_STEP_TABLES` kept).
    """

    def __init__(self, network: ThermalNetwork):
        self.network = network
        self._A = network.system_matrix()
        #: ``A^-T``: ``rhs_rows @ _steady_operator`` solves ``A T = rhs`` per row.
        self._steady_operator = np.linalg.inv(self._A).T
        self._boundary = network.ambient_conductance * network.ambient_kelvin
        #: Number of steady solves.  A multi-RHS batch counts once, so a
        #: fully batched steady experiment shows exactly one solve
        #: (regression guard for the epoch pipeline).
        self.steady_solve_count = 0
        #: Number of ``transient_sequence()`` calls past their argument checks.
        self.transient_sequence_count = 0
        #: Number of whole-trace eigenbasis evaluations, one per sequence:
        #: equal to ``transient_sequence_count`` while every transient takes
        #: the closed form (the regression guard that it does).
        self.spectral_jump_count = 0
        self._spectral_basis: Optional[_Eigenbasis] = None
        #: ``(dt, steps)`` -> that interval's read-only step table (see
        #: :meth:`_step_table`), oldest first.
        self._step_tables: Dict[Tuple[float, int], Tuple[np.ndarray, np.ndarray]] = {}
        # A chip configuration, and so its solver, may be shared by callers
        # on several threads; guard the lazily-built eigenbasis and the
        # step-table store.
        self._cache_lock = threading.Lock()

    def __getstate__(self):
        # Locks cannot be pickled (configurations, which carry a solver,
        # can be); recreate it on unpickling.  Step tables are rebuilt on
        # demand rather than shipped.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        state["_step_tables"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _spectral(self) -> _Eigenbasis:
        """Orthonormal eigenbasis of ``C^{-1/2} A C^{-1/2}`` (computed once).

        ``A`` is symmetric positive definite and ``C`` diagonal positive, so
        the symmetrized pencil has real positive eigenvalues; in this basis
        one implicit-Euler step multiplies each mode by
        ``1 / (1 + dt * lambda)``.
        """
        with self._cache_lock:
            if self._spectral_basis is None:
                c_sqrt = np.sqrt(self.network.capacitance)
                symmetric = self._A / np.outer(c_sqrt, c_sqrt)
                eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
                to_modal = c_sqrt[:, np.newaxis] * eigenvectors
                self._spectral_basis = _Eigenbasis(
                    eigenvalues=eigenvalues,
                    to_modal=to_modal,
                    fixed_to_modal=self._steady_operator @ to_modal,
                    from_modal=eigenvectors.T / c_sqrt[np.newaxis, :],
                )
            return self._spectral_basis

    def _step_table(
        self, basis: _Eigenbasis, dt: float, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The read-only ``1 - mu^k`` rows (``k = 0..count``, one column per
        mode) and step times ``k * dt`` of ``count`` steps of ``dt``; built
        once per pair and kept, at most :data:`MAX_STEP_TABLES` of them."""
        key = (dt, count)
        table = self._step_tables.get(key)
        if table is None:
            k = np.arange(count + 1, dtype=float)
            rise = -np.expm1(np.multiply.outer(-k, np.log1p(dt * basis.eigenvalues)))
            times = k * dt
            rise.flags.writeable = False
            times.flags.writeable = False
            with self._cache_lock:
                table = self._step_tables.setdefault(key, (rise, times))
                if len(self._step_tables) > MAX_STEP_TABLES:
                    del self._step_tables[next(iter(self._step_tables))]
        return table

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
        if not np.isfinite(offsets).all():
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
        with _obs_span("thermal.steady_batch", rows=rows.shape[0]):
            kelvin = rows @ operator
            kelvin += offset
            return kelvin

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
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        """Integrate a piecewise-constant power trace.

        Interval ``i`` lasts ``durations_s[i]`` seconds under the node-space
        power ``node_powers[i]`` (a ``(num_intervals, num_nodes)`` matrix);
        thermal state is carried across interval boundaries.  The result's
        :attr:`TransientResult.interval_ranges` records each interval's
        sample-row range so per-interval metrics can be reduced from the
        concatenated samples without re-integrating.

        ``initial_state`` is a node vector in kelvin (default: ambient
        everywhere, a cold chip).  ``time_step_s`` is the implicit-Euler step
        (clamped to each interval's duration); by default each interval uses
        ``duration / 200`` bounded to at most 1 ms, which resolves the
        die-level time constants.  An interval of ``n`` steps contributes its
        start state and the ``n`` iterates of
        ``(C/dt + A) T_{k+1} = C/dt T_k + P + G_amb T_amb``.

        ``ambient_offsets_kelvin`` (optional, one entry per interval) shifts
        the ambient boundary temperature per interval: interval ``i`` is
        integrated against the RHS ``P_i + G_amb * (T_amb + dT_i)``, exactly
        the trajectory a network rebuilt at the shifted ambient would produce
        — time-varying ambient is exact, not quasi-static.  When no initial
        state is given, the cold start equilibrates at the *first* interval's
        ambient (``A @ 1 = G_amb``, so that state is uniform).
        """
        durations = np.asarray(durations_s, dtype=float)
        if durations.ndim != 1 or durations.size == 0:
            raise ValueError("at least one interval is required")
        if not (
            np.minimum.reduce(durations) > 0.0 and np.maximum.reduce(durations) < np.inf
        ):
            if not np.isfinite(durations).all():
                raise ValueError("durations_s must be finite (no NaN or inf)")
            raise ValueError("duration must be positive")
        if time_step_s is not None and not time_step_s > 0:
            raise ValueError(f"time_step_s must be positive, got {time_step_s}")
        powers = self._node_powers(
            node_powers, (durations.size, self.network.num_nodes)
        )
        offsets = self._ambient_offsets_of(ambient_offsets_kelvin, durations.size)
        state = self._initial_state(initial_state, offsets)
        self.transient_sequence_count += 1
        _OBS_SEQUENCES.add()
        with _obs_span("thermal.transient_sequence", intervals=durations.size):
            return self._closed_form(durations, powers, state, time_step_s, offsets)

    def _initial_state(
        self, initial_state: Optional[np.ndarray], offsets: Optional[np.ndarray]
    ) -> np.ndarray:
        """The checked start state: ``initial_state``, or a cold chip at the
        first interval's ambient."""
        network = self.network
        if initial_state is None:
            ambient = network.ambient_kelvin
            if offsets is not None:
                ambient = ambient + offsets[0]
            return np.full(network.num_nodes, ambient, dtype=float)
        state = np.asarray(initial_state, dtype=float)
        if state.shape != (network.num_nodes,):
            raise ValueError("initial state has wrong number of nodes")
        if not np.isfinite(state).all():
            raise ValueError("initial state must be finite (no NaN or inf)")
        return state

    def _closed_form(
        self,
        durations: np.ndarray,
        powers: np.ndarray,
        state: np.ndarray,
        time_step_s: Optional[float],
        offsets: Optional[np.ndarray],
    ) -> TransientResult:
        """The implicit-Euler trajectory of the whole trace, in closed form.

        In modal coordinates ``m`` (see :class:`_Eigenbasis`), ``k`` steps of
        size ``dt`` from ``T_0`` towards the fixed point ``T* = A^-1 rhs``
        reach ``m(T_0) + (1 - mu^k) (m(T*) - m(T_0))`` with
        ``mu = 1 / (1 + dt * lambda)``.  So one product gives every
        interval's fixed point in modal coordinates, the recurrence over the
        intervals carries the modal start state across boundaries, and one
        product brings every sample's increment over its interval's start
        state back to node space.

        The increment form ``T_0 + (1 - mu^k)(T* - T_0)``, with
        ``1 - mu^k = -expm1(-k log1p(dt lambda))``, keeps its precision when
        ``dt * lambda`` is far below machine epsilon: ``mu`` then rounds to
        1, and the equivalent ``T* + mu^k (T_0 - T*)`` would cancel two huge
        numbers where the increment tends to the deposited energy over
        ``C``.  The ``1 - mu^k`` tables are built once per distinct
        ``(dt, steps)`` pair the solver meets and kept on it
        (:meth:`_step_table`), so a trace reuses its earlier traces' tables.
        """
        basis = self._spectral()
        requested = np.minimum(durations / 200.0, 1e-3) if time_step_s is None else time_step_s
        time_steps = np.minimum(requested, durations)
        steps = np.maximum(1, np.rint(durations / time_steps)).astype(np.int64)
        self.spectral_jump_count += 1
        _OBS_SPECTRAL_JUMPS.add()

        rhs = powers + self._boundary
        if offsets is not None:
            rhs += offsets[:, np.newaxis] * self.network.ambient_conductance
        modal_fixed = rhs @ basis.fixed_to_modal

        # Row k of an interval's table is ``1 - mu^k`` for k = 0..steps, and
        # its step times ``k * dt``; k = 0 is the interval's start state.
        keys = list(zip(time_steps.tolist(), steps.tolist()))
        tables = {key: self._step_table(basis, *key) for key in dict.fromkeys(keys)}
        rise_rows = np.concatenate([tables[key][0] for key in keys])
        rows_per_interval = steps + 1
        stops = rows_per_interval.cumsum()
        # The last sample row of every interval but the final one.
        inner_ends = stops[:-1] - 1

        # Modal start states: s_{i+1} = mu_i s_i + (1 - mu_i) m(T*_i), with
        # mu_i the decay over interval i's whole step count.  A doubling
        # scan composes these affine maps, so after it map i takes s_0 to
        # s_{i+1} in one multiply-add.  (Each update works in place on a
        # view of its array; a ufunc reads an overlapping input as it was.)
        rise_ends = rise_rows[inner_ends]
        factors = 1.0 - rise_ends
        pulls = rise_ends * modal_fixed[:-1]
        shift = 1
        while shift < len(factors):
            later_pulls = pulls[shift:]
            later_pulls += factors[shift:] * pulls[:-shift]
            later_factors = factors[shift:]
            later_factors *= factors[:-shift]
            shift *= 2
        modal_start = state @ basis.to_modal
        gaps = modal_fixed.copy()
        gaps[0] -= modal_start
        later_gaps = gaps[1:]
        later_gaps -= factors * modal_start + pulls

        increments = (rise_rows * gaps.repeat(rows_per_interval, axis=0)) @ basis.from_modal
        # Each start is the previous start plus that interval's last
        # increment, added in the same order as its last row below, so an
        # interval's t=0 row equals the previous interval's last row exactly.
        starts = np.concatenate((state[np.newaxis, :], increments[inner_ends])).cumsum(axis=0)
        node_kelvin = starts.repeat(rows_per_interval, axis=0) + increments

        origins = np.concatenate(([0.0], (steps * time_steps).cumsum()[:-1]))
        times = np.concatenate([tables[key][1] for key in keys])
        times += origins.repeat(rows_per_interval)
        first_rows = stops - rows_per_interval
        return TransientResult(
            times_s=times,
            node_kelvin=node_kelvin,
            final_state_kelvin=node_kelvin[-1].copy(),
            interval_ranges=list(zip(first_rows.tolist(), stops.tolist())),
        )
