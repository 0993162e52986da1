"""Steady-state and transient solvers for the RC thermal network.

The solver works on node-space operators: power comes in as node-space
vectors or ``(rows, num_nodes)`` matrices, or as the rows of a caller's
*reduced* operator that maps its inputs onto the nodes, and temperatures go
out as kelvin arrays.  Mapping functional units onto nodes is the model's job
(:class:`repro.thermal.hotspot.HotSpotModel`), which builds one reduced
operator per kind of solve.

* Every steady solve is a matrix product with a precomputed dense inverse.
  An inverse holds the same ``n**2`` floats as an LU factor, and on these
  small networks (34-802 nodes) a product skips the per-call validation
  overhead of a LAPACK solve wrapper, which outweighs the arithmetic.
* :meth:`ThermalSolver.steady_state_batch` solves ``A T = P + G_amb T_amb``
  for many power rows with one product, ``rhs @ A^-T``; ``A^-1`` is built
  when the solver is constructed; :meth:`ThermalSolver.steady_state_reduced`
  solves through ``A^-T`` restricted to the inputs and nodes a caller uses.
* :meth:`ThermalSolver.transient_reduced` integrates
  ``C dT/dt = P - A T + G_amb T_amb`` over a piecewise-constant power trace
  with the unconditionally stable implicit-Euler scheme, evaluated in closed
  form: in the eigenbasis of the pencil ``(A, C)`` (computed once per
  solver) every step multiplies each mode's distance to the interval's fixed
  point by ``mu = 1 / (1 + dt * lambda)``.  A :class:`TransientOperator`
  maps a caller's input rows to modal fixed points and modal increments to
  the readout it reports, so every sampled instant of every interval is
  evaluated only at that readout, whatever mix of step sizes and step
  counts the intervals use.  :meth:`ThermalSolver.transient_sequence` is
  the same closed form read out at every node through the identity
  injection.
* Time-varying ambient is exact, not quasi-static: the ambient forcing
  ``G_amb * T_amb(t)`` is affine in the RHS, so a per-interval offset
  ``dT_i`` simply turns each interval's constant RHS into
  ``P_i + G_amb * (T_amb + dT_i)``; the offsets only move the per-interval
  fixed points.
* Nothing writes to an operator once it is built (every one is a read-only
  array, also after unpickling), and a matrix product only reads it, so one
  solver can serve several threads at once.

Temperatures are kelvin throughout; the model converts its per-unit
readings to degrees Celsius, matching the paper's figures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

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


def freeze(*arrays: np.ndarray) -> None:
    """Make each array read-only (pickle keeps no flags, so unpickled
    operators are frozen again)."""
    for array in arrays:
        array.flags.writeable = False


class _ReadOnlyArrays:
    """A record whose array fields are read-only, also after unpickling."""

    def __post_init__(self) -> None:
        freeze(*(value for value in vars(self).values() if isinstance(value, np.ndarray)))

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__post_init__()


class TransientResult(NamedTuple):
    """A piecewise-constant power trace's trajectory, evaluated at a readout.

    ``samples`` has one row per sampled instant -- each interval's start
    state, then each of its implicit-Euler steps -- and one column per
    readout entry: node kelvin from :meth:`ThermalSolver.transient_sequence`,
    per-unit Celsius (each unit its hottest cell) from
    :meth:`repro.thermal.hotspot.HotSpotModel.transient_sequence`.  Interval
    ``i`` owns rows ``starts[i]:stops[i]``, and its first row equals the
    previous interval's last.  ``final_state_kelvin`` is the node state after
    the last interval, the start of a following trace.
    """

    samples: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    final_state_kelvin: np.ndarray


@dataclass(frozen=True)
class TransientOperator(_ReadOnlyArrays):
    """A transient's inputs and readout, reduced onto the ``(A, C)`` eigenbasis.

    ``rows @ fixed + boundary`` are the modal coordinates of each input
    row's fixed point ``A^-1 (rows @ injection + G_amb T_amb)``, and
    ``ambient`` those of a 1 K ambient shift; ``modal @ readout`` is a modal
    increment's kelvin at the readout cells ``cells`` (node indices).
    """

    fixed: np.ndarray
    boundary: np.ndarray
    ambient: np.ndarray
    readout: np.ndarray
    cells: np.ndarray


@dataclass(frozen=True)
class _Eigenbasis(_ReadOnlyArrays):
    """The pencil ``(A, C)`` diagonalised, as row-vector operators.

    With ``C^{-1/2} A C^{-1/2} = U diag(eigenvalues) U^T``, the modal
    coordinates of a node state ``T`` are ``T @ to_modal``
    (``= U^T C^{1/2} T``) and ``modal @ from_modal`` maps back; ``nodes``
    is the transient operator of node-space input read out at every node.
    """

    eigenvalues: np.ndarray
    to_modal: np.ndarray
    from_modal: np.ndarray
    nodes: TransientOperator


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
    once, on the first transient or the first
    :meth:`reduced_transient_operator`; a transient's step table once per
    distinct ``(dt, steps)`` pair (at most :data:`MAX_STEP_TABLES` kept).
    """

    def __init__(self, network: ThermalNetwork):
        self.network = network
        self._A = network.system_matrix()
        #: ``A^-T``: ``rhs_rows @ _steady_operator`` solves ``A T = rhs`` per row.
        self._steady_operator = np.linalg.inv(self._A).T
        self._boundary = network.ambient_conductance * network.ambient_kelvin
        freeze(self._steady_operator, self._boundary)
        #: Number of steady solves.  A multi-RHS batch counts once, so a
        #: fully batched steady experiment shows exactly one solve
        #: (regression guard for the epoch pipeline).
        self.steady_solve_count = 0
        #: Number of transients past their argument checks.
        self.transient_sequence_count = 0
        #: Number of whole-trace eigenbasis evaluations, one per sequence:
        #: equal to ``transient_sequence_count`` while every transient takes
        #: the closed form (the regression guard that it does).
        self.spectral_jump_count = 0
        self._spectral_basis: Optional[_Eigenbasis] = None
        #: ``(dt, steps)`` -> that interval's read-only step table (see
        #: :meth:`_step_table`), oldest first.
        self._step_tables: Dict[Tuple[float, int], np.ndarray] = {}
        # A chip configuration, and so its solver, may be shared by callers
        # on several threads; guard the lazily-built eigenbasis and
        # operators and the step-table store.
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
        freeze(self._steady_operator, self._boundary)
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _spectral(self) -> _Eigenbasis:
        """The eigenbasis, built on first use (see :meth:`_build_spectral`)."""
        basis = self._spectral_basis
        if basis is None:
            with self._cache_lock:
                basis = self._build_spectral()
        return basis

    def _build_spectral(self) -> _Eigenbasis:
        """Orthonormal eigenbasis of ``C^{-1/2} A C^{-1/2}`` (computed once;
        the caller holds ``_cache_lock``).

        ``A`` is symmetric positive definite and ``C`` diagonal positive, so
        the symmetrized pencil has real positive eigenvalues; in this basis
        one implicit-Euler step multiplies each mode by
        ``1 / (1 + dt * lambda)``.
        """
        if self._spectral_basis is None:
            c_sqrt = np.sqrt(self.network.capacitance)
            symmetric = self._A / np.outer(c_sqrt, c_sqrt)
            eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
            to_modal = c_sqrt[:, np.newaxis] * eigenvectors
            from_modal = eigenvectors.T / c_sqrt[np.newaxis, :]
            fixed = self._steady_operator @ to_modal
            self._spectral_basis = _Eigenbasis(
                eigenvalues=eigenvalues,
                to_modal=to_modal,
                from_modal=from_modal,
                nodes=TransientOperator(
                    fixed=fixed,
                    boundary=self._boundary @ fixed,
                    ambient=self.network.ambient_conductance @ fixed,
                    readout=from_modal,
                    cells=np.arange(self.network.num_nodes),
                ),
            )
        return self._spectral_basis

    def reduced_transient_operator(
        self, injection: np.ndarray, readout: np.ndarray
    ) -> TransientOperator:
        """The :class:`TransientOperator` of ``k`` inputs, each a node-space
        row of the ``(k, num_nodes)`` ``injection``, read out at the node
        indices ``readout``; built with the eigenbasis, under the solver's
        cache lock, as read-only arrays."""
        cells = np.asarray(readout, dtype=np.intp)
        with self._cache_lock:
            nodes = self._build_spectral().nodes
            return TransientOperator(
                fixed=injection @ nodes.fixed,
                boundary=nodes.boundary,
                ambient=nodes.ambient,
                readout=nodes.readout[:, cells],
                cells=cells,
            )

    def _step_table(self, basis: _Eigenbasis, dt: float, count: int) -> np.ndarray:
        """The read-only ``1 - mu^k`` rows (``k = 0..count``, one column per
        mode) of ``count`` steps of ``dt``; built once per pair and kept, at
        most :data:`MAX_STEP_TABLES` of them."""
        key = (dt, count)
        table = self._step_tables.get(key)
        if table is None:
            k = np.arange(count + 1, dtype=float)
            rise = -np.expm1(np.multiply.outer(-k, np.log1p(dt * basis.eigenvalues)))
            freeze(rise)
            with self._cache_lock:
                table = self._step_tables.setdefault(key, rise)
                if len(self._step_tables) > MAX_STEP_TABLES:
                    del self._step_tables[next(iter(self._step_tables))]
        return table

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
        self, injection: np.ndarray, readout
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(operator, offset)``: ``rows @ operator + offset`` equals
        ``steady_state_batch(rows @ injection)[:, readout]`` up to roundoff,
        for a ``(k, num_nodes)`` ``injection`` of ``k`` inputs; both are
        read-only."""
        columns = self._steady_operator[:, readout]
        operator, offset = injection @ columns, self._boundary @ columns
        freeze(operator, offset)
        return operator, offset

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
        """Integrate a piecewise-constant node-space power trace.

        Interval ``i`` lasts ``durations_s[i]`` seconds under the node-space
        power ``node_powers[i]`` (a ``(num_intervals, num_nodes)`` matrix);
        the result's samples are node kelvin.  This is
        :meth:`transient_reduced` through the identity injection, read out
        at every node; the arguments are checked first (positive finite
        durations, finite non-negative power of the right shape).
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
        powers = self._node_powers(
            node_powers, (durations.size, self.network.num_nodes)
        )
        return self.transient_reduced(
            self._spectral().nodes,
            durations,
            powers,
            initial_state,
            time_step_s,
            ambient_offsets_kelvin,
        )

    def transient_reduced(
        self,
        operator: TransientOperator,
        durations: np.ndarray,
        rows: np.ndarray,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        """The implicit-Euler trajectory of a validated trace at a readout.

        Interval ``i`` lasts ``durations[i]`` seconds (positive and finite)
        under input row ``rows[i]`` (finite, non-negative, as many entries
        as ``operator`` has inputs): the caller checked both, as a
        :class:`repro.power.trace.PowerTrace` does.  The result's
        ``samples`` are kelvin at ``operator``'s readout.

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
        if time_step_s is not None and not time_step_s > 0:
            raise ValueError(f"time_step_s must be positive, got {time_step_s}")
        offsets = None
        if ambient_offsets_kelvin is not None:
            offsets = np.asarray(ambient_offsets_kelvin, dtype=float)
            if offsets.shape != durations.shape:
                raise ValueError(
                    f"ambient_offsets_kelvin must have {durations.size} entries, "
                    f"got shape {offsets.shape}"
                )
            if not np.isfinite(offsets).all():
                raise ValueError("ambient offsets must be finite")
        network = self.network
        if initial_state is None:
            ambient = network.ambient_kelvin
            if offsets is not None:
                ambient = ambient + offsets[0]
            state = np.full(network.num_nodes, ambient, dtype=float)
        else:
            state = np.asarray(initial_state, dtype=float)
            if state.shape != (network.num_nodes,):
                raise ValueError("initial state has wrong number of nodes")
            if not np.isfinite(state).all():
                raise ValueError("initial state must be finite (no NaN or inf)")
        self.transient_sequence_count += 1
        _OBS_SEQUENCES.add()
        with _obs_span("thermal.transient_sequence", intervals=durations.size):
            return self._closed_form(operator, durations, rows, state, time_step_s, offsets)

    def _closed_form(
        self,
        operator: TransientOperator,
        durations: np.ndarray,
        rows: np.ndarray,
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
        state to the readout.  Each interval's start is the running sum of
        the earlier intervals' last increments, and the carried node state
        is the initial state plus the node-space sum of those increments
        (one ``(E, M) @ (M, N)`` product).

        The increment form ``T_0 + (1 - mu^k)(T* - T_0)``, with
        ``1 - mu^k = -expm1(-k log1p(dt lambda))``, keeps its precision when
        ``dt * lambda`` is far below machine epsilon: ``mu`` then rounds to
        1, and the equivalent ``T* + mu^k (T_0 - T*)`` would cancel two huge
        numbers where the increment tends to the deposited energy over
        ``C``.  The ``1 - mu^k`` tables are built once per distinct
        ``(dt, steps)`` pair the solver meets and kept on it
        (:meth:`_step_table`), so a trace reuses its earlier traces' tables;
        a trace whose intervals share one pair reads its one table by
        broadcasting.
        """
        basis = self._spectral()
        count = durations.size
        self.spectral_jump_count += 1
        _OBS_SPECTRAL_JUMPS.add()

        # Row k of an interval's table is ``1 - mu^k`` for k = 0..steps;
        # k = 0 is the interval's start state.  ``head`` holds the last row
        # of every interval but the final one, ``tail`` that of every one.
        shortest = np.minimum.reduce(durations)
        shared = shortest == np.maximum.reduce(durations)
        if shared:
            # One (dt, steps) pair covers the trace: its one table is read by
            # broadcasting, interval by interval.
            duration = float(shortest)
            dt = min(duration / 200.0, 1e-3) if time_step_s is None else time_step_s
            dt = float(min(dt, duration))
            per = max(1, round(duration / dt)) + 1
            rise = self._step_table(basis, dt, per - 1)
            stops = np.arange(per, per * count + 1, per)
            head = tail = rise[-1]
        else:
            requested = (
                np.minimum(durations / 200.0, 1e-3) if time_step_s is None else time_step_s
            )
            time_steps = np.minimum(requested, durations)
            steps = np.maximum(1, np.rint(durations / time_steps)).astype(np.int64)
            keys = list(zip(time_steps.tolist(), steps.tolist()))
            tables = {key: self._step_table(basis, *key) for key in dict.fromkeys(keys)}
            rise = np.concatenate([tables[key] for key in keys])
            per = steps + 1
            stops = per.cumsum()
            tail = rise[stops - 1]
            head = tail[:-1]

        modal_fixed = rows @ operator.fixed
        modal_fixed += operator.boundary
        if offsets is not None:
            modal_fixed += offsets[:, np.newaxis] * operator.ambient

        # Modal start states: s_{i+1} = mu_i s_i + (1 - mu_i) m(T*_i), with
        # mu_i the decay over interval i's whole step count.  A doubling
        # scan composes these affine maps, so after it map i takes s_0 to
        # s_{i+1} in one multiply-add.  (Each update works in place on a
        # view of its array; a ufunc reads an overlapping input as it was.)
        pulls = head * modal_fixed[:-1]
        factors = np.subtract(1.0, head, out=np.empty_like(pulls))
        shift = 1
        while shift < len(factors):
            later_pulls = pulls[shift:]
            later_pulls += factors[shift:] * pulls[:-shift]
            later_factors = factors[shift:]
            later_factors *= factors[:-shift]
            shift *= 2
        modal_start = state @ basis.to_modal
        gaps = modal_fixed
        gaps[0] -= modal_start
        later_gaps = gaps[1:]
        later_gaps -= factors * modal_start + pulls

        # Every sample's increment over its interval's start, at the readout.
        if shared:
            increments = (rise * gaps[:, np.newaxis, :]).reshape(-1, rise.shape[1])
        else:
            increments = rise * gaps.repeat(per, axis=0)
        samples = increments @ operator.readout
        # Each start is the previous start plus that interval's last
        # increment, added in the same order as its last row below, so an
        # interval's t=0 row equals the previous interval's last row exactly.
        starts = np.empty((count, samples.shape[1]))
        starts[0] = state[operator.cells]
        starts[1:] = samples[stops[:-1] - 1]
        np.add.accumulate(starts, axis=0, out=starts)
        if shared:
            by_interval = samples.reshape(count, per, -1)
            by_interval += starts[:, np.newaxis, :]
        else:
            samples += starts.repeat(per, axis=0)
        # The carried node state: the start plus every interval's last
        # increment, summed in the same order in node space.
        carried = (tail * gaps) @ basis.from_modal
        carried[0] += state
        return TransientResult(samples, stops - per, stops, np.add.reduce(carried))
