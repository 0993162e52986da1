"""LU-factorisation thermal solves, kept as the oracle for the dense operators.

:class:`repro.thermal.solver.ThermalSolver` applies precomputed dense
inverses: ``A^-1`` for steady states and ``(C/dt + A)^-1`` for each
implicit-Euler step.  :class:`LuSolver` is the path it replaced: one scipy
``lu_factor`` of ``A`` solved against with ``lu_solve``, and the Euler loop
stepping an ``lu_factor`` of ``C/dt + A`` per distinct time step.  The
interval layout (step choice, interval bounds, cold start at the first
interval's ambient) is the runtime's, and a transient returns the runtime's
:class:`repro.thermal.solver.TransientResult` read out at every node, so
results compare field for field with ``ThermalSolver.transient_sequence``;
:func:`unit_readout.unit_celsius` reads one out per unit, as
``HotSpotModel.transient_sequence`` reports.

Test files import it by module name: ``tests/thermal`` is on ``sys.path``
for the tests in this directory, and other directories add it themselves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from repro.thermal.rc_model import ThermalNetwork
from repro.thermal.solver import TransientResult


class LuSolver:
    """Steady solves and the implicit-Euler loop through LU factorisations."""

    def __init__(self, network: ThermalNetwork):
        self.network = network
        self._A = network.system_matrix()
        self._A_factor = lu_factor(self._A)
        self._boundary = network.ambient_conductance * network.ambient_kelvin
        self._step_factors: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    def steady_state_batch(self, node_power_matrix: np.ndarray) -> np.ndarray:
        """``(num_rows, num_nodes)`` steady kelvin, one multi-RHS ``lu_solve``."""
        rhs = np.asarray(node_power_matrix, dtype=float) + self._boundary[np.newaxis, :]
        return lu_solve(self._A_factor, rhs.T).T

    def _step_factor(self, time_step_s: float) -> Tuple[np.ndarray, np.ndarray]:
        if time_step_s not in self._step_factors:
            c_over_dt = self.network.capacitance / time_step_s
            self._step_factors[time_step_s] = lu_factor(np.diag(c_over_dt) + self._A)
        return self._step_factors[time_step_s]

    def transient_sequence(
        self,
        durations_s,
        node_powers: np.ndarray,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        """Implicit-Euler integration of a piecewise-constant power trace,
        every step's state sampled at every node (kelvin)."""
        network = self.network
        durations = [float(duration) for duration in durations_s]
        offsets = (
            np.zeros(len(durations))
            if ambient_offsets_kelvin is None
            else np.asarray(ambient_offsets_kelvin, dtype=float)
        )
        if initial_state is None:
            state = np.full(network.num_nodes, network.ambient_kelvin + offsets[0])
        else:
            state = np.asarray(initial_state, dtype=float).copy()
        histories: List[np.ndarray] = []
        stops: List[int] = []
        for index, duration in enumerate(durations):
            rhs_const = (
                node_powers[index]
                + self._boundary
                + offsets[index] * network.ambient_conductance
            )
            dt = time_step_s if time_step_s is not None else min(duration / 200.0, 1e-3)
            dt = min(dt, duration)
            steps = max(1, int(round(duration / dt)))
            factor = self._step_factor(dt)
            c_over_dt = network.capacitance / dt
            history = np.empty((steps + 1, network.num_nodes))
            history[0] = state
            for k in range(steps):
                state = lu_solve(factor, c_over_dt * state + rhs_const)
                history[k + 1] = state
            histories.append(history)
            stops.append((stops[-1] if stops else 0) + steps + 1)
        ends = np.array(stops)
        return TransientResult(
            samples=np.concatenate(histories),
            starts=np.concatenate(([0], ends[:-1])),
            stops=ends,
            final_state_kelvin=state.copy(),
        )
