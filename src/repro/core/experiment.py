"""The end-to-end thermal experiment driver.

:class:`ThermalExperiment` couples a chip configuration, a reconfiguration
policy, the migration cost model and the thermal solver, and produces the
numbers the paper reports:

* **Figure 1** — reduction in peak temperature per configuration per
  migration scheme, via :meth:`ThermalExperiment.run` in ``"steady"`` mode
  (the long-run periodic regime: spatially, the die sees the time-averaged
  power of the migration orbit, plus the migration energy);
* **Section 3's period sweep** — throughput penalty and residual peak ripple
  as a function of the migration period, via ``"transient"`` mode, which
  integrates the RC network over the actual sequence of epochs starting from
  the settled regime.

The pipeline is array-native end to end.  The policy/controller loop runs
in chunks: the policy decides once per epoch and the controller's cursor
walks its memoized migration orbit, each chunk's power rows are gathered
at once from the walked tracks, and each window is one validated
:class:`repro.power.trace.PowerTrace`.  Steady
mode evaluates the baseline, every epoch and the settled-regime average with
**one** product against the solver's precomputed inverse, and transient mode
routes the whole piecewise-constant trace through **one**
``transient_sequence`` call with thermal state carried across epochs.  The
result keeps per-epoch
columns (:class:`~repro.core.metrics.EpochColumns`); dict views,
:class:`~repro.core.metrics.EpochRecord` and
:class:`~repro.core.metrics.ThermalMetrics` are built only at the report
edge, a record when it is read (the baseline and settled-regime figures are
a row's maximum and mean).
Policies that declare ``requires_thermal_feedback`` (threshold/adaptive)
decide on a per-unit Celsius row from a :class:`FeedbackPlan`: one
multi-RHS steady batch per ``feedback_stride`` epochs instead of a
dict-round-tripped solve per epoch.
The :class:`repro.thermal.hotspot.HotSpotModel` drives the experiment at
any resolution: block (one cell per unit) or grid (``N x N`` cells).

The driver is **window-native**: :meth:`ThermalExperiment.prepare` arms the
run, :meth:`ThermalExperiment.step_window` advances it by any number of
epochs (one batched steady solve or one ``transient_sequence`` call per
window, thermal state, feedback state and the settled-regime rings carried
across window boundaries in constant memory), and
:meth:`ThermalExperiment.finalize` assembles the
:class:`repro.core.metrics.ExperimentResult`.  The classic whole-horizon
:meth:`run` is literally one window — ``prepare(); step_window(schedule,
is_last=True); finalize()`` — so batch and streaming
(:mod:`repro.stream`) share one code path and one set of numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..chips.configurations import ChipConfiguration
from ..migration.plan import MIGRATION_STYLES, congestion_factor
from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from ..power.trace import PowerTrace
from ..thermal.hotspot import HotSpotModel
from .controller import MigrationEvent, RuntimeReconfigurationController, _read_only
from .metrics import EpochColumns, ExperimentResult, PerformanceMetrics
from .policy import PolicyContext, ReconfigurationPolicy

if TYPE_CHECKING:
    from ..stream.window import EpochWindow

#: Policy decisions dropped because a staged migration was still unfolding.
_OBS_STALLED = _obs_counter("migration.stalled_epochs")

#: Fraction of final epochs that form the settled regime when
#: ``ExperimentSettings.settle_epochs`` is unset.
SETTLE_FRACTION = 0.5


@dataclass
class ExperimentSettings:
    """Knobs of the experiment driver."""

    #: Number of migration periods to simulate.
    num_epochs: int = 60
    #: "steady" (time-averaged power, the Figure 1 mode) or "transient"
    #: (integrate the RC network epoch by epoch from the settled regime).
    mode: str = "steady"
    #: Include migration energy in the power maps (the paper does).
    include_migration_energy: bool = True
    #: Explicit number of settled epochs; ``None`` settles over the final
    #: :data:`SETTLE_FRACTION` of the run.  Choosing a multiple of the
    #: transform's orbit length (e.g. 20 or 40, which divides by 2, 4 and 5)
    #: makes the time average exact.  A streamed run with an unknown horizon
    #: *requires* an explicit settled window (here or via
    #: ``prepare(settled_capacity=...)``) because the fraction has nothing
    #: to take a fraction of.
    settle_epochs: Optional[int] = None
    #: Implicit-Euler steps per epoch in transient mode.
    transient_steps_per_epoch: int = 8
    #: Feedback refresh stride *k*: policies that require thermal feedback
    #: see temperatures re-evaluated every ``k`` epochs with one multi-RHS
    #: batch per refresh (``ceil(num_epochs / k)`` steady solves in total,
    #: the epoch-0 probe included).  ``k=1`` reproduces the per-epoch
    #: feedback trajectory exactly; larger strides trade feedback freshness
    #: for solve count (see :class:`FeedbackPlan`).
    feedback_stride: int = 1
    #: What feedback policies see *between* refreshes (zero solves either
    #: way): "hold" repeats the most recently solved temperatures, "previous"
    #: answers epoch ``i``'s decision (which wants the temperatures of power
    #: row ``i-1``) with the solved row of epoch ``i - 1 -
    #: feedback_stride`` — the same orbit phase, one chunk earlier (exact
    #: for orbit-periodic workloads when the stride is a multiple of the
    #: transform orbit).
    feedback_predictor: str = "hold"
    #: How a migration unfolds: "sudden" applies the whole transform in the
    #: deciding epoch (a one-stage plan); "fluid" moves ~``units_per_epoch``
    #: PEs per epoch (whole permutation cycles, so the mid-plan mapping stays
    #: a valid permutation); "batched" executes one link-disjoint phase group
    #: per epoch.  See :mod:`repro.migration.plan`.
    migration_style: str = "sudden"
    #: Per-epoch PE budget of a "fluid" plan (cycles are atomic, so a cycle
    #: longer than the budget still runs in one epoch).
    units_per_epoch: int = 2

    def __post_init__(self) -> None:
        if self.num_epochs < 1:
            raise ValueError("at least one epoch is required")
        if self.mode not in ("steady", "transient"):
            raise ValueError("mode must be 'steady' or 'transient'")
        if self.settle_epochs is not None and not 1 <= self.settle_epochs <= self.num_epochs:
            raise ValueError("settle_epochs must be between 1 and num_epochs")
        if self.transient_steps_per_epoch < 1:
            raise ValueError("transient_steps_per_epoch must be at least 1")
        if self.feedback_stride < 1:
            raise ValueError("feedback_stride must be at least 1")
        if self.feedback_predictor not in ("hold", "previous"):
            raise ValueError("feedback_predictor must be 'hold' or 'previous'")
        if self.migration_style not in MIGRATION_STYLES:
            raise ValueError(
                f"migration_style must be one of {MIGRATION_STYLES}, "
                f"got {self.migration_style!r}"
            )
        if self.units_per_epoch < 1:
            raise ValueError("units_per_epoch must be at least 1")

    def settled_count(self, available_epochs: int) -> int:
        """Number of final epochs that form the settled regime."""
        if self.settle_epochs is not None:
            return min(self.settle_epochs, available_epochs)
        return max(1, int(available_epochs * SETTLE_FRACTION))


class FeedbackPlan:
    """Chunked thermal feedback for threshold/adaptive policies.

    Feedback policies decide on the predicted steady temperature of the
    previous epoch's power, a read-only per-unit Celsius row
    (:meth:`thermal_for`; the same rows are the plan's checkpoint state):

    * power rows are queued as the experiment emits them, a chunk at a
      time (:meth:`observe`), after the static power's epoch-0 probe row;
    * at every ``stride``-th epoch boundary the queue is flushed through
      **one** multi-RHS :meth:`HotSpotModel.steady_temperatures` batch, the
      per-epoch ambient offsets added to the solved rows;
    * between refreshes the policy sees a **zero-solve** stand-in: the
      "hold" predictor repeats the newest solved row, the "previous"
      predictor reuses the previous batch's temperatures row-for-row (the
      decision at epoch ``i`` wants ``T(P[i-1])`` and gets the solved row
      of epoch ``i - 1 - stride`` — the same orbit phase, one chunk
      earlier; exact for orbit-periodic traces when the stride is a
      multiple of the transform orbit).

    A run of ``E`` epochs performs exactly ``ceil(E / stride)`` steady
    solves here; with ``stride=1`` every decision sees exactly what the
    seed per-epoch path produced (to solver precision), because each
    refresh then solves precisely the one previous-epoch row.

    The queue and the newest batch are 2-D arrays of consecutive epochs,
    each tagged by its first epoch; neither is ever written in place (a
    chunk is queued by concatenation), so a :meth:`state_dict` holds them
    without copying.  Ambient offsets arrive per epoch window via
    :meth:`add_offsets`; a queued row takes its offset as it is queued, so
    the plan keeps no offsets beyond those of its queued rows.
    """

    #: Queue tag for the pre-experiment static power (the epoch-0 probe);
    #: it reads the epoch-0 ambient offset, like the seed probe did.
    PROBE = -1

    def __init__(
        self,
        thermal_model: HotSpotModel,
        stride: int,
        predictor: str = "hold",
    ):
        if stride < 1:
            raise ValueError("feedback stride must be at least 1")
        if predictor not in ("hold", "previous"):
            raise ValueError("feedback predictor must be 'hold' or 'previous'")
        self.thermal_model = thermal_model
        self.stride = stride
        self.predictor = predictor
        #: Number of multi-RHS feedback batches solved so far.
        self.batch_solves = 0
        #: Total power rows evaluated across those batches.
        self.rows_solved = 0
        #: Decisions served from a predictor instead of a fresh solve.
        self.predictions_served = 0
        num_units = thermal_model.topology.num_nodes
        self._no_rows = _read_only(np.empty((0, num_units)))
        self._no_offsets = _read_only(np.empty(0))
        #: Queued power rows (epochs ``_pending_epoch + i``) and the ambient
        #: offset each one's temperatures take.
        self._pending = self._no_rows
        self._pending_offsets = self._no_offsets
        self._pending_epoch = self.PROBE
        #: The newest batch's read-only Celsius rows (offsets applied), of
        #: epochs ``_solved_epoch + i``; None before the first refresh.
        self._solved: Optional[np.ndarray] = None
        self._solved_epoch = self.PROBE
        #: The current window's ambient offsets (None: all 0.0) and its
        #: first epoch, registered by :meth:`add_offsets`.
        self._offsets: Optional[np.ndarray] = None
        self._offsets_start = 0

    # ------------------------------------------------------------------
    def prime(self, static_power: np.ndarray) -> None:
        """Queue the pre-experiment static power as the epoch-0 probe row."""
        self._pending = np.array(static_power, dtype=float, ndmin=2)
        self._pending_offsets = np.zeros(1)
        self._pending_epoch = self.PROBE

    def observe(self, start_epoch: int, power_rows: np.ndarray) -> None:
        """Queue the emitted power rows of epochs ``start_epoch + i``.

        A chunk never spans a refresh boundary, so every row a refresh reads
        was queued before it.  Rows arrive in epoch order: a chunk that does
        not start at the epoch after the queued rows raises ``ValueError``.
        """
        expected = self._pending_epoch + len(self._pending)
        if start_epoch != expected:
            raise ValueError(
                f"feedback rows of epoch {start_epoch} queued after epoch {expected - 1}"
            )
        count = len(power_rows)
        offsets = self._offsets
        if offsets is None:
            chunk_offsets = np.zeros(count)
        else:
            first = start_epoch - self._offsets_start
            chunk_offsets = offsets[first : first + count]
        self._pending = np.concatenate((self._pending, power_rows))
        self._pending_offsets = np.concatenate((self._pending_offsets, chunk_offsets))

    def add_offsets(self, start_epoch: int, offsets: Optional[np.ndarray]) -> None:
        """Register the ambient offsets of the window of epochs ``start_epoch + i``.

        Rows that window emits take their offsets as they are queued; a
        queued probe takes epoch 0's.
        """
        self._offsets = offsets
        self._offsets_start = start_epoch
        if offsets is not None and start_epoch == 0 and self._pending_epoch == self.PROBE:
            probe_offsets = self._pending_offsets.copy()
            probe_offsets[0] = offsets[0]
            self._pending_offsets = probe_offsets

    # ------------------------------------------------------------------
    def thermal_for(self, epoch_index: int) -> np.ndarray:
        """Per-unit Celsius feedback for the decision at ``epoch_index``.

        Refreshes on every ``stride``-th epoch: every row queued since the
        last refresh is evaluated with one multi-RHS steady batch, which
        also refuses a non-finite or negative row before a decision reads
        it.  Between refreshes the configured predictor answers at zero
        solves.
        """
        if epoch_index % self.stride == 0:
            rows = self._pending
            count = len(rows)
            if count:
                solved = self.thermal_model.steady_temperatures(rows)
                solved += self._pending_offsets[:, np.newaxis]
                # Policies receive these rows and checkpoints carry them:
                # freeze them.
                solved.flags.writeable = False
                self.batch_solves += 1
                self.rows_solved += count
                self._solved = solved
                self._solved_epoch = self._pending_epoch
                self._pending_epoch += count
                self._pending = self._no_rows
                self._pending_offsets = self._no_offsets
        else:
            self.predictions_served += 1
            if self.predictor == "previous" and self._solved is not None:
                # The decision at epoch i wants T(P[i-1]); the newest batch
                # holds the solved row of epoch i-1-stride — the same orbit
                # phase, one chunk earlier.
                index = epoch_index - 1 - self.stride - self._solved_epoch
                if 0 <= index < len(self._solved):
                    return self._solved[index]
        if self._solved is None:
            raise RuntimeError(
                "FeedbackPlan.thermal_for called before any row was queued; "
                "prime() the plan with the static power first"
            )
        # The newest solved row: the batch's last epoch.
        return self._solved[-1]

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the carried feedback state (float arrays as arrays).

        The queued rows and their offsets, the newest solved batch, each
        tagged by its first epoch, and the counters — everything a resumed
        stream needs to keep the refresh cadence and predictor answers
        bit-identical.  The arrays are the plan's own (never written in
        place), so the snapshot copies nothing.
        """
        return {
            "pending_epoch": self._pending_epoch,
            "pending_rows": self._pending,
            "pending_offsets": self._pending_offsets,
            "solved_epoch": self._solved_epoch,
            "solved_rows": self._solved,
            "batch_solves": self.batch_solves,
            "rows_solved": self.rows_solved,
            "predictions_served": self.predictions_served,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`; raises ``ValueError`` for rows of
        the wrong width or offsets that do not match the queued rows."""
        num_units = self._no_rows.shape[1]
        pending = _unit_rows(state["pending_rows"], num_units, "queued feedback rows")
        offsets = np.asarray(state["pending_offsets"], dtype=float)
        if offsets.shape != (len(pending),):
            raise ValueError(
                f"{len(pending)} queued feedback rows carry offsets of shape "
                f"{offsets.shape}"
            )
        solved = state["solved_rows"]
        if solved is not None:
            solved = _unit_rows(solved, num_units, "solved feedback rows")
            if not len(solved):
                raise ValueError("a solved feedback batch has at least one row")
            if solved.flags.writeable:
                solved = _read_only(solved.copy())
        self._pending = pending
        self._pending_offsets = offsets
        self._pending_epoch = int(state["pending_epoch"])  # type: ignore[arg-type]
        self._solved = solved
        self._solved_epoch = int(state["solved_epoch"])  # type: ignore[arg-type]
        self.batch_solves = int(state["batch_solves"])  # type: ignore[arg-type]
        self.rows_solved = int(state["rows_solved"])  # type: ignore[arg-type]
        self.predictions_served = int(state["predictions_served"])  # type: ignore[arg-type]


def _ring(ring: np.ndarray, values: np.ndarray, capacity: int) -> np.ndarray:
    """The newest ``capacity`` entries of ``ring`` extended by ``values``.

    A new array (its base holds at most ``2 * capacity`` entries); neither
    input is written, so a ring held by a checkpoint snapshot never moves.
    """
    return np.concatenate((ring, values[-capacity:]))[-capacity:]


def _unit_rows(rows, num_units: int, what: str) -> np.ndarray:
    """``rows`` as a float ``(k, num_units)`` array (an empty list is no
    rows); ``ValueError`` otherwise."""
    array = np.asarray(rows, dtype=float)
    if array.size == 0:
        array = array.reshape(0, num_units)
    if array.ndim != 2 or array.shape[1] != num_units:
        raise ValueError(
            f"{what} must have {num_units} units per row, got shape {array.shape}"
        )
    return array


@dataclass
class WindowOutcome:
    """Everything one stepped window produced (window-local views).

    ``costs`` holds the :class:`MigrationEvent` of the stage each epoch
    executed, or None: the one record of the window's migrations (no
    component keeps a log of them).  ``epoch_metrics`` is the window's ``(num_epochs, num_units)`` per-unit
    Celsius rows; it and ``peak_by_epoch``/``mean_by_epoch`` (each row's
    maximum and mean) are indexed by the window-local epoch (global index
    ``start_epoch + i``).  The baseline and settled-regime figures live on
    the experiment and surface in :meth:`ThermalExperiment.finalize`.
    """

    start_epoch: int
    num_epochs: int
    trace: PowerTrace
    costs: List[Optional[MigrationEvent]]
    epoch_metrics: np.ndarray
    peak_by_epoch: np.ndarray
    mean_by_epoch: np.ndarray


class ThermalExperiment:
    """Runs one (configuration, policy) experiment.

    ``thermal_model`` overrides the configuration's default block-level model
    with another :class:`repro.thermal.hotspot.HotSpotModel` (e.g. one at
    ``resolution=3`` for the grid ablation); the batched pipeline is
    identical either way.

    ``schedule`` is the scenario hook (see :mod:`repro.scenarios`): an
    :class:`repro.stream.window.EpochWindow` of ``settings.num_epochs``
    epochs whose channels :meth:`run` steps through.  Its load modulation
    scales each epoch's power row as it is emitted (so feedback policies see
    the modulated chip), and its ambient offsets shift each
    epoch's ambient boundary.  Both modes are exact.  In steady mode the RC
    network's conduction block conserves energy, so a uniform ambient change
    moves every steady temperature by exactly that amount — the per-epoch
    offsets are added after the one batched solve.  In transient mode the
    ambient forcing ``G_amb * T_amb(t)`` is affine in the RHS, so the offsets
    ride into the single ``transient_sequence`` call as a per-interval
    boundary term (and the warm start uses the epoch-0 ambient): the RC
    network actually integrates the time-varying ambient, at no extra
    solves.  The static baseline is always reported at the nominal ambient
    with unmodulated load.

    Besides the whole-horizon :meth:`run`, the experiment exposes the
    windowed lifecycle it is built from: :meth:`prepare` /
    :meth:`step_window` / :meth:`finalize`, with :meth:`state_dict` /
    :meth:`restore_state` snapshotting the carried state between windows for
    checkpoint/resume (see :mod:`repro.stream`).
    """

    def __init__(
        self,
        configuration: ChipConfiguration,
        policy: ReconfigurationPolicy,
        settings: Optional[ExperimentSettings] = None,
        thermal_model: Optional[HotSpotModel] = None,
        schedule: Optional[EpochWindow] = None,
        noc_model=None,
    ):
        self.configuration = configuration
        self.policy = policy
        self.settings = settings or ExperimentSettings()
        self.thermal_model: HotSpotModel = thermal_model or configuration.thermal_model
        self.controller = RuntimeReconfigurationController(
            configuration,
            include_migration_energy=self.settings.include_migration_energy,
        )
        if schedule is None:
            # Imported here because the repro.stream package imports this module.
            from ..stream.window import EpochWindow

            schedule = EpochWindow(num_epochs=self.settings.num_epochs)
        elif schedule.num_epochs != self.settings.num_epochs:
            raise ValueError(
                f"schedule covers {schedule.num_epochs} epochs, settings run "
                f"{self.settings.num_epochs}"
            )
        #: The whole run's per-epoch channels; epoch ``i`` of a
        #: ``period_scale`` channel lasts ``period_us * period_scale[i]``.
        self.schedule: EpochWindow = schedule
        #: Optional NoC pricing model
        #: (:class:`repro.noc.analytic.AnalyticModel`): with a window's
        #: ``noc_rates``, each executed plan stage's transfer cycles are
        #: inflated by the epoch's congestion factor.
        self.noc_model = noc_model
        #: The chunked feedback evaluator of the most recent run (None for
        #: feedback-free policies); exposes batch/row counters for tests.
        self.feedback_plan: Optional[FeedbackPlan] = None
        self._active = False

    # ------------------------------------------------------------------
    @property
    def next_epoch(self) -> int:
        """Global index of the next epoch a stepped window would start at."""
        if not self._active:
            raise RuntimeError("next_epoch is only defined for a prepared run")
        return self._next_epoch

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Run the configured experiment and return its result.

        The batch path is one window of the streaming lifecycle: prepare,
        step the whole horizon as a single window (so steady mode is still
        exactly one multi-RHS solve and transient mode one
        ``transient_sequence`` call), finalize.
        """
        with _obs_span(
            "experiment.run",
            mode=self.settings.mode,
            epochs=self.settings.num_epochs,
        ):
            self.prepare(total_epochs=self.settings.num_epochs, collect_records=True)
            self.step_window(self.schedule, is_last=True)
            return self.finalize()

    # ------------------------------------------------------------------
    # Windowed lifecycle
    # ------------------------------------------------------------------
    def prepare(
        self,
        total_epochs: Optional[int] = None,
        settled_capacity: Optional[int] = None,
        collect_records: bool = False,
        warm_power: Optional[np.ndarray] = None,
    ) -> None:
        """Arm a fresh run: reset policy/controller, initialise carried state.

        ``total_epochs`` sizes the settled-regime window from the settings
        when the horizon is known (the batch path); an unbounded stream
        instead gives ``settled_capacity`` explicitly (or sets
        ``settings.settle_epochs``).  ``collect_records`` keeps every
        window's per-epoch columns for the result's ``epochs`` — batch
        semantics; streaming leaves it off so memory stays constant.
        ``warm_power`` overrides the transient warm-start power (by default
        the first window's time-weighted average, which for a single
        whole-horizon window is exactly the batch warm start).
        """
        self.policy.reset()
        self.controller.reset()
        if total_epochs is not None:
            capacity = self.settings.settled_count(total_epochs)
        elif settled_capacity is not None:
            if settled_capacity < 1:
                raise ValueError("settled_capacity must be at least 1")
            capacity = settled_capacity
        elif self.settings.settle_epochs is not None:
            capacity = self.settings.settle_epochs
        else:
            raise ValueError(
                "streaming with an unknown horizon needs an explicit settled "
                "window: set settings.settle_epochs or pass "
                "prepare(settled_capacity=...) — a fraction of an unknown "
                "horizon is undefined"
            )
        self._settled_capacity = capacity
        self._collect_records = collect_records
        #: Per collected window: its power rows, Celsius rows and events.
        self._column_windows: List[Tuple[np.ndarray, np.ndarray, list]] = []
        self._next_epoch = 0
        self._baseline_peak: Optional[float] = None
        self._baseline_mean: Optional[float] = None
        self._settled_peak: Optional[float] = None
        self._settled_mean: Optional[float] = None
        #: Transient mode's carried RC state (None until the warm start).
        self._thermal_state: Optional[np.ndarray] = None
        self._warm_power = (
            np.asarray(warm_power, dtype=float) if warm_power is not None else None
        )
        # Constant-memory settled-regime state: steady mode remembers the
        # last `capacity` power rows (+ their ambient offsets, 0.0 where an
        # epoch had none) so the settled mean can ride the final window's
        # batch; transient mode only needs the per-epoch (peak, mean) scalars.
        # Each ring is an array replaced window by window (see _ring).
        num_units = self.configuration.topology.num_nodes
        self._power_ring = np.empty((0, num_units))
        self._offset_ring = np.empty(0)
        self._peak_ring = np.empty(0)
        self._mean_ring = np.empty(0)
        period_s = self.policy.period_us * 1e-6
        self._period_cycles = self.configuration.block_period_cycles(
            self.policy.period_us
        )
        self._time_step = period_s / self.settings.transient_steps_per_epoch
        # Workload cycles actually run, accumulated per epoch so a per-epoch
        # period schedule (the scenario ``period`` channel) is accounted
        # exactly; with a fixed period this equals the legacy
        # ``period_cycles * epochs_run`` product to the integer.
        self._cycles_run = 0
        plan: Optional[FeedbackPlan] = None
        if self.policy.requires_thermal_feedback:
            plan = FeedbackPlan(
                self.thermal_model,
                stride=self.settings.feedback_stride,
                predictor=self.settings.feedback_predictor,
            )
            plan.prime(self.controller.static_power_vector())
        self.feedback_plan = plan
        self._active = True

    def step_window(
        self, window: EpochWindow, *, is_last: bool = False
    ) -> WindowOutcome:
        """Advance the run by ``window.num_epochs`` epochs as one batched window.

        Runs the policy/controller loop over the window, then evaluates it
        with exactly one multi-RHS steady solve (steady mode; the static
        baseline rides the first window's batch and the settled-regime
        average rides the last's) or one ``transient_sequence`` call
        (transient mode; thermal state carried across window boundaries).
        The window's channels are window-local: load modulation scales the
        power rows, ambient offsets shift the ambient boundary,
        ``period_scale`` multiplies each epoch's migration period and
        ``noc_rates`` congestion-price staged migrations.  ``is_last`` folds
        the settled-regime evaluation into this window's batch; a stream that
        simply stops computes it in :meth:`finalize` instead (one extra
        solve in steady mode).

        A period that rounds to 0.0 or inf seconds, or a load modulation of
        the wrong unit count, raises ``ValueError`` before any state moves.
        A refusal once the loop has run (a non-finite temperature) ends the
        run, whose state has moved: later calls raise ``RuntimeError``.
        """
        if not self._active:
            raise RuntimeError("call prepare() before step_window()")
        # Refused here, a window moves no state.
        modulation = window.modulation_matrix(self.configuration.topology.num_nodes)
        periods_s, cycles = self._window_periods(window)
        offsets = window.ambient_offsets
        start_epoch = self._next_epoch
        try:
            trace, costs = self._loop_window(window, modulation, periods_s)
            self._cycles_run += cycles
            if self.settings.mode == "steady":
                capacity = self._settled_capacity
                self._power_ring = _ring(self._power_ring, trace.powers, capacity)
                self._offset_ring = _ring(
                    self._offset_ring,
                    offsets if offsets is not None else np.zeros(len(trace)),
                    capacity,
                )
                outcome = self._step_steady(trace, costs, offsets, start_epoch, is_last)
            else:
                outcome = self._step_transient(
                    trace, costs, offsets, start_epoch, is_last
                )
        except BaseException:
            # A half-advanced run must not be stepped, saved or reported.
            self._active = False
            raise
        if self._collect_records:
            self._column_windows.append((trace.powers, outcome.epoch_metrics, costs))
        return outcome

    def finalize(self) -> ExperimentResult:
        """Assemble the :class:`ExperimentResult` of the stepped windows.

        If no window was stepped with ``is_last=True`` (a stream that simply
        stopped), the settled-regime statistics are computed here from the
        carried rings — at the cost of one extra steady solve in steady
        mode; transient mode already has the per-epoch scalars.
        """
        if not self._active:
            raise RuntimeError("call prepare() and step_window() before finalize()")
        if self._next_epoch == 0:
            raise RuntimeError("finalize() needs at least one stepped window")
        if self._settled_peak is None:
            self._compute_settled_late()
        result = ExperimentResult(
            configuration_name=self.configuration.name,
            scheme_name=self.policy.name,
            period_us=self.policy.period_us,
            baseline_peak_celsius=self._baseline_peak,
            baseline_mean_celsius=self._baseline_mean,
            epochs=self._epoch_columns(),
            # Cycles are accumulated per epoch, so a scenario ``period``
            # schedule is accounted exactly.
            performance=PerformanceMetrics(
                total_cycles=self._cycles_run,
                migration_cycles=min(
                    self.controller.total_migration_cycles, self._cycles_run
                ),
                migrations_performed=self.controller.migrations_performed,
            ),
            total_migration_energy_j=self.controller.total_migration_energy_j,
            settled_peak_celsius=self._settled_peak,
            settled_mean_celsius=self._settled_mean,
        )
        self._active = False
        return result

    def _epoch_columns(self) -> EpochColumns:
        """The collected windows' record columns, concatenated."""
        topology = self.configuration.topology
        empty = np.empty((0, topology.num_nodes))
        powers, celsius, costs = zip(*self._column_windows or [(empty, empty, [])])
        idle = (None, 0, 0.0)
        columns = [
            (event.transform_name, event.cycles, event.energy_j) if event else idle
            for window in costs
            for event in window
        ]
        transforms, cycles, energy = zip(*columns) if columns else ((), (), ())
        return EpochColumns(
            topology,
            power=np.concatenate(powers),
            celsius=np.concatenate(celsius),
            transforms=list(transforms),
            cycles=np.array(cycles, dtype=np.int64),
            energy=np.array(energy, dtype=float),
            first_epoch=self._next_epoch - len(columns),
        )

    def _compute_settled_late(self) -> None:
        """Settled statistics for a run that never stepped an ``is_last`` window."""
        if self.settings.mode == "steady":
            power, offset = self._settled_power()
            values = self.thermal_model.steady_temperatures(power[np.newaxis, :])[0]
            self._set_settled(values + offset)
        else:
            self._set_settled_from_rings()

    def _settled_power(self) -> Tuple[np.ndarray, float]:
        """Steady mode's settled-regime power row (the mean of the final
        epochs, one or more full orbits of the transform) and the mean
        ambient offset its temperatures take."""
        return self._power_ring.mean(axis=0), float(self._offset_ring.mean())

    # A contiguous row's max() and mean() are the figures
    # ThermalMetrics.from_vector would report, to the bit.
    def _set_baseline(self, celsius: np.ndarray) -> None:
        self._baseline_peak = float(celsius.max())
        self._baseline_mean = float(celsius.mean())

    def _set_settled(self, celsius: np.ndarray) -> None:
        self._settled_peak = float(celsius.max())
        self._settled_mean = float(celsius.mean())

    def _set_settled_from_rings(self) -> None:
        """Transient settled statistics from the per-epoch peak/mean rings."""
        self._settled_peak = float(self._peak_ring.max())
        self._settled_mean = float(self._mean_ring.mean())

    # ------------------------------------------------------------------
    # Shared chunk loop
    # ------------------------------------------------------------------
    def _window_periods(self, window: EpochWindow) -> Tuple[np.ndarray, int]:
        """Each epoch's duration (s) and the workload cycles they run, per
        epoch; raises ``ValueError`` naming an epoch whose period rounds to
        0.0 or inf seconds."""
        count = window.num_epochs
        base_period_us = self.policy.period_us
        if window.period_scale is None:
            return np.full(count, base_period_us * 1e-6), self._period_cycles * count
        periods_us = [base_period_us * scale for scale in window.period_scale.tolist()]
        periods_s = np.array(periods_us) * 1e-6
        bad = np.flatnonzero(~(np.isfinite(periods_s) & (periods_s > 0)))
        if len(bad):
            raise ValueError(
                f"epoch {self._next_epoch + bad[0]}: period of "
                f"{float(periods_s[bad[0]])!r} s is not positive and finite"
            )
        block_period_cycles = self.configuration.block_period_cycles
        return periods_s, sum(block_period_cycles(period) for period in periods_us)

    def _loop_window(
        self,
        window: EpochWindow,
        modulation: Optional[np.ndarray],
        periods_s: np.ndarray,
    ) -> Tuple[PowerTrace, List[Optional[MigrationEvent]]]:
        """Run the policy/controller loop for one window, chunk by chunk.

        Epoch indices are **global** (``self._next_epoch + local``), so
        policies, the feedback plan's refresh cadence and the migration
        records behave identically however the horizon is windowed.  A chunk
        is the whole window for feedback-free policies; for feedback
        policies it ends at the next refresh epoch (a global multiple of
        ``feedback_stride``), so every row a refresh solves was emitted
        before it.

        Each chunk is one
        :meth:`~repro.core.controller.RuntimeReconfigurationController.walk`:
        per epoch the policy decides (feedback policies on the plan's
        per-unit Celsius row, every policy told whether a fluid or batched
        plan is still unfolding) and the controller's cursor moves along its
        memoized plans under ``settings.migration_style``; one stage
        executes per epoch, so a sudden plan completes in its own epoch, and
        a transform asked for while a plan unfolds is a stalled epoch.  The
        chunk's ``(E, U)`` power rows then come out of the walked tracks in
        a few gathers (each epoch's workload power plus its stage's energy
        over ``periods_s``), are scaled by the load ``modulation`` and queued
        for feedback; the window's rows are validated once, as its trace.
        The cost list holds each epoch's executed stage (None when no stage
        ran).
        """
        controller = self.controller
        policy_decide = self.policy.decide
        # Built positionally, in C: the namedtuple's keyword-aware
        # constructor costs more than most decisions.
        context = partial(tuple.__new__, PolicyContext)
        plan = self.feedback_plan
        start = self._next_epoch
        count = window.num_epochs
        if plan is None:

            def decide(epoch_index: int, in_flight: bool):
                return policy_decide(context((epoch_index, None, in_flight)))

        else:
            plan.add_offsets(start, window.ambient_offsets)
            thermal_for = plan.thermal_for

            def decide(epoch_index: int, in_flight: bool):
                return policy_decide(
                    context((epoch_index, thermal_for(epoch_index), in_flight))
                )

        style = self.settings.migration_style
        congestion = None
        if style != "sudden":
            # A sudden plan halts the whole array, so no application traffic
            # shares the NoC with it: the paper's phased schedule is
            # congestion-free with deterministic migration times.  Fluid and
            # batched stages run while the chip keeps working, so only they
            # are priced under the epoch's NoC load; a window's NoC rates
            # repeat, so each distinct rate is priced once.
            noc_model = self.noc_model
            noc_rates = window.noc_rates
            factors: Dict[Optional[float], float] = {}

            def congestion(epoch_index: int) -> float:
                rate = (
                    float(noc_rates[epoch_index - start])
                    if noc_rates is not None
                    else None
                )
                factor = factors.get(rate)
                if factor is None:
                    factor = factors[rate] = congestion_factor(noc_model, rate)
                return factor

        chunks: List[np.ndarray] = []
        costs: List[Optional[MigrationEvent]] = []
        chunk_start = 0
        while chunk_start < count:
            if plan is None:
                chunk_stop = count
            else:
                next_refresh = ((start + chunk_start) // plan.stride + 1) * plan.stride
                chunk_stop = min(count, next_refresh - start)
            rows, events, stalled = controller.walk(
                start + chunk_start,
                decide,
                periods_s[chunk_start:chunk_stop],
                style=style,
                units_per_epoch=self.settings.units_per_epoch,
                congestion=congestion,
            )
            if modulation is not None:
                # Scenario hook: scale the rows as they are emitted, so the
                # trace, the feedback path and the records all see the
                # modulated chip.
                rows *= modulation[chunk_start:chunk_stop]
            if plan is not None:
                plan.observe(start + chunk_start, rows)
            if stalled:
                _OBS_STALLED.add(stalled)
            chunks.append(rows)
            costs += events
            chunk_start = chunk_stop
        # One validated trace per window; a refresh validates the rows it
        # solves itself (HotSpotModel.steady_temperatures).
        trace = PowerTrace(
            self.configuration.topology,
            periods_s,
            chunks[0] if len(chunks) == 1 else np.concatenate(chunks),
        )
        self._next_epoch += count
        return trace, costs

    # ------------------------------------------------------------------
    def _step_steady(
        self,
        trace: PowerTrace,
        costs: List[Optional[MigrationEvent]],
        offsets: Optional[np.ndarray],
        start_epoch: int,
        is_last: bool,
    ) -> WindowOutcome:
        """Evaluate one steady-mode window with a single multi-RHS solve.

        One batch carries everything the window needs: the static baseline
        (first window only), every epoch's power row, and the settled-regime
        average (last window only, see :meth:`_settled_power`).  With a
        single horizon-sized window this is exactly the classic batch layout.
        """
        is_first = start_epoch == 0
        parts: List[np.ndarray] = []
        if is_first:
            parts.append(self.controller.static_power_vector()[np.newaxis, :])
        parts.append(trace.powers)
        if is_last:
            settled_power, settled_offset = self._settled_power()
            parts.append(settled_power[np.newaxis, :])
        temperatures = self.thermal_model.steady_temperatures(np.vstack(parts))
        base = 1 if is_first else 0
        stop = base + len(trace)
        if offsets is not None:
            # A uniform ambient shift moves every steady temperature by the
            # same amount (the conduction block conserves energy), so adding
            # the per-epoch offsets after the one batched solve is exact.
            # The settled row solved the mean tail power, so it gets the mean
            # tail offset; the baseline stays at nominal ambient.
            temperatures[base:stop] += offsets[:, np.newaxis]
        if is_first:
            self._set_baseline(temperatures[0])
        if is_last:
            self._set_settled(temperatures[-1] + settled_offset)
        return self._outcome(start_epoch, trace, costs, temperatures[base:stop])

    def _step_transient(
        self,
        trace: PowerTrace,
        costs: List[Optional[MigrationEvent]],
        offsets: Optional[np.ndarray],
        start_epoch: int,
        is_last: bool,
    ) -> WindowOutcome:
        """Integrate one transient-mode window with a single sequence call.

        The first window pays the batch path's fixed costs — the static
        baseline steady solve and the settled-regime warm start (steady
        state of the warm power at the first epoch's ambient) — then the
        window's piecewise-constant trace goes through one
        ``transient_sequence`` call, evaluated only at the units it reports.
        Each epoch's peak is the maximum over its samples (its t=0 instant
        included, matching the per-epoch reference) and its spatial metrics
        come from its last sample.  Subsequent windows chain
        ``final_state_kelvin``, which is exactly the state the batch path
        would have carried, so windowing does not change the trajectory.
        """
        thermal_model = self.thermal_model
        if self._thermal_state is None:
            # The baseline is still a steady solve of the static power.
            self._set_baseline(
                thermal_model.steady_temperatures(
                    self.controller.static_power_vector()[np.newaxis, :]
                )[0]
            )
            # Start from the settled regime: steady state of the time-weighted
            # average power (the first window's, or an explicit warm_power
            # override — identical to the batch warm start when the first
            # window spans the horizon) at the first epoch's ambient, so the
            # transient only has to resolve the within-period ripple.
            warm = (
                self._warm_power
                if self._warm_power is not None
                else trace.average_vector()
            )
            self._thermal_state = thermal_model.warm_state(
                warm,
                ambient_offset_kelvin=(
                    float(offsets[0]) if offsets is not None else 0.0
                ),
            )
        result = thermal_model.transient_sequence(
            trace,
            initial_state=self._thermal_state,
            time_step_s=self._time_step,
            ambient_offsets_kelvin=offsets,
        )
        # An epoch's samples are contiguous rows, so its peak is one segment
        # of the flattened readout.
        celsius = result.samples
        peaks = np.maximum.reduceat(celsius.ravel(), result.starts * celsius.shape[1])
        outcome = self._outcome(
            start_epoch, trace, costs, celsius[result.stops - 1], peaks
        )
        self._thermal_state = result.final_state_kelvin
        capacity = self._settled_capacity
        self._peak_ring = _ring(self._peak_ring, outcome.peak_by_epoch, capacity)
        self._mean_ring = _ring(self._mean_ring, outcome.mean_by_epoch, capacity)
        if is_last:
            self._set_settled_from_rings()
        return outcome

    @staticmethod
    def _outcome(
        start_epoch: int,
        trace: PowerTrace,
        costs: List[Optional[MigrationEvent]],
        epoch_rows: np.ndarray,
        peak_by_epoch: Optional[np.ndarray] = None,
    ) -> WindowOutcome:
        """A window's outcome over its ``(E, U)`` Celsius rows.

        Peaks default to each row's maximum.  Contiguous rows make each mean
        sum in :meth:`ThermalMetrics.from_vector`'s order, to the bit.
        Raises ``ValueError`` naming the first epoch whose peak or mean is
        not finite (an epoch's power or duration beyond what the thermal
        model can integrate), so no such window is reported or checkpointed.
        """
        rows = np.ascontiguousarray(epoch_rows)
        peaks = rows.max(axis=1) if peak_by_epoch is None else peak_by_epoch
        means = rows.mean(axis=1)
        finite = np.isfinite(peaks) & np.isfinite(means)
        if not finite.all():
            local = int(np.argmin(finite))
            raise ValueError(
                f"epoch {start_epoch + local}: temperature is not finite "
                f"(peak {peaks[local]}, mean {means[local]}); its power or "
                "duration is beyond what the thermal model can integrate"
            )
        return WindowOutcome(
            start_epoch=start_epoch,
            num_epochs=len(trace),
            trace=trace,
            costs=costs,
            epoch_metrics=rows,
            peak_by_epoch=peaks,
            mean_by_epoch=means,
        )

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Snapshot of all state carried between windows.

        Covers the experiment's own stream state (epoch cursor, cycles run,
        thermal state, settled rings, baseline/settled statistics), the
        controller (mapping permutation, migration totals, in-flight plan)
        and the policy/feedback-plan state.  Restoring this onto
        a freshly ``prepare()``-ed experiment of the identical configuration
        resumes the stream bit-identically.  Float arrays stay arrays (the
        experiment's own, never written in place, so nothing is copied);
        :func:`repro.stream.checkpoint.encode_checkpoint` writes them as
        exact binary.  Per-epoch record columns are deliberately not
        captured — checkpointable runs stream with ``collect_records=False``.
        """
        if not self._active:
            raise RuntimeError("state_dict() needs an active prepared run")
        return {
            "next_epoch": self._next_epoch,
            "cycles_run": self._cycles_run,
            "baseline_peak": self._baseline_peak,
            "baseline_mean": self._baseline_mean,
            "settled_peak": self._settled_peak,
            "settled_mean": self._settled_mean,
            "settled_capacity": self._settled_capacity,
            "thermal_state": self._thermal_state,
            "power_ring": self._power_ring,
            "offset_ring": self._offset_ring,
            "peak_ring": self._peak_ring,
            "mean_ring": self._mean_ring,
            "controller": self.controller.state_dict(),
            "policy": self.policy.state_dict(),
            "feedback": (
                self.feedback_plan.state_dict()
                if self.feedback_plan is not None
                else None
            ),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`; call after :meth:`prepare`.

        Raises ``ValueError`` for a thermal state or settled ring of the
        wrong shape, and whatever the controller, policy and feedback plan
        refuse.
        """
        if not self._active:
            raise RuntimeError("prepare() the experiment before restore_state()")
        capacity = int(state["settled_capacity"])  # type: ignore[arg-type]
        if capacity < 1:
            raise ValueError("settled_capacity must be at least 1")
        num_units = self.configuration.topology.num_nodes
        thermal_state = state["thermal_state"]
        if thermal_state is not None:
            thermal_state = np.asarray(thermal_state, dtype=float)
            nodes = self.thermal_model.network.num_nodes
            if thermal_state.shape != (nodes,):
                raise ValueError(
                    f"thermal state must have {nodes} nodes, got shape "
                    f"{thermal_state.shape}"
                )
        power_ring = _unit_rows(state["power_ring"], num_units, "settled power ring")
        offset_ring, peak_ring, mean_ring = (
            np.asarray(state[name], dtype=float)
            for name in ("offset_ring", "peak_ring", "mean_ring")
        )
        if (
            offset_ring.shape != (len(power_ring),)
            or peak_ring.ndim != 1
            or mean_ring.shape != peak_ring.shape
            or max(len(power_ring), len(peak_ring)) > capacity
        ):
            raise ValueError(
                f"settled rings do not fit a settled window of {capacity} epochs"
            )
        self._settled_capacity = capacity
        self._next_epoch = int(state["next_epoch"])  # type: ignore[arg-type]
        self._cycles_run = int(state["cycles_run"])  # type: ignore[arg-type]
        self._baseline_peak = state["baseline_peak"]  # type: ignore[assignment]
        self._baseline_mean = state["baseline_mean"]  # type: ignore[assignment]
        self._settled_peak = state["settled_peak"]  # type: ignore[assignment]
        self._settled_mean = state["settled_mean"]  # type: ignore[assignment]
        self._thermal_state = thermal_state
        self._power_ring = power_ring
        self._offset_ring = offset_ring
        self._peak_ring = peak_ring
        self._mean_ring = mean_ring
        self.controller.restore_state(state["controller"])  # type: ignore[arg-type]
        self.policy.restore_state(state["policy"])  # type: ignore[arg-type]
        feedback_state = state["feedback"]
        if self.feedback_plan is not None and feedback_state is not None:
            self.feedback_plan.restore_state(feedback_state)  # type: ignore[arg-type]
