"""Experiment P1 — hot-path speedups of the performance layer.

Times the vectorised hot paths against their seed-equivalent reference
implementations, asserts the speedups and the structural regression guards
of the array-native pipeline, and records everything in ``BENCH_perf.json``:

* **Batched edge-list LDPC decoding** vs. the seed dense decoder (the test
  oracle ``tests/ldpc/dense_decoder.py``) looping over the same codewords
  (bit-identical outputs required);
* **``ThermalSolver.transient_sequence``** on a 41-epoch piecewise-constant
  power trace: cached-propagator Euler and spectral sampling vs. the
  uncached per-interval-refactorising reference (node temperatures within
  1e-9 required);
* **The batched steady experiment** vs. the seed's one-solve-per-epoch loop
  (metrics within 1e-9 required; exactly one multi-RHS solve performed);
* **The sequenced transient experiment** (one ``transient_sequence`` call,
  zero per-epoch ``transient()`` round-trips);
* **The grid-model steady batch** vs. per-map solves on the 3x3-refined
  floorplan — the resolution ablation now rides the same fast paths.

The 3-period migration sweep, guarded to one batched solve per experiment,
lives in ``bench_period_sweep.py``.
"""

import numpy as np
import pytest

import dense_decoder
import perf_utils
from conftest import print_rows

from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.metrics import ThermalMetrics
from repro.core.policy import PeriodicMigrationPolicy
from repro.ldpc import (
    BpskAwgnChannel,
    LdpcEncoder,
    TannerGraph,
    array_code_parity_matrix,
    make_decoder,
)
from repro.noc import MeshTopology
from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.grid import GridThermalModel
from repro.thermal.rc_model import build_thermal_network
from repro.thermal.solver import ThermalSolver


def test_batched_sparse_ldpc_vs_dense_loop(benchmark):
    """Batched decode_batch must beat the seed's dense per-codeword loop."""
    H = array_code_parity_matrix(p=17, j=3, k=6)
    graph = TannerGraph(H)
    encoder = LdpcEncoder(H)
    channel = BpskAwgnChannel(snr_db=2.0, rate=encoder.rate, seed=5)
    codewords = [encoder.random_codeword(seed=seed) for seed in range(64)]
    llrs = np.stack([channel.transmit_llr(word) for word in codewords])

    dense = dense_decoder.make_decoder("min-sum", graph, max_iterations=25)
    sparse = make_decoder("min-sum", graph, max_iterations=25)

    with perf_utils.timed() as dense_timer:
        dense_result = dense.decode_batch(llrs)
    with perf_utils.timed() as sparse_timer:
        sparse_result = benchmark.pedantic(
            sparse.decode_batch, args=(llrs,), rounds=1, iterations=1
        )

    assert np.array_equal(dense_result.decoded_bits, sparse_result.decoded_bits)
    assert np.array_equal(dense_result.iterations, sparse_result.iterations)
    assert np.array_equal(dense_result.success, sparse_result.success)

    speedup = dense_timer.seconds / sparse_timer.seconds
    perf_utils.record_perf(
        "ldpc.decode_batch.sparse",
        sparse_timer.seconds,
        throughput=len(codewords) / sparse_timer.seconds,
        throughput_unit="codewords/s",
        baseline_wall_s=dense_timer.seconds,
        baseline="dense decoder, per-codeword loop (seed)",
        blocks=len(codewords),
        code_n=graph.n,
    )
    print_rows(
        "Batched sparse LDPC vs dense loop (n=102, 64 codewords)",
        [
            {
                "dense_loop_ms": round(1e3 * dense_timer.seconds, 1),
                "sparse_batch_ms": round(1e3 * sparse_timer.seconds, 1),
                "speedup": round(speedup, 1),
            }
        ],
    )
    # Measured ~8x on the reference container; the floor is set below that
    # so a loaded host records a regression without flaking the suite.
    assert speedup >= perf_utils.speedup_floor(3.0)


def test_transient_sequence_41_epochs(benchmark):
    """Cached/spectral transient_sequence vs the uncached seed reference."""
    mesh = MeshTopology(4, 4)
    network = build_thermal_network(mesh_floorplan(mesh))
    hot = {f"PE_{x}_{y}": 2.0 + 0.15 * x for (x, y) in mesh.coordinates()}
    cool = {f"PE_{x}_{y}": 1.0 for (x, y) in mesh.coordinates()}
    intervals = [(1e-3, hot if epoch % 2 else cool) for epoch in range(41)]

    reference_solver = ThermalSolver(network, cache_propagators=False)
    solver = ThermalSolver(network)

    with perf_utils.timed() as reference_timer:
        reference = reference_solver.transient_sequence(intervals)
    with perf_utils.timed() as euler_timer:
        cached = solver.transient_sequence(intervals)
    with perf_utils.timed() as spectral_timer:
        spectral = benchmark.pedantic(
            solver.transient_sequence,
            args=(intervals,),
            kwargs={"method": "spectral"},
            rounds=1,
            iterations=1,
        )

    for name in reference.block_celsius:
        assert np.allclose(
            reference.block_celsius[name], cached.block_celsius[name], atol=1e-9
        )
        assert np.allclose(
            reference.block_celsius[name], spectral.block_celsius[name], atol=1e-9
        )
    assert solver.step_factorization_count == 1

    epochs = len(intervals)
    perf_utils.record_perf(
        "thermal.transient_sequence.cached_euler",
        euler_timer.seconds,
        throughput=epochs / euler_timer.seconds,
        throughput_unit="epochs/s",
        baseline_wall_s=reference_timer.seconds,
        baseline="uncached implicit Euler, refactorises per interval (seed)",
        epochs=epochs,
    )
    perf_utils.record_perf(
        "thermal.transient_sequence.spectral",
        spectral_timer.seconds,
        throughput=epochs / spectral_timer.seconds,
        throughput_unit="epochs/s",
        baseline_wall_s=reference_timer.seconds,
        baseline="uncached implicit Euler, refactorises per interval (seed)",
        epochs=epochs,
    )
    speedup = reference_timer.seconds / spectral_timer.seconds
    print_rows(
        "transient_sequence, 41-epoch piecewise trace (4x4 mesh)",
        [
            {
                "uncached_ms": round(1e3 * reference_timer.seconds, 1),
                "cached_euler_ms": round(1e3 * euler_timer.seconds, 1),
                "spectral_ms": round(1e3 * spectral_timer.seconds, 1),
                "spectral_speedup": round(speedup, 1),
            }
        ],
    )
    # Measured ~15x on the reference container; floor well below to absorb
    # host noise while still catching a real regression.
    assert speedup >= perf_utils.speedup_floor(5.0)


def test_spectral_sequence_jump(benchmark):
    """Whole-trace spectral jump vs the per-interval spectral projection loop.

    Both evaluate the identical implicit-Euler trajectory; the jump collapses
    the per-interval eigenbasis projections into one propagation of the modal
    coordinates plus one matrix multiply over every sampled instant.
    """
    mesh = MeshTopology(5, 5)
    network = build_thermal_network(mesh_floorplan(mesh))
    hot = {f"PE_{x}_{y}": 2.0 + 0.1 * (x + y) for (x, y) in mesh.coordinates()}
    cool = {f"PE_{x}_{y}": 1.0 for (x, y) in mesh.coordinates()}
    intervals = [(1e-3, hot if epoch % 2 else cool) for epoch in range(41)]
    # The experiment pipeline's sampling: a handful of implicit steps per
    # migration epoch (transient_steps_per_epoch), one shared dt.
    time_step = 1e-3 / 8

    solver = ThermalSolver(network)
    solver._spectral()  # decompose once outside both timers

    # Seed-equivalent reference: what transient_sequence(method="spectral")
    # did before the jump — one weight projection per interval, state carried
    # by hand.
    with perf_utils.timed() as loop_timer:
        state = None
        looped_final = None
        for duration, power in intervals:
            step = solver.transient(
                power, duration, initial_state=state, time_step_s=time_step,
                method="spectral",
            )
            state = step.final_state_kelvin
        looped_final = state

    with perf_utils.timed() as jump_timer:
        jumped = benchmark.pedantic(
            solver.transient_sequence,
            args=(intervals,),
            kwargs={"method": "spectral", "time_step_s": time_step},
            rounds=1,
            iterations=1,
        )
    assert solver.spectral_jump_count == 1
    assert np.allclose(jumped.final_state_kelvin, looped_final, atol=1e-9)

    speedup = loop_timer.seconds / jump_timer.seconds
    perf_utils.record_perf(
        "thermal.transient_sequence.spectral_jump",
        jump_timer.seconds,
        throughput=len(intervals) / jump_timer.seconds,
        throughput_unit="epochs/s",
        baseline_wall_s=loop_timer.seconds,
        baseline="per-interval spectral projection loop (PR 1)",
        epochs=len(intervals),
    )
    print_rows(
        "Vectorised spectral jump vs per-interval loop (41 epochs, 5x5 mesh)",
        [
            {
                "loop_ms": round(1e3 * loop_timer.seconds, 1),
                "jump_ms": round(1e3 * jump_timer.seconds, 1),
                "speedup": round(speedup, 1),
            }
        ],
    )
    # The jump must at least not lose to the loop it replaces.
    assert speedup >= perf_utils.speedup_floor(1.5)


def test_batched_steady_experiment(benchmark, chip_a):
    """Steady mode: one multi-RHS solve vs the seed's solve-per-epoch loop."""
    settings = ExperimentSettings(num_epochs=41, mode="steady", settle_epochs=40)
    policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
    solver = chip_a.thermal_model.solver

    solves_before = solver.steady_solve_count
    factorizations_before = solver.step_factorization_count
    result = benchmark.pedantic(
        ThermalExperiment(chip_a, policy, settings=settings).run,
        rounds=1,
        iterations=1,
    )
    # Regression guard: the whole steady experiment (baseline + 41 epochs +
    # settled average) is exactly one solve against the one factorisation
    # made at solver construction; no step matrices are ever factorised.
    assert solver.steady_solve_count - solves_before == 1
    assert solver.step_factorization_count == factorizations_before

    # Time the thermal-evaluation stage both ways over the same power rows
    # (the policy/controller loop is identical in both pipelines, so the
    # solve stage is the part the batching changed).  Seed reference: one
    # dict round-trip and one solve per epoch plus the baseline and the
    # settled-average solves.
    model = chip_a.thermal_model
    topology = chip_a.topology
    with perf_utils.timed() as reference_timer:
        baseline = ThermalMetrics.from_map(model.steady_state_by_coord(chip_a.power_map()))
        per_epoch = [
            ThermalMetrics.from_map(model.steady_state_by_coord(epoch.power_map))
            for epoch in result.epochs
        ]
        averaged = {coord: 0.0 for coord in topology.coordinates()}
        for epoch in result.epochs[-40:]:
            for coord, watts in epoch.power_map.items():
                averaged[coord] += watts / 40
        settled = ThermalMetrics.from_map(model.steady_state_by_coord(averaged))

    rows = np.vstack(
        [
            np.array(
                [epoch.power_map[coord] for coord in topology.coordinates()]
            )
            for epoch in result.epochs
        ]
    )
    static_map = chip_a.power_map()
    with perf_utils.timed() as batched_timer:
        batch = np.vstack(
            [
                np.array([static_map[coord] for coord in topology.coordinates()])[
                    np.newaxis, :
                ],
                rows,
                rows[-40:].mean(axis=0)[np.newaxis, :],
            ]
        )
        temperatures = model.steady_temperatures(batch)
        batched_metrics = [
            ThermalMetrics.from_vector(topology, row) for row in temperatures
        ]

    assert result.baseline_peak_celsius == pytest.approx(baseline.peak_celsius, abs=1e-9)
    assert result.settled_peak_celsius == pytest.approx(settled.peak_celsius, abs=1e-9)
    assert batched_metrics[0].peak_celsius == pytest.approx(baseline.peak_celsius, abs=1e-9)
    assert batched_metrics[-1].peak_celsius == pytest.approx(settled.peak_celsius, abs=1e-9)
    for record, expected in zip(result.epochs, per_epoch):
        assert record.thermal.peak_celsius == pytest.approx(expected.peak_celsius, abs=1e-9)

    speedup = reference_timer.seconds / batched_timer.seconds
    perf_utils.record_perf(
        "experiment.steady.batched",
        batched_timer.seconds,
        throughput=settings.num_epochs / batched_timer.seconds,
        throughput_unit="epochs/s",
        baseline_wall_s=reference_timer.seconds,
        baseline="per-epoch steady_state_by_coord loop (seed)",
        epochs=settings.num_epochs,
    )
    print_rows(
        "Batched steady evaluation vs per-epoch loop (41 epochs, chip A)",
        [
            {
                "per_epoch_ms": round(1e3 * reference_timer.seconds, 1),
                "batched_ms": round(1e3 * batched_timer.seconds, 1),
                "speedup": round(speedup, 1),
            }
        ],
    )
    # Measured ~5-8x on the reference container; floor set below to absorb
    # host noise while still catching a real regression.
    assert speedup >= perf_utils.speedup_floor(2.0)


def test_sequenced_transient_experiment(benchmark, chip_a):
    """Transient mode: one transient_sequence call, zero per-epoch solves."""
    settings = ExperimentSettings(
        num_epochs=41, mode="transient", settle_epochs=40, transient_steps_per_epoch=8
    )
    policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
    solver = chip_a.thermal_model.solver

    transients_before = solver.transient_count
    sequences_before = solver.transient_sequence_count
    with perf_utils.timed() as timer:
        result = benchmark.pedantic(
            ThermalExperiment(chip_a, policy, settings=settings).run,
            rounds=1,
            iterations=1,
        )
    # Regression guard: the experiment layer issues exactly one sequenced
    # integration; the per-epoch transient() round-trip of the seed is gone.
    assert solver.transient_count == transients_before
    assert solver.transient_sequence_count - sequences_before == 1
    assert len(result.epochs) == settings.num_epochs

    perf_utils.record_perf(
        "experiment.transient.sequenced",
        timer.seconds,
        throughput=settings.num_epochs / timer.seconds,
        throughput_unit="epochs/s",
        epochs=settings.num_epochs,
    )


def test_grid_model_steady_batch(benchmark, chip_a):
    """Grid-model batch steady path vs per-map solves on the refined mesh."""
    grid = GridThermalModel(
        chip_a.topology, resolution=3, package=chip_a.thermal_model.package
    )
    rng = np.random.default_rng(7)
    rows = 1.0 + 2.0 * rng.random((41, chip_a.topology.num_nodes))
    coords = list(chip_a.topology.coordinates())

    with perf_utils.timed() as reference_timer:
        reference = [
            grid.steady_state_by_coord(
                {coord: rows[index, chip_a.topology.node_id(coord)] for coord in coords}
            )
            for index in range(rows.shape[0])
        ]
    with perf_utils.timed() as batch_timer:
        batch = benchmark.pedantic(
            grid.steady_temperatures, args=(rows,), rounds=1, iterations=1
        )

    for index, expected in enumerate(reference):
        for unit, coord in enumerate(coords):
            assert batch[index, unit] == pytest.approx(expected[coord], abs=1e-9)

    speedup = reference_timer.seconds / batch_timer.seconds
    perf_utils.record_perf(
        "thermal.grid.steady_batch",
        batch_timer.seconds,
        throughput=rows.shape[0] / batch_timer.seconds,
        throughput_unit="maps/s",
        baseline_wall_s=reference_timer.seconds,
        baseline="per-map grid steady_state_by_coord loop (seed)",
        maps=rows.shape[0],
        resolution=3,
    )
    print_rows(
        "Grid-model steady batch vs per-map loop (3x3-refined 4x4 mesh)",
        [
            {
                "per_map_ms": round(1e3 * reference_timer.seconds, 1),
                "batch_ms": round(1e3 * batch_timer.seconds, 1),
                "speedup": round(speedup, 1),
            }
        ],
    )
    # The refined model must ride the same multi-RHS path as the block model.
    assert speedup >= perf_utils.speedup_floor(2.0)
