"""Each runtime engine against the reference implementation it replaced.

The seed engines live on in ``tests/`` as oracles.  For every pair this
script runs the runtime engine and its oracle on the same work, in the shape
the real paths use, checks once that they agree, then times alternating
runtime/oracle runs and prints the median and interquartile range of
oracle time / runtime time.

It exits 1 when a pair disagrees or when a median is below 1x: no
optimisation stays in the tree while its own benchmark records a slowdown.
End-to-end speed is perfbench's job (``perfbench/run.py``); this script only
keeps each engine honest against its oracle.  Like perfbench, it pins the
BLAS thread pools to one thread: on small multi-right-hand-side LU solves
(the thermal oracle's) a multi-threaded OpenBLAS spends far longer waking
threads than computing.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_oracles.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

import numpy as np  # noqa: E402

# The oracles are test modules: ``dense_decoder`` (LDPC), the per-flow
# latency loop in ``test_analytic`` (NoC), ``lu_oracle`` and its per-unit
# readout ``unit_readout`` (thermal) and ``epoch_loop_oracle`` (the
# per-epoch control loop).
sys.path[:0] = [
    str(Path(__file__).resolve().parent.parent / "tests" / package)
    for package in ("noc", "ldpc", "thermal", "core")
]

import dense_decoder  # noqa: E402
import epoch_loop_oracle  # noqa: E402
import lu_oracle  # noqa: E402
import unit_readout  # noqa: E402
from test_analytic import per_flow_latency  # noqa: E402

from repro.chips import get_configuration  # noqa: E402
from repro.ldpc import (  # noqa: E402
    BpskAwgnChannel,
    LdpcEncoder,
    MinSumDecoder,
    TannerGraph,
    array_code_parity_matrix,
)
from repro.noc import MeshTopology  # noqa: E402
from repro.noc.analytic import analytic_model  # noqa: E402
from repro.power.trace import PowerTrace, map_to_vector  # noqa: E402
from repro.scenarios import all_scenarios  # noqa: E402
from repro.scenarios.compile import compile_scenario  # noqa: E402


def edge_list_decoder():
    """The scenario decoder probe: p=13 (n=78), 24 blocks, 25 iterations."""
    graph = TannerGraph(array_code_parity_matrix(p=13, j=3, k=6))
    encoder = LdpcEncoder(graph.H)
    channel = BpskAwgnChannel(snr_db=2.0, rate=encoder.rate, seed=97)
    llrs = np.stack(
        [
            channel.transmit_llr(encoder.random_codeword(seed=seed))
            for seed in range(24)
        ]
    )
    fast = MinSumDecoder(graph, max_iterations=25)
    slow = dense_decoder.make_decoder("min-sum", graph, max_iterations=25)

    def agree(a, b):
        return np.array_equal(a.decoded_bits, b.decoded_bits) and np.array_equal(
            a.iterations, b.iterations
        )

    return (
        lambda: fast.decode_batch(llrs),
        lambda: slow.decode_batch(llrs),
        agree,
    )


def closed_form_noc():
    """4x4 uniform, 4-flit packets, XY: 40 rates up to 0.95 x capacity."""
    topology = MeshTopology(4, 4)
    model = analytic_model(topology, "uniform")
    rates = np.linspace(0.0, 0.95, 40) * model.capacity_rate

    def runtime():
        return [model.latency(rate) for rate in rates]

    def oracle():
        return [
            per_flow_latency(topology, "uniform", rate, 4, "xy") for rate in rates
        ]

    return runtime, oracle, lambda a, b: np.allclose(a, b, rtol=1e-12, atol=0.0)


def _served_window():
    """A served window on chip A: 8 epochs x 8 steps of 109 us, ambient +-5 K.

    Returns the model, the ``(8, units)`` power rows (loads 0.6-1.4), the
    interval durations and the transient keyword arguments.
    """
    chip = get_configuration("A")
    model = chip.thermal_model
    rows = np.linspace(0.6, 1.4, 8)[:, np.newaxis] * map_to_vector(chip.topology, chip.power_map())
    window = dict(
        initial_state=model.warm_state(map_to_vector(chip.topology, chip.power_map()), ambient_offset_kelvin=-5.0),
        time_step_s=109e-6 / 8,
        ambient_offsets_kelvin=np.linspace(-5.0, 5.0, 8),
    )
    return model, rows, np.full(len(rows), 109e-6), window


def _window_agrees(fast, slow) -> bool:
    """A model window and an oracle window: the per-unit readout and the
    carried node state within 1e-9 K, and the same interval bounds."""
    return (
        np.abs(fast.samples - slow.samples).max() <= 1e-9
        and np.abs(fast.final_state_kelvin - slow.final_state_kelvin).max() <= 1e-9
        and np.array_equal(fast.stops, slow.stops)
    )


def _oracle_window(lu, model, durations, node_rows, window):
    """The LU-factored Euler loop read out per unit, as the model reports."""
    result = lu.transient_sequence(durations, node_rows, **window)
    return result._replace(samples=unit_readout.unit_celsius(model, result.samples))


def spectral_transient():
    """The model's transient window against the LU-factored Euler loop.

    The runtime side is the call a transient-mode run makes per window:
    unit rows in, the per-unit readout and the carried node state out.  Two
    windows: the served one (one shared step) and the same window with its
    periods scaled by 1, 0.5, 2, 0.1, 4, 0.25, 1 and 3, which mixes step
    counts and, where a period is shorter than the step, step sizes.
    """
    model, rows, durations, window = _served_window()
    node_rows = model.node_power_matrix(rows)
    scaled = durations * np.array([1.0, 0.5, 2.0, 0.1, 4.0, 0.25, 1.0, 3.0])
    traces = [PowerTrace(model.topology, spans, rows) for spans in (durations, scaled)]
    lu = lu_oracle.LuSolver(model.network)

    def runtime():
        return [model.transient_sequence(trace, **window) for trace in traces]

    def oracle():
        return [
            _oracle_window(lu, model, spans, node_rows, window)
            for spans in (durations, scaled)
        ]

    def agree(fast, slow):
        return all(_window_agrees(a, b) for a, b in zip(fast, slow))

    return runtime, oracle, agree


def dense_thermal():
    """The served window: 8 one-row feedback solves, then its transient."""
    model, rows, durations, window = _served_window()
    node_rows = model.node_power_matrix(rows)
    trace = PowerTrace(model.topology, durations, rows)
    lu = lu_oracle.LuSolver(model.network)

    def runtime():
        feedback = [model.steady_temperatures(row) for row in rows]
        return np.vstack(feedback), model.transient_sequence(trace, **window)

    def oracle():
        feedback = [
            unit_readout.unit_celsius(model, lu.steady_state_batch(model.node_power_matrix(row)))
            for row in rows
        ]
        return np.vstack(feedback), _oracle_window(lu, model, durations, node_rows, window)

    def agree(fast, slow):
        return np.allclose(fast[0], slow[0], rtol=1e-10, atol=0.0) and _window_agrees(
            fast[1], slow[1]
        )

    return runtime, oracle, agree


#: Passes over the 15 registry scenarios in one timed chunk-loop sample.  A
#: single pass lasts a few tens of milliseconds, short enough that one noisy
#: moment on a shared host decides the pair's ratio.
CHUNK_LOOP_PASSES = 4


def chunk_loop():
    """The 15 registry scenarios' runs, chunked against per-epoch emission.

    Each side runs :data:`CHUNK_LOOP_PASSES` passes over the scenarios and
    returns the last.  Neither side builds records while timed; the parity
    check builds the oracle's from each window's arrays and reads every
    runtime record.
    """
    scenarios = [compile_scenario(spec) for spec in all_scenarios()]

    def runtime():
        for _ in range(CHUNK_LOOP_PASSES):
            runs = [scenario.experiment().run() for scenario in scenarios]
        return runs

    def oracle():
        for _ in range(CHUNK_LOOP_PASSES):
            runs = []
            for scenario in scenarios:
                experiment = epoch_loop_oracle.PerEpochExperiment(
                    scenario.configuration,
                    scenario.policy,
                    settings=scenario.settings,
                    schedule=scenario.window,
                    noc_model=scenario.noc_model,
                )
                runs.append((experiment.run(), experiment))
        return runs

    def headline(result):
        return (
            result.baseline_peak_celsius,
            result.settled_peak_celsius,
            result.settled_mean_celsius,
            result.throughput_penalty,
            result.migrations_performed,
            result.total_migration_energy_j,
        )

    def agree(fast, slow):
        return all(
            list(result.epochs) == experiment.records()
            and headline(result) == headline(reference)
            for result, (reference, experiment) in zip(fast, slow)
        )

    return runtime, oracle, agree


def speedups(runtime, oracle, pairs):
    """oracle / runtime wall-clock ratio of ``pairs`` alternating runs."""
    ratios = []
    for _ in range(pairs):
        start = time.perf_counter()
        runtime()
        middle = time.perf_counter()
        oracle()
        ratios.append((time.perf_counter() - middle) / (middle - start))
    return np.array(ratios)


def main() -> int:
    benches = {
        "edge-list vs dense decoder": edge_list_decoder,
        "closed-form vs per-flow NoC": closed_form_noc,
        "spectral vs Euler transient": spectral_transient,
        "dense vs LU thermal": dense_thermal,
        "chunked vs per-epoch loop": chunk_loop,
    }
    failed = False
    print(f"{'pair':<30} {'parity':>6} {'median':>8} {'IQR':>6} {'min':>6}")
    for name, build in benches.items():
        runtime, oracle, agree = build()
        parity = bool(agree(runtime(), oracle()))
        ratios = speedups(runtime, oracle, pairs=10)
        q1, median, q3 = np.percentile(ratios, [25, 50, 75])
        failed |= not parity or median < 1.0
        print(
            f"{name:<30} {'ok' if parity else 'FAIL':>6} {median:>7.1f}x "
            f"{q3 - q1:>6.2f} {ratios.min():>5.1f}x"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
