"""Experiment E4 — the migration period sweep (Section 3 text).

The paper reports, for migration periods of 109, 437.2 and 874.4
microseconds: overall throughput reductions of 1.6 %, <0.4 % and <0.2 %
respectively, with the peak temperature rising by less than a tenth of a
degree when moving from the shortest to the middle period.

This benchmark regenerates those rows (throughput penalty and settled peak
per period) for configuration A with the X-Y shift scheme, in both the
steady-average and the transient (ripple-resolving) evaluation modes.
"""

import pytest

import perf_utils
from conftest import print_rows

from repro.analysis.sweep import PAPER_PENALTIES, PAPER_PERIODS_US, run_period_sweep


@pytest.fixture(scope="module")
def sweep_steady(chip_a):
    return run_period_sweep(
        chip_a, scheme="xy-shift", periods_us=PAPER_PERIODS_US, mode="steady", num_epochs=41
    )


def test_period_sweep_throughput_penalty(benchmark, chip_a):
    """Benchmark the steady-mode sweep and check the penalty column's shape."""
    solver = chip_a.thermal_model.solver
    solves_before = solver.steady_solve_count
    factorizations_before = solver.step_factorization_count
    with perf_utils.timed() as timer:
        sweep = benchmark.pedantic(
            run_period_sweep,
            kwargs={
                "configuration": chip_a,
                "scheme": "xy-shift",
                "periods_us": PAPER_PERIODS_US,
                "mode": "steady",
                "num_epochs": 41,
            },
            rounds=1,
            iterations=1,
        )
    # Regression guard: a steady sweep performs one batched solve per
    # experiment against the single construction-time factorisation — no
    # per-epoch solves, no step-matrix factorisations.
    assert solver.steady_solve_count - solves_before == len(PAPER_PERIODS_US)
    assert solver.step_factorization_count == factorizations_before
    perf_utils.record_perf(
        "analysis.period_sweep.steady",
        timer.seconds,
        throughput=len(PAPER_PERIODS_US) / timer.seconds,
        throughput_unit="periods/s",
    )
    rows = [
        {
            "period_us": point.period_us,
            "throughput_penalty_pct": round(100 * point.throughput_penalty, 3),
            "paper_penalty_pct": round(100 * PAPER_PENALTIES[point.period_us], 2),
            "settled_peak_c": round(point.settled_peak_celsius, 2),
            "reduction_c": round(point.peak_reduction_celsius, 2),
        }
        for point in sorted(sweep.points, key=lambda p: p.period_us)
    ]
    print_rows("Migration period sweep (configuration A, X-Y shift)", rows)

    penalties = sweep.penalties()
    assert penalties[109.0] > penalties[437.2] > penalties[874.4]
    assert penalties[109.0] < 0.03
    assert penalties[437.2] < 0.008
    assert penalties[874.4] < 0.004


def test_period_sweep_peak_ripple_transient(benchmark, chip_a):
    """Transient mode: the residual peak rise with longer periods is small."""
    with perf_utils.timed() as timer:
        sweep = benchmark.pedantic(
            run_period_sweep,
            kwargs={
                "configuration": chip_a,
                "scheme": "xy-shift",
                "periods_us": PAPER_PERIODS_US,
                "mode": "transient",
                "num_epochs": 25,
            },
            rounds=1,
            iterations=1,
        )
    perf_utils.record_perf(
        "analysis.period_sweep.transient",
        timer.seconds,
        throughput=len(PAPER_PERIODS_US) / timer.seconds,
        throughput_unit="periods/s",
    )
    rises = sweep.peak_rise_vs_fastest()
    rows = [
        {
            "period_us": period,
            "peak_rise_vs_109us_c": round(rise, 3),
            "paper_says": "< 0.1 C (109 -> 437.2 us)" if period == 437.2 else "-",
        }
        for period, rise in sorted(rises.items())
    ]
    print_rows("Peak-temperature rise vs the 109 us period (transient mode)", rows)
    # The paper reports <0.1 degC between the 109 us and 437.2 us periods; our
    # RC model has a faster per-block time constant (~1.7 ms), so the residual
    # ripple is larger but still well under a degree.  See EXPERIMENTS.md.
    assert abs(rises[437.2]) < 1.0
    assert abs(rises[874.4]) < 2.0


def test_penalty_scales_inversely_with_period(sweep_steady):
    """Doubling/quadrupling the period divides the penalty accordingly."""
    penalties = sweep_steady.penalties()
    ratio_4x = penalties[109.0] / penalties[437.2]
    ratio_8x = penalties[109.0] / penalties[874.4]
    rows = [
        {"ratio": "penalty(109) / penalty(437.2)", "value": round(ratio_4x, 2), "expected": "~4"},
        {"ratio": "penalty(109) / penalty(874.4)", "value": round(ratio_8x, 2), "expected": "~8"},
    ]
    print_rows("Penalty scaling with period", rows)
    assert 3.0 < ratio_4x < 5.0
    assert 6.0 < ratio_8x < 10.0
