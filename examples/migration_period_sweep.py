"""Migration period sweep: the thermal-benefit / throughput-cost trade-off.

Reproduces the Section 3 discussion: migrating every 109 us gives the most
uniform thermal profile but costs ~1.6 % throughput; stretching the period to
437.2 us and 874.4 us cuts the penalty to under 0.4 % and 0.2 % while the
peak temperature barely moves.  Also prints the Figure 1 reductions for every
migration scheme on the chosen configuration so the trade-off has context.

Run with:

    python examples/migration_period_sweep.py [configuration]

where ``configuration`` is one of A, B, C, D, E (default A).
"""

from __future__ import annotations

import sys

from repro import get_configuration
from repro.analysis import generate_figure1, run_period_sweep
from repro.analysis.sweep import PAPER_PENALTIES, PAPER_PERIODS_US


def main() -> None:
    name = sys.argv[1].upper() if len(sys.argv) > 1 else "A"
    chip = get_configuration(name)
    print(f"Configuration {chip.name}: baseline peak "
          f"{chip.base_peak_temperature():.2f} C, {chip.total_power_w:.1f} W total")
    print()

    # Scheme comparison at the paper's base period.
    print("Peak-temperature reduction per migration scheme (109 us period):")
    for cell in generate_figure1(configurations=[name], period_us=109.0).cells:
        print(f"  {cell.scheme:<12} {cell.reduction_celsius:+6.2f} C "
              f"(throughput penalty {100 * cell.throughput_penalty:.2f} %)")
    print()

    # Period sweep with the best scheme.
    sweep = run_period_sweep(name, scheme="xy-shift", periods_us=PAPER_PERIODS_US,
                             mode="steady", num_epochs=41)
    print(f"{'period (us)':>12} {'penalty %':>10} {'paper %':>9} "
          f"{'peak (C)':>9} {'reduction (C)':>14}")
    for point in sorted(sweep.points, key=lambda p: p.period_us):
        paper = 100 * PAPER_PENALTIES[point.period_us]
        print(f"{point.period_us:>12.1f} {100 * point.throughput_penalty:>10.2f} "
              f"{paper:>9.2f} {point.settled_peak_celsius:>9.2f} "
              f"{point.peak_reduction_celsius:>14.2f}")
    print()
    rises = sweep.peak_rise_vs_fastest()
    print("Peak-temperature rise relative to the 109 us period:")
    for period in sorted(rises):
        print(f"  {period:7.1f} us : {rises[period]:+.3f} C")
    print()
    print("Reading: longer periods cost almost nothing thermally but recover most of "
          "the throughput — the paper recommends aligning migrations with LDPC block "
          "boundaries at the longer periods for exactly this reason.")


if __name__ == "__main__":
    main()
