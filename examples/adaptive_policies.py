"""Extension: threshold-triggered and adaptive migration policies.

The paper's Section 2.3 notes that "the same migration unit can perform all
migration functions presented ... allowing dynamic alteration of the
migration function at runtime", and its conclusions point towards smarter
runtime control.  This example evaluates two such extensions on the hardest
configuration (E, whose hotspot sits on the fixed point of rotation and
mirroring):

* a *threshold* policy that only migrates while the peak temperature exceeds
  a trigger level (saving energy and throughput when the chip is cool), and
* an *adaptive* policy that re-selects the transform each period based on
  where the current hotspot is.

Run with:

    python examples/adaptive_policies.py
"""

from __future__ import annotations

from repro import (
    ExperimentSettings,
    PeriodicMigrationPolicy,
    ThermalExperiment,
    ThresholdMigrationPolicy,
    get_configuration,
)
from repro.core.policy import AdaptiveMigrationPolicy
from repro.migration import FIGURE1_SCHEMES

SETTINGS = ExperimentSettings(num_epochs=41, mode="steady", settle_epochs=40)


def main() -> None:
    chip = get_configuration("E")
    print(f"Configuration {chip.name}: centre-weighted hotspot, baseline peak "
          f"{chip.base_peak_temperature():.2f} C\n")

    rows = []

    # Fixed periodic schemes (the paper's Figure 1 policies).
    for scheme in FIGURE1_SCHEMES:
        policy = PeriodicMigrationPolicy(chip.topology, scheme, period_us=109.0)
        result = ThermalExperiment(chip, policy, settings=SETTINGS).run()
        rows.append((f"periodic {scheme}", result))

    # Threshold policy: migrate only while the chip is above 72 C.
    threshold = ThresholdMigrationPolicy(
        chip.topology, "xy-shift", trigger_celsius=72.0, period_us=109.0
    )
    rows.append(("threshold xy-shift @72C", ThermalExperiment(chip, threshold, settings=SETTINGS).run()))

    # Adaptive policy: pick the transform that moves the current hotspot furthest.
    adaptive = AdaptiveMigrationPolicy(chip.topology, period_us=109.0)
    rows.append(("adaptive", ThermalExperiment(chip, adaptive, settings=SETTINGS).run()))

    print(f"{'policy':<26} {'reduction (C)':>14} {'mean rise (C)':>14} "
          f"{'penalty %':>10} {'migrations':>11}")
    for name, result in rows:
        print(f"{name:<26} {result.peak_reduction_celsius:>14.2f} "
              f"{result.mean_increase_celsius:>14.3f} "
              f"{100 * result.throughput_penalty:>10.2f} "
              f"{result.migrations_performed:>11}")

    if adaptive.choice_counts:
        from collections import Counter

        counts = Counter(adaptive.choice_counts)
        chosen = ", ".join(f"{scheme} x{count}" for scheme, count in counts.most_common())
        print(f"\nAdaptive policy's transform choices: {chosen}")
    print("\nReading: on configuration E the translations (and the adaptive policy, which "
          "learns to avoid the fixed-point transforms) recover several degrees, while "
          "rotation and mirroring cannot move the central hotspot at all.")


if __name__ == "__main__":
    main()
