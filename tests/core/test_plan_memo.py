"""The chip's shared memo of lowered migration plans.

Every controller of one configuration object looks its plans up in
``configuration.migration_unit.plans``.  Sharing must change no result:
not under threads racing on one cold chip, not across a pickled copy, and
not when the memo's bound evicts a plan that is later needed again.
"""

import dataclasses
import os
import pickle
import sys
import threading

import numpy as np

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.transforms import make_transform
from repro.migration.unit import MAX_CACHED_PLANS
from repro.scenarios import compile_scenario, get_scenario, run_scenario
from repro.stream.checkpoint import encode_checkpoint


def _short(registered, **fields):
    return dataclasses.replace(
        get_scenario(registered), num_epochs=12, settle_epochs=6, **fields
    )


#: Chip A and chip E runs with sudden, fluid and batched plans.
SPECS = (
    _short("steady-baseline"),
    _short("fluid-under-burst"),
    _short(
        "steady-baseline",
        name="batched-rotation",
        scheme="rotation",
        migration_style="batched",
    ),
    _short("hotspot-attack"),
    _short(
        "hotspot-attack",
        name="fluid-rotation-e",
        migration_style="fluid",
        units_per_epoch=3,
    ),
    _short("steady-baseline", name="x-mirror-e", configuration="E", scheme="x-mirror"),
)


def _cold_chips():
    """Chips A and E, each with an empty plan memo of its own.

    The unit is built here: from Python 3.12 ``cached_property`` takes no
    lock, so threads racing on a first read could each build one.
    """
    chips = {name: dataclasses.replace(get_configuration(name)) for name in "AE"}
    for chip in chips.values():
        assert len(chip.migration_unit.plans) == 0
    return chips


def _run_on(chips, spec):
    """Run ``spec`` on ``chips[spec.configuration]``."""
    compiled = compile_scenario(spec)
    return run_scenario(
        dataclasses.replace(compiled, configuration=chips[spec.configuration])
    )


def _assert_same_entry(actual, expected):
    """Two memo entries hold equal plans: equal step and energy arrays."""
    assert encode_checkpoint(actual.to_dict()) == encode_checkpoint(expected.to_dict())
    for stage, want in zip(actual.stages, expected.stages):
        assert np.array_equal(stage.step, want.step)
        assert np.array_equal(stage.energy, want.energy)
        assert stage.moved == want.moved


class TestSharedMemoThreads:
    def test_threads_on_one_cold_chip_match_serial_runs(self):
        """More threads than CPUs, fast switching, one cold chip A and E."""
        serial_chips = _cold_chips()
        expected = [_run_on(serial_chips, spec) for spec in SPECS]
        shared = _cold_chips()
        count = (os.cpu_count() or 1) + 2
        results = [None] * count
        errors = []
        barrier = threading.Barrier(count)

        def work(index):
            # Each thread starts at a different spec, so first lowerings race.
            order = SPECS[index % len(SPECS):] + SPECS[: index % len(SPECS)]
            try:
                barrier.wait(timeout=30)
                results[index] = {spec.name: _run_on(shared, spec) for spec in order}
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(index,), daemon=True)
            for index in range(count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for outcome in results:
            assert [outcome[spec.name] for spec in SPECS] == expected
        for name in "AE":
            keys = shared[name].migration_unit.plans.keys()
            assert len(keys) == len(set(keys))
            assert set(keys) == set(serial_chips[name].migration_unit.plans.keys())


class TestPickledConfiguration:
    def test_clone_lowers_identical_plans(self):
        chip = dataclasses.replace(get_configuration("E"))
        _run_on({"E": chip}, SPECS[3])
        clone = pickle.loads(pickle.dumps(chip))
        assert clone.migration_unit.plans is not chip.migration_unit.plans
        # Plans neither memo holds yet: both lower them, to equal results.
        assert _run_on({"E": clone}, SPECS[4]) == _run_on({"E": chip}, SPECS[4])
        keys = chip.migration_unit.plans.keys()
        assert set(clone.migration_unit.plans.keys()) == set(keys)
        for key in keys:
            _assert_same_entry(
                clone.migration_unit.plans.get(key), chip.migration_unit.plans.get(key)
            )


class TestMemoBound:
    def test_bound_evicts_least_recently_used_and_relowers_equal_plans(self):
        """Fill the memo past its bound from random mappings; a plan hit
        every few lowerings survives, the oldest cold one is lowered again."""
        chip = dataclasses.replace(get_configuration("A"))
        plans = chip.migration_unit.plans
        controller = RuntimeReconfigurationController(chip)
        transform = make_transform("xy-shift", chip.topology)
        state = controller.state_dict()
        rng = np.random.default_rng(7)
        hot, oldest, *rest = {
            tuple(rng.permutation(chip.num_units)) for _ in range(MAX_CACHED_PLANS + 40)
        }

        def migrate_from(mapping):
            controller.restore_state({**state, "mapping": list(mapping)})
            controller.apply_migration(transform)
            return plans.keys()[-1]

        hot_key = migrate_from(hot)
        oldest_key = migrate_from(oldest)
        oldest_entry = plans.get(oldest_key)
        for index, mapping in enumerate(rest):
            migrate_from(mapping)
            if index % 16 == 0:
                migrate_from(hot)
            assert len(plans) <= MAX_CACHED_PLANS
        assert len(plans) == MAX_CACHED_PLANS
        keys = plans.keys()
        assert hot_key in keys and oldest_key not in keys
        lowered = controller.migration_cost_computations
        assert lowered == 2 + len(rest)
        migrate_from(oldest)
        assert controller.migration_cost_computations == lowered + 1
        _assert_same_entry(plans.get(oldest_key), oldest_entry)
