"""The orbits the controller walks, as the chip's plan memo keeps them.

A periodic transform cycles a mapping around an orbit of ``order(T)``
plans.  The first time a walk meets each plan it lowers it and keeps a
one-plan track beside it; once every plan on the orbit is memoized, the
orbit closes into one track of ``order(T) x stages`` phases whose arrays
and events every later run shares.  These tests pin what the memo holds:
one lowering per distinct plan, closed orbits of the right length, shared
read-only data, a bound on its keys, and a memo of its own for every copy
of a chip, pickled ones included.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.transforms import make_transform
from repro.migration.unit import MAX_CACHED_PLANS
from repro.stream.checkpoint import encode_checkpoint

PERIOD_S = 109e-6


def _cold_chip(name="A"):
    return dataclasses.replace(get_configuration(name))


def _walk(controller, scheme, epochs, **options):
    """Walk ``epochs`` epochs that each ask for ``scheme``."""
    transform = make_transform(scheme, controller.topology)
    return controller.walk(
        0, lambda epoch, in_flight: transform, np.full(epochs, PERIOD_S), **options
    )


def _static_key(chip, scheme, style="sudden", units=2):
    transform = make_transform(scheme, chip.topology)
    arrays = chip.task_arrays
    return (
        transform.name,
        transform.permutation_bytes,
        arrays.static_nodes.tobytes(),
        arrays.tanner_key,
        style,
        units,
    )


def _orbit(chip, scheme, **key):
    """The closed track the plan from the static mapping lies on."""
    track, phase = chip.migration_unit.plans.track(_static_key(chip, scheme, **key))
    assert track.closed
    return track, phase


class TestOrbitClosing:
    @pytest.mark.parametrize(
        "chip_name, scheme, order", [("A", "xy-shift", 4), ("A", "x-mirror", 2), ("E", "xy-shift", 5)]
    )
    def test_orbit_closes_after_order_plans(self, chip_name, scheme, order):
        """Each of the orbit's plans is lowered once, then the walk runs on
        the closed orbit: later laps lower nothing."""
        chip = _cold_chip(chip_name)
        controller = RuntimeReconfigurationController(chip)
        _walk(controller, scheme, 3 * order + 1)
        assert controller.migration_cost_computations == order
        assert len(chip.migration_unit.plans) == order
        track, _ = _orbit(chip, scheme)
        assert track.length == order
        assert np.array_equal(track.nodes[0], track.nodes[track.length])
        # Every plan on the orbit starts at its own phase of the one track.
        phases = {
            chip.migration_unit.plans.track(key, touch=False)
            for key in chip.migration_unit.plans.keys()
        }
        assert {entry[0] for entry in phases} == {track}
        assert sorted(entry[1] for entry in phases) == list(range(order))

    def test_staged_orbit_is_order_times_stages_long(self):
        """A fluid orbit holds every stage of every plan on it."""
        chip = _cold_chip("A")
        controller = RuntimeReconfigurationController(chip)
        events = []
        for _ in range(40):
            _, run, _ = _walk(controller, "rotation", 1, style="fluid", units_per_epoch=1)
            events += run
        stages = events[0].stage_count
        assert stages > 1
        track, _ = _orbit(chip, "rotation", style="fluid", units=1)
        assert track.length == 4 * stages
        assert controller.migration_cost_computations == 4
        assert controller.migrations_performed == sum(
            event.stage_index == 0 for event in events
        )


class TestSharedOrbit:
    def test_arrays_and_events_are_read_only_and_shared(self):
        chip = _cold_chip("A")
        first = RuntimeReconfigurationController(chip)
        _, warmup, _ = _walk(first, "xy-shift", 9)
        track, phase = _orbit(chip, "xy-shift")
        for array in (track.nodes, track.power, track.energy):
            assert not array.flags.writeable
        for event in track.events:
            assert not event.energy_vector.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                event.cycles = 0
        # A second controller walks the same orbit: the very same events,
        # no lowering, and power rows gathered from the same arrays.
        second = RuntimeReconfigurationController(chip)
        rows, events, _ = _walk(second, "xy-shift", 9)
        assert second.migration_cost_computations == 0
        assert second.migration_cache_hits == 9
        assert all(event is track.events[(phase + i) % 4] for i, event in enumerate(events))
        assert events == warmup
        assert np.shares_memory(second.nodes, track.nodes)
        assert np.array_equal(rows[0], track.power[phase] + track.energy[phase] / PERIOD_S)

    def test_copied_chip_gets_its_own_orbits(self):
        chip = _cold_chip("A")
        _walk(RuntimeReconfigurationController(chip), "xy-shift", 5)
        copy = dataclasses.replace(chip)
        assert copy.migration_unit.plans.track(_static_key(copy, "xy-shift")) is None
        controller = RuntimeReconfigurationController(copy)
        _walk(controller, "xy-shift", 5)
        assert controller.migration_cost_computations == 4
        mine, _ = _orbit(copy, "xy-shift")
        theirs, _ = _orbit(chip, "xy-shift")
        assert mine is not theirs
        assert not np.shares_memory(mine.power, theirs.power)
        assert np.array_equal(mine.power, theirs.power)

    def test_chip_pickles_with_its_orbits(self):
        chip = _cold_chip("E")
        original = RuntimeReconfigurationController(chip)
        _walk(original, "rotation", 40, style="batched")
        clone = pickle.loads(pickle.dumps(chip))
        track, phase = _orbit(clone, "rotation", style="batched")
        reference, reference_phase = _orbit(chip, "rotation", style="batched")
        assert track is not reference and phase == reference_phase
        for name in ("nodes", "power", "energy"):
            assert np.array_equal(getattr(track, name), getattr(reference, name))
            assert not getattr(track, name).flags.writeable
        assert track.events == reference.events
        # The clone walks its own copy of the orbit and lowers nothing.
        controller = RuntimeReconfigurationController(clone)
        rows, events, _ = _walk(controller, "rotation", 7, style="batched")
        fresh = RuntimeReconfigurationController(chip)
        expected_rows, expected_events, _ = _walk(fresh, "rotation", 7, style="batched")
        assert controller.migration_cost_computations == 0
        assert np.array_equal(rows, expected_rows) and events == expected_events
        assert encode_checkpoint(controller.state_dict()) == encode_checkpoint(
            fresh.state_dict()
        )


class TestMemoBoundHoldsTracks:
    def test_evicted_plans_take_their_tracks(self):
        """Past the bound a key leaves with its plan and its track."""
        chip = _cold_chip("A")
        plans = chip.migration_unit.plans
        controller = RuntimeReconfigurationController(chip)
        state = controller.state_dict()
        rng = np.random.default_rng(11)
        for _ in range(MAX_CACHED_PLANS + 30):
            mapping = rng.permutation(chip.num_units).tolist()
            controller.restore_state({**state, "mapping": mapping})
            _walk(controller, "xy-shift", 1)
        keys = set(plans.keys())
        assert len(keys) == MAX_CACHED_PLANS
        assert set(plans._tracks) <= keys
        assert len(plans._tracks) == MAX_CACHED_PLANS
