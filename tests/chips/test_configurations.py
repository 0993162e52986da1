"""Tests for the five chip configurations A-E."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.chips.configurations import (
    PAPER_BASE_PEAKS_CELSIUS,
    all_configurations,
    configuration_names,
    get_configuration,
)
from repro.chips.profiles import row_powers
from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.policy import PeriodicMigrationPolicy


class TestRoster:
    def test_five_configurations(self):
        configs = all_configurations()
        assert [c.name for c in configs] == ["A", "B", "C", "D", "E"]

    def test_mesh_sizes_match_paper(self):
        """A and B are 4x4 chips; C, D and E are 5x5 chips."""
        for name in ("A", "B"):
            config = get_configuration(name)
            assert (config.topology.width, config.topology.height) == (4, 4)
        for name in ("C", "D", "E"):
            config = get_configuration(name)
            assert (config.topology.width, config.topology.height) == (5, 5)

    def test_unknown_configuration(self):
        with pytest.raises(ValueError):
            get_configuration("Z")

    def test_lowercase_accepted(self):
        assert get_configuration("a").name == "A"

    def test_configuration_names(self):
        assert configuration_names() == ("A", "B", "C", "D", "E")

    def test_cached_instances(self):
        assert get_configuration("A") is get_configuration("A")


class TestCalibration:
    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
    def test_baseline_peak_matches_figure1_axis(self, name):
        """Baseline (static mapping) peak temperature must equal the value the
        paper prints under each configuration in Figure 1."""
        config = get_configuration(name)
        assert config.base_peak_temperature() == pytest.approx(
            PAPER_BASE_PEAKS_CELSIUS[name], abs=0.01
        )

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
    def test_total_power_plausible(self, name):
        """A 160 nm chip of 70-110 mm^2 dissipating tens of watts."""
        config = get_configuration(name)
        assert 10.0 < config.total_power_w < 80.0

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
    def test_warm_band_exists(self, name):
        """Every configuration has one row with significantly higher power."""
        config = get_configuration(name)
        rows = row_powers(config.topology, config.power_map())
        others = np.delete(rows, np.argmax(rows))
        assert rows.max() > 1.2 * others.mean()

    def test_configuration_e_center_is_hot(self):
        config = get_configuration("E")
        power = config.power_map()
        center_power = power[(2, 2)]
        mean_power = np.mean(list(power.values()))
        assert center_power > 1.5 * mean_power


class TestWorkloadLinkage:
    @pytest.mark.parametrize("name", ["A", "C"])
    def test_workload_covers_all_pes(self, name):
        config = get_configuration(name)
        assert config.workload.num_tasks == config.num_units
        sizes = config.workload.partition.task_sizes()
        assert all(size > 0 for size in sizes)

    def test_per_task_power_totals_match_unit_power(self, chip_a):
        per_task = chip_a.per_task_power()
        assert sum(per_task.values()) == pytest.approx(chip_a.total_power_w)

    def test_power_map_with_migrated_mapping(self, chip_a):
        from repro.migration.transforms import XYShiftTransform

        shifted = chip_a.static_mapping.apply_transform(XYShiftTransform(chip_a.topology))
        migrated_power = chip_a.power_map(shifted)
        static_power = chip_a.power_map()
        # Total power is conserved, the spatial arrangement is not.
        assert sum(migrated_power.values()) == pytest.approx(sum(static_power.values()))
        assert migrated_power != static_power

    def test_tanner_nodes_per_task_total(self, chip_a):
        per_task = chip_a.tanner_nodes_per_task()
        assert sorted(per_task) == list(range(chip_a.num_units))
        assert sum(per_task.values()) == chip_a.workload.partition.graph.num_nodes

    def test_block_period_cycles(self, chip_a):
        assert chip_a.block_period_cycles(109.0) == 54500

    def test_description_present(self):
        for config in all_configurations():
            assert config.description


class TestTaskArrays:
    """The per-task arrays every controller of a chip reads, built once per chip."""

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
    def test_read_only_and_equal_to_the_dict_views(self, name):
        chip = get_configuration(name)
        arrays = chip.task_arrays
        assert chip.task_arrays is arrays
        tasks = range(chip.num_units)
        watts, sizes = chip.per_task_power(), chip.tanner_nodes_per_task()
        node_id = chip.topology.node_id
        assert arrays.static_nodes.tolist() == [
            node_id(chip.static_mapping.physical_of(task)) for task in tasks
        ]
        assert arrays.watts.tolist() == [watts[task] for task in tasks]
        assert arrays.tanner_nodes.tolist() == [sizes[task] for task in tasks]
        assert arrays.tanner_key == arrays.tanner_nodes.tobytes()
        for field in ("static_nodes", "watts", "tanner_nodes"):
            array = getattr(arrays, field)
            assert not array.flags.writeable, field
            with pytest.raises(ValueError):
                array[0] = 1

    def test_a_replaced_copy_builds_arrays_of_its_own(self):
        chip = get_configuration("C")
        copy = dataclasses.replace(chip)
        assert copy == chip
        assert copy.task_arrays is not chip.task_arrays
        for mine, theirs in zip(copy.task_arrays, chip.task_arrays):
            if isinstance(mine, np.ndarray):
                assert not np.shares_memory(mine, theirs)
                assert np.array_equal(mine, theirs)
            else:
                assert mine == theirs

    def test_controllers_share_the_chip_arrays(self):
        from repro.core.controller import RuntimeReconfigurationController

        chip = get_configuration("A")
        first = RuntimeReconfigurationController(chip)
        second = RuntimeReconfigurationController(chip, include_migration_energy=False)
        assert first.nodes is second.nodes is chip.task_arrays.static_nodes


class TestSharedArraysStayReadOnly:
    """Every array a chip shares with all of its runs and threads is
    read-only, on the chip and on a pickled copy (pickle keeps no flags)."""

    @staticmethod
    def _shared_arrays(chip):
        plans = chip.migration_unit.plans
        stages = [stage for key in plans.keys() for stage in plans.get(key).stages]
        model = chip.thermal_model
        solver = model.solver
        basis = solver._spectral_basis
        arrays = {
            "task_arrays.static_nodes": chip.task_arrays.static_nodes,
            "task_arrays.watts": chip.task_arrays.watts,
            "task_arrays.tanner_nodes": chip.task_arrays.tanner_nodes,
            "solver._steady_operator": solver._steady_operator,
            "solver._boundary": solver._boundary,
            "model.unit_nodes": model.unit_nodes,
            "model._injection": model._injection,
            "model._unit_operator": model._unit_operator,
            "model._unit_offset": model._unit_offset,
        }
        for name in ("eigenvalues", "to_modal", "from_modal"):
            arrays[f"eigenbasis.{name}"] = getattr(basis, name)
        for label, operator in (
            ("eigenbasis.nodes", basis.nodes),
            ("model._transient_operator", model._transient_operator),
        ):
            for name in ("fixed", "boundary", "ambient", "readout", "cells"):
                arrays[f"{label}.{name}"] = getattr(operator, name)
        for index, stage in enumerate(stages):
            arrays[f"stage {index}.step"] = stage.step
            arrays[f"stage {index}.energy"] = stage.energy
        return arrays

    def test_after_a_transient_run_and_a_fluid_plan(self):
        chip = dataclasses.replace(get_configuration("A"))
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=8, mode="transient", migration_style="fluid"
        )
        ThermalExperiment(chip, policy, settings=settings).run()
        assert len(chip.migration_unit.plans) > 0
        clone = pickle.loads(pickle.dumps(chip))
        for copy in (chip, clone):
            arrays = self._shared_arrays(copy)
            assert any(name.startswith("stage ") for name in arrays)
            assert [name for name, array in arrays.items() if array.flags.writeable] == []
