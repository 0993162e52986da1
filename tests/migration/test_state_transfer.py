"""Tests for the PE state-transfer sizing model."""

import math

import pytest

from repro.migration.scheduler import MigrationScheduler
from repro.migration.state_transfer import StateTransferModel


class TestStateTransferModel:
    def test_payload_bits_scale_with_nodes(self):
        model = StateTransferModel(configuration_bits=1000, state_bits_per_tanner_node=10)
        assert model.payload_bits(0) == 1000
        assert model.payload_bits(5) == 1050

    def test_payload_flits_ceiling(self):
        model = StateTransferModel(
            configuration_bits=100, state_bits_per_tanner_node=0, flit_payload_bits=64
        )
        assert model.payload_flits(0) == math.ceil(100 / 64)

    def test_serialization_cycles(self, mesh4):
        """The scheduler serialises a payload at the model's rate."""
        model = StateTransferModel(serialization_cycles_per_flit=2)
        scheduler = MigrationScheduler(mesh4, state_model=model)
        assert scheduler.move_cycles(model.payload_flits(4), 0) == (
            2 * model.payload_flits(4)
        )

    def test_zero_state_zero_config(self):
        model = StateTransferModel(configuration_bits=0, state_bits_per_tanner_node=0)
        assert model.payload_bits(0) == 0
        assert model.payload_flits(0) == 0

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            StateTransferModel().payload_bits(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StateTransferModel(configuration_bits=-1)
        with pytest.raises(ValueError):
            StateTransferModel(flit_payload_bits=0)
        with pytest.raises(ValueError):
            StateTransferModel(serialization_cycles_per_flit=0)

    def test_default_config_is_kilobytes_range(self):
        """The default PE configuration stream should be in the multi-kilobit
        range typical of an NoC PE (routing tables + microcode), which is what
        produces the paper's ~1.6 % penalty at the 109 us period."""
        model = StateTransferModel()
        assert 8_000 <= model.configuration_bits <= 64_000
