"""EpochWindow: validation, broadcasting, trimming and the JSONL codec.

Channel validation over generated windows lives in
``tests/property/test_property_window.py``.
"""

import numpy as np
import pytest

from repro.stream import EpochWindow
from repro.stream.window import _as_schedule


class TestValidation:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="at least one epoch"):
            EpochWindow(num_epochs=0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start_epoch"):
            EpochWindow(num_epochs=3, start_epoch=-1)

    def test_schedule_helper_passes_none(self):
        assert _as_schedule(None, "x", 4) is None


class TestModulationMatrix:
    def test_global_modulation_broadcasts(self):
        window = EpochWindow(num_epochs=3, load_modulation=[0.5, 1.0, 1.5])
        matrix = window.modulation_matrix(4)
        assert matrix.shape == (3, 4)
        assert np.array_equal(matrix[:, 0], [0.5, 1.0, 1.5])
        assert np.array_equal(matrix[:, 3], [0.5, 1.0, 1.5])
        matrix[0, 0] = 9.0  # the broadcast is a writable copy
        assert window.load_modulation[0] == 0.5

    def test_per_unit_modulation_passes_through(self):
        values = np.ones((2, 4))
        window = EpochWindow(num_epochs=2, load_modulation=values)
        assert np.array_equal(window.modulation_matrix(4), values)

    def test_per_unit_modulation_unit_mismatch(self):
        window = EpochWindow(num_epochs=2, load_modulation=np.ones((2, 4)))
        with pytest.raises(ValueError, match="chip has 9"):
            window.modulation_matrix(9)

    def test_no_modulation_is_none(self):
        assert EpochWindow(num_epochs=2).modulation_matrix(4) is None


class TestHead:
    def test_trims_every_schedule(self):
        window = EpochWindow(
            num_epochs=4,
            start_epoch=8,
            load_modulation=[1.0, 2.0, 3.0, 4.0],
            ambient_offsets=[0.0, 0.5, 1.0, 1.5],
            snr_schedule=[3.0, 3.1, 3.2, 3.3],
            noc_rates=[0.1, 0.2, 0.3, 0.4],
        )
        head = window.head(2)
        assert head.num_epochs == 2
        assert head.start_epoch == 8
        assert np.array_equal(head.load_modulation, [1.0, 2.0])
        assert np.array_equal(head.ambient_offsets, [0.0, 0.5])
        assert np.array_equal(head.snr_schedule, [3.0, 3.1])
        assert np.array_equal(head.noc_rates, [0.1, 0.2])

    def test_full_head_is_self(self):
        window = EpochWindow(num_epochs=3)
        assert window.head(3) is window

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EpochWindow(num_epochs=3).head(4)
        with pytest.raises(ValueError):
            EpochWindow(num_epochs=3).head(0)


class TestJsonlCodec:
    def test_round_trip(self):
        window = EpochWindow(
            num_epochs=3,
            start_epoch=6,
            load_modulation=[0.5, 1.0, 1.5],
            ambient_offsets=[0.0, 1.0, 2.0],
            snr_schedule=[3.0, 3.5, 4.0],
            noc_rates=[0.05, 0.06, 0.07],
        )
        back = EpochWindow.from_json_line(window.to_json_line())
        assert back.num_epochs == 3
        assert back.start_epoch == 6
        assert np.array_equal(back.load_modulation, window.load_modulation)
        assert np.array_equal(back.ambient_offsets, window.ambient_offsets)
        assert np.array_equal(back.snr_schedule, window.snr_schedule)
        assert np.array_equal(back.noc_rates, window.noc_rates)

    def test_optional_fields_omitted(self):
        window = EpochWindow(num_epochs=2)
        assert window.to_dict() == {"num_epochs": 2}
        back = EpochWindow.from_json_line(window.to_json_line())
        assert back.load_modulation is None
        assert back.start_epoch is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown EpochWindow fields"):
            EpochWindow.from_dict({"num_epochs": 2, "epochs": 2})

    def test_missing_num_epochs_rejected(self):
        with pytest.raises(ValueError, match="num_epochs"):
            EpochWindow.from_dict({"start_epoch": 0})

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            EpochWindow.from_json_line("[1, 2, 3]")

    def test_per_unit_modulation_round_trips(self):
        window = EpochWindow(
            num_epochs=2, load_modulation=[[1.0, 2.0], [3.0, 4.0]]
        )
        back = EpochWindow.from_json_line(window.to_json_line())
        assert back.load_modulation.shape == (2, 2)
        assert np.array_equal(back.load_modulation, window.load_modulation)
