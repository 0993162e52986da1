"""Property-based tests for the one per-epoch channel validator.

``EpochWindow`` is the only code that checks per-epoch channels — the
scenario compiler, the stream sources and ``ThermalExperiment`` all hand it
their arrays.  Over generated windows (1-12 epochs, 1-25 units, every channel
optional, load global or per-unit) a window's JSONL record decodes exactly,
``head`` slices every channel, and corrupting any single entry of any channel
is rejected with a ``ValueError`` naming that channel.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.stream import EpochWindow
from repro.stream.window import CHANNELS

#: Valid value range of each channel.
BOUNDS = {
    "load_modulation": (0.0, 4.0),
    "ambient_offsets": (-20.0, 20.0),
    "snr_schedule": (-5.0, 10.0),
    "noc_rates": (0.0, 0.5),
    "period_scale": (0.01, 8.0),
}

#: Single-entry corruptions each channel must reject.
CORRUPTIONS = {
    "load_modulation": ("nan", "inf", "-inf", "negative", "extra", "missing"),
    "ambient_offsets": ("nan", "inf", "-inf", "extra", "missing"),
    "snr_schedule": ("nan", "inf", "-inf", "extra", "missing"),
    "noc_rates": ("nan", "inf", "-inf", "negative", "extra", "missing"),
    "period_scale": ("nan", "inf", "-inf", "zero", "extra", "missing"),
}


def _channel(draw, name, num_epochs, num_units):
    low, high = BOUNDS[name]
    shape = (num_epochs,)
    if name == "load_modulation" and draw(st.booleans()):
        shape = (num_epochs, num_units)
    elements = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, shape, elements=elements))


@st.composite
def window_fields(draw, required=None):
    """Constructor arguments of a valid window; ``required`` is always set."""
    num_epochs = draw(st.integers(1, 12))
    num_units = draw(st.integers(1, 25))
    fields = {
        "num_epochs": num_epochs,
        "start_epoch": draw(st.none() | st.integers(0, 10**6)),
    }
    for name in CHANNELS:
        if name == required or draw(st.booleans()):
            fields[name] = _channel(draw, name, num_epochs, num_units)
    return fields


def _assert_channels_equal(actual, expected, num_epochs):
    for name in CHANNELS:
        values = getattr(expected, name)
        if values is None:
            assert getattr(actual, name) is None
        else:
            got = getattr(actual, name)
            assert got.shape == values[:num_epochs].shape
            assert np.array_equal(got, values[:num_epochs])


class TestWindowProperties:
    @settings(max_examples=100, deadline=None)
    @given(fields=window_fields())
    def test_jsonl_round_trip_is_exact(self, fields):
        window = EpochWindow(**fields)
        record = {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in fields.items()
        }
        back = EpochWindow.from_json_line(json.dumps(record))
        assert back.num_epochs == window.num_epochs
        assert back.start_epoch == window.start_epoch
        _assert_channels_equal(back, window, window.num_epochs)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), fields=window_fields())
    def test_head_slices_every_channel(self, data, fields):
        window = EpochWindow(**fields)
        count = data.draw(st.integers(1, window.num_epochs))
        head = window.head(count)
        assert head.num_epochs == count
        assert head.start_epoch == window.start_epoch
        _assert_channels_equal(head, window, count)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_corrupt_entry_is_rejected(self, data):
        name = data.draw(st.sampled_from(CHANNELS))
        corruption = data.draw(st.sampled_from(CORRUPTIONS[name]))
        fields = data.draw(window_fields(required=name))
        values = fields[name].copy()
        if corruption == "extra":
            values = np.concatenate([values, values[:1]])
        elif corruption == "missing":
            values = values[1:]
        else:
            entry = tuple(
                data.draw(st.integers(0, size - 1)) for size in values.shape
            )
            if corruption == "negative":
                values[entry] = -data.draw(st.floats(1e-9, 4.0))
            else:
                values[entry] = {
                    "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "zero": 0.0
                }[corruption]
        fields[name] = values
        with pytest.raises(ValueError, match=name):
            EpochWindow(**fields)
