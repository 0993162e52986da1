"""Tests for the channel models."""

import numpy as np
import pytest

from repro.ldpc.channel import BpskAwgnChannel, count_bit_errors


class TestBpskAwgn:
    def test_modulation_mapping(self):
        channel = BpskAwgnChannel(snr_db=3.0, seed=1)
        symbols = channel.modulate(np.array([0, 1, 0, 1], dtype=np.uint8))
        assert np.array_equal(symbols, np.array([1.0, -1.0, 1.0, -1.0]))

    def test_noise_sigma_decreases_with_snr(self):
        low = BpskAwgnChannel(snr_db=0.0, rate=0.5)
        high = BpskAwgnChannel(snr_db=6.0, rate=0.5)
        assert high.noise_sigma < low.noise_sigma

    def test_llr_sign_matches_bits_at_high_snr(self):
        channel = BpskAwgnChannel(snr_db=15.0, rate=0.5, seed=3)
        bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        llr = channel.transmit_llr(bits)
        hard = (llr < 0).astype(np.uint8)
        assert np.array_equal(hard, bits)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BpskAwgnChannel(snr_db=3.0, rate=0.0)
        with pytest.raises(ValueError):
            BpskAwgnChannel(snr_db=3.0, rate=1.5)

    def test_seed_reproducibility(self):
        bits = np.zeros(32, dtype=np.uint8)
        a = BpskAwgnChannel(snr_db=2.0, seed=7).transmit(bits)
        b = BpskAwgnChannel(snr_db=2.0, seed=7).transmit(bits)
        assert np.array_equal(a, b)


class TestBitErrors:
    def test_counts_differences(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        b = np.array([0, 0, 1, 1], dtype=np.uint8)
        assert count_bit_errors(a, b) == 2

    def test_zero_for_identical(self):
        a = np.array([1, 0, 1], dtype=np.uint8)
        assert count_bit_errors(a, a.copy()) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            count_bit_errors(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
