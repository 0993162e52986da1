"""Tests for the GF(2) systematic encoder."""

import numpy as np
import pytest

from repro.ldpc.encoder import LdpcEncoder
from repro.ldpc.matrix import array_code_parity_matrix


def satisfies_checks(encoder, word):
    return not np.any((encoder.H @ word) % 2)


class TestEncoder:
    def test_k_and_rate(self, small_encoder, small_code):
        H, _ = small_code
        # n - k is the GF(2) rank of H, at most its smaller dimension.
        assert H.shape[1] - small_encoder.k <= min(H.shape)
        assert 0 < small_encoder.rate < 1

    def test_encoded_words_satisfy_checks(self, small_encoder):
        rng = np.random.default_rng(1)
        for _ in range(10):
            info = rng.integers(0, 2, size=small_encoder.k, dtype=np.uint8)
            codeword = small_encoder.encode(info)
            assert satisfies_checks(small_encoder, codeword)

    def test_information_bits_recoverable(self, small_encoder):
        # The encoder is systematic on the free columns: information bits are
        # stored untouched at those positions.
        rng = np.random.default_rng(2)
        info = rng.integers(0, 2, size=small_encoder.k, dtype=np.uint8)
        codeword = small_encoder.encode(info)
        assert np.array_equal(codeword[small_encoder._free_cols], info)

    def test_zero_information_encodes_to_zero(self, small_encoder):
        codeword = small_encoder.encode(np.zeros(small_encoder.k, dtype=np.uint8))
        assert not codeword.any()

    def test_linearity(self, small_encoder):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=small_encoder.k, dtype=np.uint8)
        b = rng.integers(0, 2, size=small_encoder.k, dtype=np.uint8)
        sum_encoded = small_encoder.encode((a ^ b))
        encoded_sum = small_encoder.encode(a) ^ small_encoder.encode(b)
        assert np.array_equal(sum_encoded, encoded_sum)

    def test_wrong_length_rejected(self, small_encoder):
        with pytest.raises(ValueError):
            small_encoder.encode(np.zeros(small_encoder.k + 1, dtype=np.uint8))

    def test_random_codeword_is_valid(self, small_encoder):
        codeword = small_encoder.random_codeword(seed=11)
        assert satisfies_checks(small_encoder, codeword)

    def test_rate_half_array_code(self):
        H = array_code_parity_matrix(p=13, j=3, k=6)
        encoder = LdpcEncoder(H)
        # Design rate 0.5; true rate is a bit higher due to dependent rows.
        assert encoder.rate >= 0.5
