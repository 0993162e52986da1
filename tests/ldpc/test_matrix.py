"""Tests for the LDPC parity-check matrix constructions."""

import numpy as np
import pytest

from repro.ldpc.matrix import array_code_parity_matrix, validate_parity_matrix


class TestValidation:
    def test_accepts_valid_matrix(self):
        H = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        params = validate_parity_matrix(H)
        assert params.n == 3
        assert params.m == 2

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            validate_parity_matrix(np.array([[1, 2], [0, 1]]))

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            validate_parity_matrix(np.array([[1, 1], [0, 0]]))

    def test_rejects_empty_column(self):
        with pytest.raises(ValueError):
            validate_parity_matrix(np.array([[1, 0], [1, 0]]))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            validate_parity_matrix(np.array([1, 0, 1]))


class TestArrayCodeConstruction:
    def test_dimensions(self):
        H = array_code_parity_matrix(p=7, j=3, k=5)
        assert H.shape == (21, 35)

    def test_column_and_row_weights(self):
        H = array_code_parity_matrix(p=11, j=3, k=6)
        assert np.all(H.sum(axis=0) == 3)
        assert np.all(H.sum(axis=1) == 6)

    def test_first_block_row_is_identity_blocks(self):
        p = 5
        H = array_code_parity_matrix(p=p, j=2, k=3)
        for b in range(3):
            block = H[:p, b * p : (b + 1) * p]
            assert np.array_equal(block, np.eye(p, dtype=np.uint8))

    def test_rejects_j_greater_than_p(self):
        with pytest.raises(ValueError):
            array_code_parity_matrix(p=3, j=4, k=2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            array_code_parity_matrix(p=0, j=1, k=1)
