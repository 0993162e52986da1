"""Parity tests: the edge-list/batched decoder must match the dense oracle.

The seed dense decoders (``dense_decoder.py`` next to this file) are the
behavioural specification; the edge-list min-sum decoder in
:mod:`repro.ldpc.decoder` must reproduce the dense min-sum decoder's decoded
bits, success flags, iteration counts, message counts and per-iteration
error traces bit-for-bit, across seeds and SNRs.
"""

import numpy as np
import pytest

import dense_decoder
from repro.ldpc import (
    BpskAwgnChannel,
    LdpcEncoder,
    MinSumDecoder,
    TannerGraph,
    array_code_parity_matrix,
)
from repro.ldpc.sparse import EdgeStructure


def dense_min_sum(graph, max_iterations):
    return dense_decoder.make_decoder("min-sum", graph, max_iterations=max_iterations)


@pytest.fixture(scope="module")
def code():
    H = array_code_parity_matrix(p=13, j=3, k=6)
    return TannerGraph(H), LdpcEncoder(H)


def _llr_batch(encoder, snr_db, seeds, channel_seed):
    channel = BpskAwgnChannel(snr_db=snr_db, rate=encoder.rate, seed=channel_seed)
    codewords = np.stack([encoder.random_codeword(seed=seed) for seed in seeds])
    llrs = np.stack([channel.transmit_llr(word) for word in codewords])
    return codewords, llrs


class TestEdgeStructure:
    def test_layout_matches_parity_matrix(self, code):
        graph, _ = code
        edges = EdgeStructure(graph)
        assert edges.num_edges == graph.num_edges
        rebuilt = np.zeros((graph.m, graph.n), dtype=np.uint8)
        rebuilt[edges.edge_check, edges.edge_var] = 1
        assert np.array_equal(rebuilt, graph.H)

    def test_variable_order_is_a_permutation(self, code):
        graph, _ = code
        edges = EdgeStructure(graph)
        assert sorted(edges.var_order.tolist()) == list(range(edges.num_edges))
        # In variable-major order the variable indices are non-decreasing.
        assert np.all(np.diff(edges.edge_var[edges.var_order]) >= 0)

    def test_syndrome_matches_dense_parity(self, code):
        graph, _ = code
        edges = EdgeStructure(graph)
        rng = np.random.default_rng(3)
        hard = (rng.random((7, graph.n)) < 0.5).astype(np.uint8)
        expected = (hard.astype(np.int64) @ graph.H.T.astype(np.int64)) & 1
        assert np.array_equal(edges.syndrome(hard), expected)
        assert not edges.syndrome(np.zeros((2, graph.n), dtype=np.uint8)).any()


class TestConstruction:
    def test_invalid_parameters_rejected(self, code):
        graph, _ = code
        with pytest.raises(ValueError):
            MinSumDecoder(graph, max_iterations=0)
        with pytest.raises(ValueError):
            MinSumDecoder(graph, normalization=1.5)


class TestParityWithDense:
    @pytest.mark.parametrize("snr_db", (1.0, 2.5, 4.0))
    def test_single_block_parity(self, code, snr_db):
        graph, encoder = code
        dense = dense_min_sum(graph, max_iterations=20)
        sparse = MinSumDecoder(graph, max_iterations=20)
        codewords, llrs = _llr_batch(encoder, snr_db, seeds=range(6), channel_seed=31)
        for index in range(len(codewords)):
            expected = dense.decode(llrs[index], reference_bits=codewords[index])
            actual = sparse.decode(llrs[index], reference_bits=codewords[index])
            assert np.array_equal(expected.decoded_bits, actual.decoded_bits)
            assert expected.success == actual.success
            assert expected.iterations == actual.iterations
            assert expected.messages_exchanged == actual.messages_exchanged
            assert expected.per_iteration_errors == actual.per_iteration_errors

    @pytest.mark.parametrize("channel_seed", (7, 19))
    def test_batch_parity(self, code, channel_seed):
        graph, encoder = code
        dense = dense_min_sum(graph, max_iterations=15)
        sparse = MinSumDecoder(graph, max_iterations=15)
        codewords, llrs = _llr_batch(
            encoder, snr_db=2.0, seeds=range(10), channel_seed=channel_seed
        )
        expected = dense.decode_batch(llrs, reference_bits=codewords)
        actual = sparse.decode_batch(llrs, reference_bits=codewords)
        assert np.array_equal(expected.decoded_bits, actual.decoded_bits)
        assert np.array_equal(expected.success, actual.success)
        assert np.array_equal(expected.iterations, actual.iterations)
        assert np.array_equal(expected.messages_exchanged, actual.messages_exchanged)
        assert expected.per_iteration_errors == actual.per_iteration_errors


class TestFusedCheckNodeKernels:
    """The reshape/partition fast path and its irregular-layout fallback."""

    def test_regular_code_takes_the_fused_path(self, code):
        graph, _ = code
        assert EdgeStructure(graph).uniform_check_degree == 6

    def test_irregular_check_degrees_disable_fusion(self):
        H = self._irregular_matrix()
        assert EdgeStructure(TannerGraph(H)).uniform_check_degree is None

    @pytest.mark.parametrize("regular", [True, False], ids=["regular", "irregular"])
    def test_segment_signs_match_float_reduceat(self, code, regular):
        graph = code[0] if regular else TannerGraph(self._irregular_matrix())
        edges = EdgeStructure(graph)
        rng = np.random.default_rng(7)
        v_to_c = rng.normal(size=(6, edges.num_edges))
        v_to_c[0, :3] = 0.0  # zeros count as positive
        signs = np.where(v_to_c < 0, -1.0, 1.0)
        expected = np.multiply.reduceat(signs, edges.check_ptr, axis=1)
        assert np.array_equal(edges.segment_signs(v_to_c), expected)

    def test_irregular_fallback_matches_dense(self):
        """Mixed row weights force the reduceat path; parity must hold."""
        graph = TannerGraph(self._irregular_matrix())
        dense = dense_min_sum(graph, max_iterations=10)
        sparse = MinSumDecoder(graph, max_iterations=10)
        rng = np.random.default_rng(41)
        llrs = rng.normal(loc=0.8, scale=1.5, size=(12, graph.n))
        expected = dense.decode_batch(llrs)
        actual = sparse.decode_batch(llrs)
        assert np.array_equal(expected.decoded_bits, actual.decoded_bits)
        assert np.array_equal(expected.iterations, actual.iterations)
        assert np.array_equal(expected.success, actual.success)

    @staticmethod
    def _irregular_matrix():
        """A small parity matrix whose checks have degrees 2, 3 and 4."""
        H = np.zeros((6, 12), dtype=np.uint8)
        rng = np.random.default_rng(17)
        for row, degree in enumerate((2, 3, 4, 2, 4, 3)):
            cols = rng.choice(12, size=degree, replace=False)
            H[row, cols] = 1
        # Every variable needs at least one check.
        for col in np.flatnonzero(H.sum(axis=0) == 0):
            H[rng.integers(0, 6), col] = 1
        return H


class TestBatchSemantics:
    def test_batch_indexing(self, code):
        graph, encoder = code
        sparse = MinSumDecoder(graph)
        codewords, llrs = _llr_batch(encoder, snr_db=3.0, seeds=range(5), channel_seed=3)
        batch = sparse.decode_batch(llrs)
        assert len(batch) == 5
        results = [batch[index] for index in range(len(batch))]
        assert [result.success for result in results] == batch.success.tolist()
        assert [result.messages_exchanged for result in results] == (
            batch.messages_exchanged.tolist()
        )

    def test_shape_validation(self, code):
        graph, _ = code
        sparse = MinSumDecoder(graph)
        with pytest.raises(ValueError):
            sparse.decode(np.zeros(graph.n + 1))
        with pytest.raises(ValueError):
            sparse.decode_batch(np.zeros((2, graph.n + 1)))
        with pytest.raises(ValueError):
            sparse.decode_batch(
                np.zeros((2, graph.n)), reference_bits=np.zeros((3, graph.n))
            )

    def test_empty_batch(self, code):
        graph, _ = code
        batch = MinSumDecoder(graph).decode_batch(np.zeros((0, graph.n)))
        assert len(batch) == 0
        assert batch.decoded_bits.shape == (0, graph.n)

    def test_decode_batch_matches_loop(self, code):
        """A batch decodes each block exactly as decoding it alone would."""
        graph, encoder = code
        decoder = MinSumDecoder(graph)
        codewords, llrs = _llr_batch(encoder, snr_db=3.0, seeds=range(4), channel_seed=13)
        batch = decoder.decode_batch(llrs, reference_bits=codewords)
        for index in range(4):
            single = decoder.decode(llrs[index], reference_bits=codewords[index])
            assert np.array_equal(batch.decoded_bits[index], single.decoded_bits)
            assert batch[index].per_iteration_errors == single.per_iteration_errors
