"""Tests for the min-sum decoder."""

import numpy as np
import pytest

from repro.ldpc.channel import BpskAwgnChannel, count_bit_errors
from repro.ldpc.decoder import MinSumDecoder
from repro.ldpc.matrix import array_code_parity_matrix
from repro.ldpc.tanner import TannerGraph


@pytest.fixture(scope="module")
def decoder_and_code():
    H = array_code_parity_matrix(p=7, j=3, k=6)
    graph = TannerGraph(H)
    decoder = MinSumDecoder(graph, max_iterations=30)
    return decoder, graph


class TestDecoding:
    def test_noiseless_zero_codeword(self, decoder_and_code):
        decoder, graph = decoder_and_code
        llr = np.full(graph.n, 8.0)  # strong confidence in all-zero
        result = decoder.decode(llr)
        assert result.success
        assert result.iterations == 1
        assert not result.decoded_bits.any()

    def test_corrects_small_noise(self, decoder_and_code, small_encoder):
        decoder, graph = decoder_and_code
        from repro.ldpc.encoder import LdpcEncoder

        encoder = LdpcEncoder(graph.H)
        codeword = encoder.random_codeword(seed=4)
        channel = BpskAwgnChannel(snr_db=5.0, rate=encoder.rate, seed=9)
        llr = channel.transmit_llr(codeword)
        result = decoder.decode(llr, reference_bits=codeword)
        assert result.success
        assert count_bit_errors(codeword, result.decoded_bits) == 0

    def test_corrects_single_flip(self, decoder_and_code):
        decoder, graph = decoder_and_code
        llr = np.full(graph.n, 6.0)
        llr[3] = -6.0  # one confidently wrong bit
        result = decoder.decode(llr)
        assert result.success
        assert not result.decoded_bits.any()

    def test_gives_up_after_max_iterations(self, decoder_and_code):
        decoder, graph = decoder_and_code
        rng = np.random.default_rng(0)
        # Garbage LLRs: decoding should fail but terminate.
        llr = rng.normal(0, 0.3, size=graph.n)
        result = decoder.decode(llr)
        assert result.iterations <= decoder.max_iterations
        if not result.success:
            assert result.iterations == decoder.max_iterations

    def test_message_count_accounting(self, decoder_and_code):
        decoder, graph = decoder_and_code
        llr = np.full(graph.n, 8.0)
        result = decoder.decode(llr)
        assert result.messages_exchanged == result.iterations * 2 * graph.num_edges

    def test_wrong_llr_length(self, decoder_and_code):
        decoder, graph = decoder_and_code
        with pytest.raises(ValueError):
            decoder.decode(np.zeros(graph.n + 2))

    def test_per_iteration_errors_recorded(self, decoder_and_code):
        decoder, graph = decoder_and_code
        reference = np.zeros(graph.n, dtype=np.uint8)
        llr = np.full(graph.n, 5.0)
        llr[0] = -5.0
        result = decoder.decode(llr, reference_bits=reference)
        assert len(result.per_iteration_errors) == result.iterations
        assert result.per_iteration_errors[-1] == 0


class TestDecoderConfiguration:
    def test_rejects_zero_iterations(self):
        H = array_code_parity_matrix(p=5, j=2, k=4)
        graph = TannerGraph(H)
        with pytest.raises(ValueError):
            MinSumDecoder(graph, max_iterations=0)

    def test_rejects_bad_normalization(self):
        H = array_code_parity_matrix(p=5, j=2, k=4)
        graph = TannerGraph(H)
        with pytest.raises(ValueError):
            MinSumDecoder(graph, normalization=0.0)
        with pytest.raises(ValueError):
            MinSumDecoder(graph, normalization=1.5)


class TestBerBehaviour:
    def test_ber_improves_with_snr(self):
        """Higher SNR must not give more post-decoding errors (BER curve shape)."""
        H = array_code_parity_matrix(p=11, j=3, k=6)
        graph = TannerGraph(H)
        from repro.ldpc.encoder import LdpcEncoder

        encoder = LdpcEncoder(H)
        decoder = MinSumDecoder(graph, max_iterations=25)
        errors_by_snr = {}
        iterations_by_snr = {}
        for snr_db in (0.0, 4.0):
            channel = BpskAwgnChannel(snr_db=snr_db, rate=encoder.rate, seed=17)
            errors = 0
            iterations = 0
            for trial in range(6):
                codeword = encoder.random_codeword(seed=trial)
                llr = channel.transmit_llr(codeword)
                result = decoder.decode(llr)
                errors += count_bit_errors(codeword, result.decoded_bits)
                iterations += result.iterations
            errors_by_snr[snr_db] = errors
            iterations_by_snr[snr_db] = iterations
        assert errors_by_snr[4.0] <= errors_by_snr[0.0]
        # ... and converges in no more iterations.
        assert iterations_by_snr[4.0] <= iterations_by_snr[0.0]
