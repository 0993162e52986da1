"""Seed dense-matrix LDPC decoders, kept as the oracle for the edge-list ones.

These carry full ``m x n`` message matrices and decode one codeword at a
time.  :mod:`repro.ldpc.decoder`'s edge-list decoders must reproduce their
decoded bits, success flags, iteration counts, message counts and
per-iteration error traces bit for bit (``tests/ldpc/test_sparse.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ldpc.decoder import BatchDecodeResult, DecodeResult
from repro.ldpc.tanner import TannerGraph


def batch_from_results(
    results: List[DecodeResult], n: Optional[int] = None
) -> BatchDecodeResult:
    """Stack per-block results into one :class:`BatchDecodeResult`."""
    if not results:
        return BatchDecodeResult(
            decoded_bits=np.empty((0, n or 0), dtype=np.uint8),
            success=np.zeros(0, dtype=bool),
            iterations=np.zeros(0, dtype=np.int64),
            messages_exchanged=np.zeros(0, dtype=np.int64),
            per_iteration_errors=None,
        )
    per_iteration = [list(result.per_iteration_errors) for result in results]
    return BatchDecodeResult(
        decoded_bits=np.stack([result.decoded_bits for result in results]),
        success=np.array([result.success for result in results], dtype=bool),
        iterations=np.array([result.iterations for result in results], dtype=np.int64),
        messages_exchanged=np.array(
            [result.messages_exchanged for result in results], dtype=np.int64
        ),
        per_iteration_errors=per_iteration if any(per_iteration) else None,
    )


class _MessagePassingDecoder:
    """Shared structure of the sum-product and min-sum decoders."""

    def __init__(self, graph: TannerGraph, max_iterations: int = 20):
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.graph = graph
        self.max_iterations = max_iterations
        self.H = graph.H.astype(bool)
        self.m, self.n = self.H.shape
        #: messages per full iteration = 2 edges traversals (v->c and c->v)
        self.messages_per_iteration = 2 * graph.num_edges

    # ------------------------------------------------------------------
    def decode(
        self,
        channel_llr: np.ndarray,
        reference_bits: Optional[np.ndarray] = None,
    ) -> DecodeResult:
        """Decode one block of channel LLRs.

        Parameters
        ----------
        channel_llr:
            Length-``n`` vector of channel log-likelihood ratios.
        reference_bits:
            Optional transmitted codeword; when provided the per-iteration
            bit-error counts are recorded in the result.
        """
        llr = np.asarray(channel_llr, dtype=np.float64)
        if llr.shape != (self.n,):
            raise ValueError(f"expected {self.n} LLRs, got shape {llr.shape}")

        # v->c messages, initialised to the channel LLRs on every edge.
        v_to_c = np.where(self.H, llr[np.newaxis, :], 0.0)
        c_to_v = np.zeros_like(v_to_c)
        per_iteration_errors: List[int] = []
        messages = 0

        hard = (llr < 0).astype(np.uint8)
        for iteration in range(1, self.max_iterations + 1):
            c_to_v = self._check_node_update(v_to_c)
            v_to_c, posterior = self._variable_node_update(llr, c_to_v)
            messages += self.messages_per_iteration

            hard = (posterior < 0).astype(np.uint8)
            if reference_bits is not None:
                per_iteration_errors.append(int(np.sum(hard != reference_bits)))
            if self.graph.is_codeword(hard):
                return DecodeResult(
                    decoded_bits=hard,
                    success=True,
                    iterations=iteration,
                    messages_exchanged=messages,
                    per_iteration_errors=per_iteration_errors,
                )

        return DecodeResult(
            decoded_bits=hard,
            success=False,
            iterations=self.max_iterations,
            messages_exchanged=messages,
            per_iteration_errors=per_iteration_errors,
        )

    # ------------------------------------------------------------------
    def decode_batch(
        self,
        llr_matrix: np.ndarray,
        reference_bits: Optional[np.ndarray] = None,
    ) -> BatchDecodeResult:
        """Decode ``(num_blocks, n)`` LLRs, one block at a time."""
        llr = np.asarray(llr_matrix, dtype=np.float64)
        if llr.ndim != 2 or llr.shape[1] != self.n:
            raise ValueError(f"expected (num_blocks, {self.n}) LLRs, got shape {llr.shape}")
        references: Optional[np.ndarray] = None
        if reference_bits is not None:
            references = np.asarray(reference_bits)
            if references.shape != llr.shape:
                raise ValueError("reference_bits must match the LLR batch shape")
        results = [
            self.decode(
                llr[block],
                reference_bits=None if references is None else references[block],
            )
            for block in range(llr.shape[0])
        ]
        return batch_from_results(results, n=self.n)

    # ------------------------------------------------------------------
    def _check_node_update(self, v_to_c: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _variable_node_update(
        self, llr: np.ndarray, c_to_v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Common variable-node rule: sum of channel and extrinsic messages."""
        totals = llr + c_to_v.sum(axis=0)
        v_to_c = np.where(self.H, totals[np.newaxis, :] - c_to_v, 0.0)
        return v_to_c, totals


class SumProductDecoder(_MessagePassingDecoder):
    """Full sum-product (belief propagation) decoder using the tanh rule."""

    name = "sum-product"

    def _check_node_update(self, v_to_c: np.ndarray) -> np.ndarray:
        # tanh-rule: the outgoing message on edge (i, j) is
        # 2 * atanh( prod_{j' != j} tanh(v_to_c[i, j'] / 2) ).
        tanh_half = np.where(self.H, np.tanh(np.clip(v_to_c, -30, 30) / 2.0), 1.0)
        # Product over each row, then divide out the target edge.
        row_product = np.prod(tanh_half, axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            extrinsic = row_product / tanh_half
        extrinsic = np.where(np.isfinite(extrinsic), extrinsic, 0.0)
        extrinsic = np.clip(extrinsic, -0.999999, 0.999999)
        messages = 2.0 * np.arctanh(extrinsic)
        return np.where(self.H, messages, 0.0)


class MinSumDecoder(_MessagePassingDecoder):
    """Normalised min-sum decoder (the hardware-friendly approximation)."""

    name = "min-sum"

    def __init__(
        self,
        graph: TannerGraph,
        max_iterations: int = 20,
        normalization: float = 0.75,
    ):
        super().__init__(graph, max_iterations)
        if not 0.0 < normalization <= 1.0:
            raise ValueError("normalization factor must be in (0, 1]")
        self.normalization = normalization

    def _check_node_update(self, v_to_c: np.ndarray) -> np.ndarray:
        magnitudes = np.where(self.H, np.abs(v_to_c), np.inf)
        signs = np.where(self.H, np.sign(v_to_c), 1.0)
        # Treat exact zeros as positive to keep the sign product defined.
        signs = np.where(signs == 0.0, 1.0, signs)

        row_sign = np.prod(signs, axis=1, keepdims=True)
        extrinsic_sign = row_sign * signs  # dividing out +/-1 equals multiplying

        # Min and second-min per row for the "exclude self" minimum; only the
        # two smallest magnitudes are needed, so partial selection beats a
        # full row sort.
        partitioned = np.partition(magnitudes, 1, axis=1)
        min1 = partitioned[:, 0][:, np.newaxis]
        min2 = partitioned[:, 1][:, np.newaxis]
        use_second = np.isclose(magnitudes, min1)
        extrinsic_mag = np.where(use_second, min2, min1)

        messages = self.normalization * extrinsic_sign * extrinsic_mag
        return np.where(self.H, messages, 0.0)


def make_decoder(name: str, graph: TannerGraph, max_iterations: int = 20, **kwargs):
    """Dense counterpart of :func:`repro.ldpc.decoder.make_decoder`."""
    decoders = {"min-sum": MinSumDecoder, "sum-product": SumProductDecoder}
    return decoders[name](graph, max_iterations=max_iterations, **kwargs)
