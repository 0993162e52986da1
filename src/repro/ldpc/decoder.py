"""The iterative message-passing LDPC decoder.

:class:`MinSumDecoder` is the normalised min-sum approximation of belief
propagation that hardware decoders (including the NoC decoder the paper
instruments) implement.  It operates on log-likelihood ratios (positive LLR
= bit 0 more likely) and exposes per-iteration message counts.

Messages live on the Tanner edges (:class:`~repro.ldpc.sparse.EdgeStructure`),
so per-iteration work scales with the number of edges rather than ``m * n``,
and :meth:`~MinSumDecoder.decode_batch` runs a whole ``(num_blocks, n)``
batch of codewords at once with per-block early termination: blocks drop out
of the active set as soon as their syndrome clears, so each block's decisions
and iteration count are those of decoding it alone.  The seed dense-matrix
decoders it reproduces bit for bit are kept as the test oracle in
``tests/ldpc/dense_decoder.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from .sparse import EdgeStructure
from .tanner import TannerGraph

# Registry counters for every decode batch (no-ops while telemetry is
# disabled): batches decoded, blocks in them, total iterations spent.
_OBS_BATCHES = _obs_counter("ldpc.decode_batches")
_OBS_BLOCKS = _obs_counter("ldpc.decode_blocks")
_OBS_ITERATIONS = _obs_counter("ldpc.decode_iterations")


def _observe_batch(result: "BatchDecodeResult") -> None:
    """Fold one finished decode batch into the telemetry registry."""
    _OBS_BATCHES.add()
    _OBS_BLOCKS.add(len(result))
    _OBS_ITERATIONS.add(int(result.iterations.sum()))


@dataclass
class DecodeResult:
    """Outcome of decoding one received block."""

    decoded_bits: np.ndarray
    success: bool
    iterations: int
    messages_exchanged: int
    #: Hard-decision bits after each iteration (for convergence analysis).
    per_iteration_errors: List[int] = field(default_factory=list)


@dataclass
class BatchDecodeResult:
    """Outcome of decoding a batch of received blocks.

    Stores the per-block fields of :class:`DecodeResult` as arrays so the
    batched decoder fills them without materialising one object per block;
    index with ``batch[i]`` to recover a plain result.
    """

    decoded_bits: np.ndarray  #: ``(num_blocks, n)`` hard decisions.
    success: np.ndarray  #: ``(num_blocks,)`` bool.
    iterations: np.ndarray  #: ``(num_blocks,)`` iterations used per block.
    messages_exchanged: np.ndarray  #: ``(num_blocks,)`` messages per block.
    per_iteration_errors: Optional[List[List[int]]] = None

    def __len__(self) -> int:
        return self.decoded_bits.shape[0]

    def __getitem__(self, index: int) -> DecodeResult:
        errors: List[int] = []
        if self.per_iteration_errors is not None:
            errors = list(self.per_iteration_errors[index])
        return DecodeResult(
            decoded_bits=self.decoded_bits[index],
            success=bool(self.success[index]),
            iterations=int(self.iterations[index]),
            messages_exchanged=int(self.messages_exchanged[index]),
            per_iteration_errors=errors,
        )



class MinSumDecoder:
    """Normalised min-sum decoder (the hardware-friendly approximation).

    The "exclude self" minimum per check needs only the two smallest
    magnitudes: the segment minimum, then the minimum with the first
    occurrence of the minimum masked out (duplicates included).
    """

    name = "min-sum"

    def __init__(
        self,
        graph: TannerGraph,
        max_iterations: int = 20,
        normalization: float = 0.75,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < normalization <= 1.0:
            raise ValueError("normalization factor must be in (0, 1]")
        self.graph = graph
        self.max_iterations = max_iterations
        self.normalization = normalization
        self.edges = EdgeStructure(graph)
        self.m = graph.m
        self.n = graph.n
        #: messages per full iteration = 2 edge traversals (v->c and c->v)
        self.messages_per_iteration = 2 * graph.num_edges

    # ------------------------------------------------------------------
    def decode(
        self,
        channel_llr: np.ndarray,
        reference_bits: Optional[np.ndarray] = None,
    ) -> DecodeResult:
        """Decode one block of channel LLRs (a batch of one).

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
        references = None
        if reference_bits is not None:
            references = np.asarray(reference_bits)[np.newaxis, :]
        return self.decode_batch(llr[np.newaxis, :], reference_bits=references)[0]

    # ------------------------------------------------------------------
    def decode_batch(
        self,
        llr_matrix: np.ndarray,
        reference_bits: Optional[np.ndarray] = None,
    ) -> BatchDecodeResult:
        """Decode ``(num_blocks, n)`` channel LLRs in one vectorised pass.

        Parameters
        ----------
        llr_matrix:
            One row of channel log-likelihood ratios per codeword.
        reference_bits:
            Optional transmitted codewords of the same shape; when provided,
            per-iteration bit-error counts are recorded per block.
        """
        llr = np.asarray(llr_matrix, dtype=np.float64)
        if llr.ndim != 2 or llr.shape[1] != self.n:
            raise ValueError(f"expected (num_blocks, {self.n}) LLRs, got shape {llr.shape}")
        references: Optional[np.ndarray] = None
        if reference_bits is not None:
            references = np.asarray(reference_bits, dtype=np.uint8)
            if references.shape != llr.shape:
                raise ValueError("reference_bits must match the LLR batch shape")

        with _obs_span("ldpc.decode_batch", blocks=int(llr.shape[0])):
            batch = self._decode_batch(llr, references)
        _observe_batch(batch)
        return batch

    def _decode_batch(
        self,
        llr: np.ndarray,
        references: Optional[np.ndarray],
    ) -> BatchDecodeResult:
        edges = self.edges
        num_blocks = llr.shape[0]
        decoded = np.empty((num_blocks, self.n), dtype=np.uint8)
        success = np.zeros(num_blocks, dtype=bool)
        iterations = np.zeros(num_blocks, dtype=np.int64)
        messages = np.zeros(num_blocks, dtype=np.int64)
        per_iteration: Optional[List[List[int]]] = (
            [[] for _ in range(num_blocks)] if references is not None else None
        )
        if num_blocks == 0:
            return BatchDecodeResult(decoded, success, iterations, messages, per_iteration)

        #: Blocks still decoding; rows are dropped as syndromes clear.
        active = np.arange(num_blocks)
        llr_active = llr
        v_to_c = llr[:, edges.edge_var]
        for iteration in range(1, self.max_iterations + 1):
            c_to_v = self._check_node_update(v_to_c)
            extrinsic = np.add.reduceat(c_to_v[:, edges.var_order], edges.var_ptr, axis=1)
            posterior = llr_active + extrinsic
            v_to_c = posterior[:, edges.edge_var] - c_to_v
            messages[active] += self.messages_per_iteration

            hard = (posterior < 0).astype(np.uint8)
            if per_iteration is not None:
                for row, block in enumerate(active):
                    per_iteration[block].append(
                        int(np.sum(hard[row] != references[block]))
                    )
            syndrome = edges.syndrome(hard)
            converged = ~syndrome.any(axis=1)
            if converged.any():
                done = active[converged]
                decoded[done] = hard[converged]
                success[done] = True
                iterations[done] = iteration
            remaining = ~converged
            active = active[remaining]
            if active.size == 0:
                break
            if iteration == self.max_iterations:
                decoded[active] = hard[remaining]
                iterations[active] = iteration
                break
            llr_active = llr_active[remaining]
            v_to_c = v_to_c[remaining]

        return BatchDecodeResult(decoded, success, iterations, messages, per_iteration)

    # ------------------------------------------------------------------
    def _check_node_update(self, v_to_c: np.ndarray) -> np.ndarray:
        """Edge messages c->v for a ``(num_blocks, num_edges)`` v->c array."""
        edges = self.edges
        magnitudes = np.abs(v_to_c)
        # Treat exact zeros as positive to keep the sign product defined.
        signs = np.where(v_to_c < 0, -1.0, 1.0)

        segment_sign = edges.segment_signs(v_to_c)
        extrinsic_sign = segment_sign[:, edges.edge_check] * signs

        degree = edges.uniform_check_degree
        if degree is not None:
            # Fused path for check-regular codes: one partial sort of the
            # (blocks, checks, degree) view yields both the minimum and the
            # second minimum (duplicates included).
            partitioned = np.partition(
                magnitudes.reshape(v_to_c.shape[0], self.m, degree), 1, axis=2
            )
            min1 = partitioned[:, :, 0]
            min2 = partitioned[:, :, 1]
        else:
            min1 = np.minimum.reduceat(magnitudes, edges.check_ptr, axis=1)
            # Mask exactly one occurrence of the minimum per segment, then
            # reduce again for the second minimum.
            candidates = np.where(
                magnitudes == min1[:, edges.edge_check],
                edges._edge_index,
                edges.num_edges,
            )
            first_min = np.minimum.reduceat(candidates, edges.check_ptr, axis=1)
            masked = magnitudes.copy()
            masked[np.arange(masked.shape[0])[:, np.newaxis], first_min] = np.inf
            min2 = np.minimum.reduceat(masked, edges.check_ptr, axis=1)

        min1_edges = min1[:, edges.edge_check]
        use_second = np.isclose(magnitudes, min1_edges)
        extrinsic_mag = np.where(use_second, min2[:, edges.edge_check], min1_edges)
        return self.normalization * extrinsic_sign * extrinsic_mag

