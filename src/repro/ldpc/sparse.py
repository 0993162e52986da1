"""Edge-list (CSR-style) layout of a Tanner graph for message passing.

A parity-check matrix has only ``E = H.sum()`` nonzeros (for the paper's
(3, 6) array codes ``E = 3n`` while ``m * n = n**2 / 2``), so the decoders in
:mod:`repro.ldpc.decoder` keep one message per Tanner edge rather than an
``m x n`` matrix.  :class:`EdgeStructure` holds the index arrays that makes
possible: edges in check-major order with segment pointers for the
check-node reductions (``np.minimum.reduceat`` and friends), the permutation
to variable-major order for the variable-node sums, and the two parity
reductions — syndrome and check-node sign product — as integer segment sums.
"""

from __future__ import annotations

import numpy as np

from .tanner import TannerGraph


class EdgeStructure:
    """CSR-style edge layout of a Tanner graph.

    Edges are stored in check-major order (sorted by check index, then
    variable index — the order ``np.nonzero`` yields), which is the layout
    the check-node update reduces over.  ``var_order`` permutes edges into
    variable-major order for the variable-node accumulation.

    The segment reductions need every check to own at least one edge;
    :class:`~repro.ldpc.tanner.TannerGraph` rejects empty checks.
    """

    def __init__(self, graph: TannerGraph):
        H = graph.H != 0
        checks, variables = np.nonzero(H)
        self.num_edges = int(checks.size)
        #: Check index of each edge (check-major order).
        self.edge_check = checks.astype(np.int64)
        #: Variable index of each edge (check-major order).
        self.edge_var = variables.astype(np.int64)
        #: Start offset of each check's edge segment.
        self.check_ptr = np.concatenate(
            ([0], np.cumsum(H.sum(axis=1))[:-1])
        ).astype(np.int64)
        #: Permutation from check-major to variable-major edge order.
        self.var_order = np.lexsort((checks, variables))
        #: Start offset of each variable's segment in variable-major order.
        self.var_ptr = np.concatenate(
            ([0], np.cumsum(H.sum(axis=0))[:-1])
        ).astype(np.int64)
        self._edge_index = np.arange(self.num_edges, dtype=np.int64)
        degrees = np.diff(np.append(self.check_ptr, self.num_edges))
        #: Common check degree when the code is check-regular, else ``None``.
        #: Regular codes (the paper's (3, 6) arrays) take the fused reshape
        #: kernels; irregular layouts fall back to segment ``reduceat``.
        self.uniform_check_degree = (
            int(degrees[0]) if degrees.size and (degrees == degrees[0]).all() else None
        )

    def _segment_parity(self, bits: np.ndarray) -> np.ndarray:
        """Per-check parity of a ``(num_blocks, num_edges)`` 0/1 array."""
        return np.add.reduceat(bits, self.check_ptr, axis=1, dtype=np.int64) & 1

    def segment_signs(self, v_to_c: np.ndarray) -> np.ndarray:
        """Per-check sign products of a ``(num_blocks, num_edges)`` array.

        The product of ``+-1`` signs is the parity of the negative count, an
        integer segment sum — exact, since no rounding is involved.  Zeros
        count as positive, matching the min-sum sign rule.
        """
        return 1.0 - 2.0 * self._segment_parity(v_to_c < 0)

    def syndrome(self, hard: np.ndarray) -> np.ndarray:
        """Per-check parity sums (mod 2) of ``(num_blocks, n)`` hard decisions."""
        return self._segment_parity(hard[:, self.edge_var])
