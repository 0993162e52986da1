"""Systematic LDPC encoding via GF(2) Gaussian elimination.

Hardware LDPC systems usually rely on structured generator matrices, but for
the reproduction we only need *some* valid codewords to push through the
decoder and the NoC workload, so a generic dense GF(2) reduction of H is
sufficient and works for every construction in :mod:`repro.ldpc.matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .matrix import validate_parity_matrix


def _gf2_row_reduce(H: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Row-reduce H over GF(2); returns (reduced matrix, pivot columns)."""
    A = (H.copy() % 2).astype(np.uint8)
    m, n = A.shape
    pivot_cols: List[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        pivot_candidates = np.nonzero(A[row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot = pivot_candidates[0] + row
        if pivot != row:
            A[[row, pivot]] = A[[pivot, row]]
        others = np.nonzero(A[:, col])[0]
        others = others[others != row]
        A[others] ^= A[row]
        pivot_cols.append(col)
        row += 1
    return A, pivot_cols


@dataclass
class LdpcEncoder:
    """Systematic encoder derived from a parity-check matrix.

    The encoder permutes columns so the pivot columns of H become the parity
    positions; information bits occupy the remaining (free) positions, and
    the parity bits are computed so that every check is satisfied.
    """

    H: np.ndarray

    def __post_init__(self) -> None:
        params = validate_parity_matrix(self.H)
        self.n = params.n
        self.m = params.m
        reduced, pivot_cols = _gf2_row_reduce(self.H)
        self._reduced = reduced
        self._pivot_cols = pivot_cols
        self._rank = len(pivot_cols)
        self._free_cols = [c for c in range(self.n) if c not in set(pivot_cols)]

    @property
    def k(self) -> int:
        """Number of information bits per codeword."""
        return self.n - self._rank

    @property
    def rate(self) -> float:
        """True code rate ``k / n``."""
        return self.k / self.n

    def encode(self, information_bits: np.ndarray) -> np.ndarray:
        """Encode ``k`` information bits into an ``n``-bit codeword."""
        info = np.asarray(information_bits, dtype=np.uint8) % 2
        if info.shape != (self.k,):
            raise ValueError(f"expected {self.k} information bits, got {info.shape}")
        codeword = np.zeros(self.n, dtype=np.uint8)
        codeword[self._free_cols] = info
        # Each reduced row has exactly one pivot; solve for that pivot bit.
        for row_idx in range(self._rank - 1, -1, -1):
            pivot_col = self._pivot_cols[row_idx]
            row = self._reduced[row_idx]
            acc = int(np.dot(row, codeword) % 2)
            # Remove the pivot's own contribution and set it to cancel the rest.
            acc ^= int(row[pivot_col]) * int(codeword[pivot_col])
            codeword[pivot_col] = acc
        return codeword

    def random_codeword(self, seed: Optional[int] = None) -> np.ndarray:
        """Encode a random information word (useful for BER tests)."""
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 2, size=self.k, dtype=np.uint8)
        return self.encode(info)
