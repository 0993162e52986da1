"""Construction of LDPC parity-check matrices.

The paper's workload is an LDPC decoder implemented on the NoC (Theocharides
et al., ISVLSI 2005).  We provide the two standard constructions used for
hardware decoders of that era:

* *regular Gallager codes* — every variable node has degree ``wc`` and every
  check node degree ``wr``; built by stacking column-permuted copies of a
  band matrix, and
* *array (quasi-cyclic) codes* — built from circulant permutation matrices,
  the structure actually favoured by NoC/ASIC decoders because the regular
  structure maps cleanly onto a mesh of processing elements.

All matrices are dense ``numpy`` arrays over GF(2) with ``dtype=np.uint8``;
the sizes used in the evaluation (a few hundred to a couple thousand bits)
make sparse storage unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CodeParameters:
    """Summary of an LDPC code's dimensions.

    Attributes
    ----------
    n:
        Block length (number of variable nodes / codeword bits).
    m:
        Number of parity checks (rows of H).
    """

    n: int
    m: int


def validate_parity_matrix(H: np.ndarray) -> CodeParameters:
    """Check that ``H`` is a binary matrix usable as a parity-check matrix."""
    if H.ndim != 2:
        raise ValueError("parity-check matrix must be two-dimensional")
    if H.size == 0:
        raise ValueError("parity-check matrix must be non-empty")
    values = np.unique(H)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError("parity-check matrix entries must be 0 or 1")
    if np.any(H.sum(axis=1) == 0):
        raise ValueError("parity-check matrix has an empty check (all-zero row)")
    if np.any(H.sum(axis=0) == 0):
        raise ValueError("parity-check matrix has an unprotected bit (all-zero column)")
    m, n = H.shape
    return CodeParameters(n=n, m=m)


def array_code_parity_matrix(p: int, j: int, k: int) -> np.ndarray:
    """Construct a quasi-cyclic array-code parity-check matrix.

    The matrix is a ``j`` x ``k`` grid of ``p`` x ``p`` circulant permutation
    matrices: block (a, b) is the identity cyclically shifted by ``a * b mod
    p``.  ``p`` must be prime for the classical construction's girth
    guarantees, but any ``p > max(j, k)`` yields a valid parity matrix, which
    is all the workload model needs.

    Returns
    -------
    ``(j * p, k * p)`` binary matrix with column weight ``j`` and row weight
    ``k``.
    """
    if p <= 0 or j <= 0 or k <= 0:
        raise ValueError("p, j, k must be positive")
    if j > p or k > p:
        raise ValueError("array code requires j <= p and k <= p")
    identity = np.eye(p, dtype=np.uint8)
    blocks = []
    for a in range(j):
        row_blocks = []
        for b in range(k):
            shift = (a * b) % p
            row_blocks.append(np.roll(identity, shift, axis=1))
        blocks.append(np.hstack(row_blocks))
    H = np.vstack(blocks).astype(np.uint8)
    validate_parity_matrix(H)
    return H
