"""Tanner-graph view of an LDPC code.

The Tanner graph is the bipartite graph with one *variable node* per codeword
bit and one *check node* per parity check, with an edge wherever the
parity-check matrix has a 1.  The NoC mapping of the decoder
(:mod:`repro.ldpc.partition`) distributes these nodes over processing
elements, and every Tanner edge that crosses a partition boundary becomes NoC
traffic during decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from .matrix import validate_parity_matrix


@dataclass(frozen=True)
class TannerNode:
    """A node in the Tanner graph.

    ``kind`` is ``"v"`` for variable (bit) nodes and ``"c"`` for check
    (parity) nodes; ``index`` is the column or row index in H respectively.
    """

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("v", "c"):
            raise ValueError("Tanner node kind must be 'v' or 'c'")
        if self.index < 0:
            raise ValueError("Tanner node index must be non-negative")

    @property
    def is_variable(self) -> bool:
        return self.kind == "v"


class TannerGraph:
    """Bipartite variable/check graph of a parity-check matrix."""

    def __init__(self, H: np.ndarray):
        params = validate_parity_matrix(H)
        self.H = H.astype(np.uint8)
        self.n = params.n
        self.m = params.m

        self.variable_nodes: List[TannerNode] = [TannerNode("v", j) for j in range(self.n)]
        self.check_nodes: List[TannerNode] = [TannerNode("c", i) for i in range(self.m)]

        # Adjacency as index lists, the form the decoder iterates over.
        self.checks_of_variable: List[List[int]] = [
            list(np.nonzero(self.H[:, j])[0]) for j in range(self.n)
        ]
        self.variables_of_check: List[List[int]] = [
            list(np.nonzero(self.H[i, :])[0]) for i in range(self.m)
        ]

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.n + self.m

    @property
    def num_edges(self) -> int:
        return int(self.H.sum())

    def all_nodes(self) -> List[TannerNode]:
        """All nodes, variables first then checks."""
        return self.variable_nodes + self.check_nodes

    def edges(self) -> Iterable[Tuple[TannerNode, TannerNode]]:
        """All (variable, check) edges."""
        for i in range(self.m):
            for j in self.variables_of_check[i]:
                yield (self.variable_nodes[j], self.check_nodes[i])

    def degree(self, node: TannerNode) -> int:
        if node.is_variable:
            return len(self.checks_of_variable[node.index])
        return len(self.variables_of_check[node.index])

    def neighbors(self, node: TannerNode) -> List[TannerNode]:
        if node.is_variable:
            return [self.check_nodes[i] for i in self.checks_of_variable[node.index]]
        return [self.variable_nodes[j] for j in self.variables_of_check[node.index]]
