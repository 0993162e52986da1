"""The LDPC-decoder-on-NoC workload model.

This module converts a Tanner-graph :class:`~repro.ldpc.partition.Partition`
into the two quantities the evaluation flow needs for every decoding
iteration:

* the **NoC flits** exchanged between processing elements (each bundle of
  Tanner messages between a pair of tasks becomes payload flits), and
* the **computation operations** performed inside each PE (node updates,
  proportional to the Tanner degree of the nodes owned by that PE).

The workload also defines the *message block* granularity the paper uses:
migrations are aligned to the completion of the decoding of an LDPC message
block, which minimises the PE state that has to be transferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .partition import Partition


@dataclass
class WorkloadParameters:
    """Knobs describing how Tanner messages become flits and cycles.

    Attributes
    ----------
    message_bits:
        Width of one fixed-point LLR message (hardware decoders use 4-8 bits).
    flit_bits:
        Payload bits per flit (the paper's era used 32- or 64-bit phits).
    max_packet_flits:
        Largest packet the network interface will form before splitting.
    iterations_per_block:
        Decoder iterations run per LDPC message block (migration boundary).
    ops_per_edge:
        Computation operations per Tanner edge per iteration (check + variable
        update work), used to scale PE activity.
    """

    message_bits: int = 6
    flit_bits: int = 64
    max_packet_flits: int = 16
    iterations_per_block: int = 10
    ops_per_edge: float = 4.0

    def __post_init__(self) -> None:
        if self.message_bits < 1 or self.flit_bits < 1:
            raise ValueError("message and flit widths must be positive")
        if self.max_packet_flits < 2:
            raise ValueError("packets need at least head + payload flits")
        if self.iterations_per_block < 1:
            raise ValueError("iterations_per_block must be at least 1")
        if self.ops_per_edge <= 0:
            raise ValueError("ops_per_edge must be positive")

    @property
    def messages_per_flit(self) -> int:
        """Tanner messages packed into one flit."""
        return max(1, self.flit_bits // self.message_bits)


class LdpcNocWorkload:
    """An LDPC decoding workload distributed over the PEs of a mesh NoC."""

    def __init__(
        self,
        partition: Partition,
        parameters: Optional[WorkloadParameters] = None,
        computation_scale: Optional[Sequence[float]] = None,
    ):
        self.partition = partition
        self.parameters = parameters or WorkloadParameters()
        self.num_tasks = partition.num_tasks
        #: messages per iteration between ordered task pairs (logical space)
        self.traffic_matrix = partition.traffic_matrix()
        base_weights = partition.computation_weights()
        if computation_scale is not None:
            scale = np.asarray(computation_scale, dtype=np.float64)
            if scale.shape != (self.num_tasks,):
                raise ValueError("computation_scale needs one entry per task")
            if np.any(scale <= 0):
                raise ValueError("computation_scale entries must be positive")
            base_weights = base_weights * scale
        #: per-task computation weight (Tanner-degree sum, optionally scaled)
        self.computation_weights = base_weights

    # ------------------------------------------------------------------
    # Computation side
    # ------------------------------------------------------------------
    def computation_ops_per_iteration(self) -> np.ndarray:
        """Computation operations each logical task performs per iteration."""
        return self.computation_weights * self.parameters.ops_per_edge

    # ------------------------------------------------------------------
    # Communication side
    # ------------------------------------------------------------------
    def messages_between(self, src_task: int, dst_task: int) -> int:
        """Tanner messages from ``src_task`` to ``dst_task`` per iteration."""
        return int(self.traffic_matrix[src_task, dst_task])

    def flits_between(self, src_task: int, dst_task: int) -> int:
        """Payload flits needed for one iteration's messages between tasks."""
        messages = self.messages_between(src_task, dst_task)
        if messages == 0:
            return 0
        return math.ceil(messages / self.parameters.messages_per_flit)

    def total_flits_per_iteration(self) -> int:
        """Total payload flits crossing the network in one iteration."""
        total = 0
        for src in range(self.num_tasks):
            for dst in range(self.num_tasks):
                if src != dst:
                    total += self.flits_between(src, dst)
        return total
