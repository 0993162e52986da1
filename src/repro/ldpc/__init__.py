"""LDPC decoder workload: codes, the decoder, and the NoC mapping.

The paper evaluates runtime reconfiguration on a Low Density Parity Check
(LDPC) decoder implemented on a mesh NoC.  This package provides the array
code construction, the functional min-sum decoder (edge-list messages, whole
batches of codewords at once), the Tanner-graph partitioning onto processing
elements, and the workload adapter that turns decoding iterations into NoC
flits and per-PE computation activity.
"""

from .channel import BpskAwgnChannel, count_bit_errors
from .decoder import BatchDecodeResult, DecodeResult, MinSumDecoder
from .encoder import LdpcEncoder
from .matrix import CodeParameters, array_code_parity_matrix, validate_parity_matrix
from .partition import (
    Partition,
    clustered_partition,
    interleaved_partition,
    make_partition,
    striped_partition,
)
from .sparse import EdgeStructure
from .tanner import TannerGraph, TannerNode
from .workload import LdpcNocWorkload, WorkloadParameters

__all__ = [
    "BpskAwgnChannel",
    "count_bit_errors",
    "BatchDecodeResult",
    "DecodeResult",
    "EdgeStructure",
    "MinSumDecoder",
    "LdpcEncoder",
    "CodeParameters",
    "array_code_parity_matrix",
    "validate_parity_matrix",
    "Partition",
    "clustered_partition",
    "interleaved_partition",
    "make_partition",
    "striped_partition",
    "TannerGraph",
    "TannerNode",
    "LdpcNocWorkload",
    "WorkloadParameters",
]
