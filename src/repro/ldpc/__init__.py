"""LDPC decoder workload: codes, decoders, and the NoC mapping.

The paper evaluates runtime reconfiguration on a Low Density Parity Check
(LDPC) decoder implemented on a mesh NoC.  This package provides the code
constructions, functional min-sum/sum-product decoders (edge-list messages,
whole batches of codewords at once), the Tanner-graph partitioning onto
processing elements, and the workload adapter that turns decoding iterations
into NoC traffic and per-PE computation activity.
"""

from .channel import BinarySymmetricChannel, BpskAwgnChannel, count_bit_errors
from .decoder import (
    BatchDecodeResult,
    DecodeResult,
    MinSumDecoder,
    SumProductDecoder,
    make_decoder,
)
from .encoder import LdpcEncoder
from .matrix import (
    CodeParameters,
    array_code_parity_matrix,
    gallager_parity_matrix,
    gf2_rank,
    matrix_degrees,
    validate_parity_matrix,
)
from .partition import (
    Partition,
    clustered_partition,
    interleaved_partition,
    make_partition,
    striped_partition,
    weighted_partition,
)
from .sparse import EdgeStructure
from .tanner import TannerGraph, TannerNode
from .workload import LdpcNocWorkload, WorkloadParameters

__all__ = [
    "BinarySymmetricChannel",
    "BpskAwgnChannel",
    "count_bit_errors",
    "BatchDecodeResult",
    "DecodeResult",
    "EdgeStructure",
    "MinSumDecoder",
    "SumProductDecoder",
    "make_decoder",
    "LdpcEncoder",
    "CodeParameters",
    "array_code_parity_matrix",
    "gallager_parity_matrix",
    "gf2_rank",
    "matrix_degrees",
    "validate_parity_matrix",
    "Partition",
    "clustered_partition",
    "interleaved_partition",
    "make_partition",
    "striped_partition",
    "weighted_partition",
    "TannerGraph",
    "TannerNode",
    "LdpcNocWorkload",
    "WorkloadParameters",
]
