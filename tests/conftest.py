"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.ldpc import LdpcEncoder, TannerGraph, array_code_parity_matrix, striped_partition
from repro.ldpc.workload import LdpcNocWorkload, WorkloadParameters
from repro.noc import MeshTopology, NocSimulator
from repro.placement import Mapping
from repro.thermal import HotSpotModel


@pytest.fixture
def mesh4() -> MeshTopology:
    """A 4x4 mesh (the paper's smaller chip)."""
    return MeshTopology(4, 4)


@pytest.fixture
def mesh5() -> MeshTopology:
    """A 5x5 mesh (the paper's larger chip)."""
    return MeshTopology(5, 5)


@pytest.fixture
def mesh3x2() -> MeshTopology:
    """A small non-square mesh for edge cases."""
    return MeshTopology(3, 2)


@pytest.fixture
def simulator4(mesh4) -> NocSimulator:
    return NocSimulator(mesh4)


@pytest.fixture(scope="session")
def small_code():
    """A small LDPC code (p=7 array code) and its Tanner graph."""
    H = array_code_parity_matrix(p=7, j=3, k=6)
    return H, TannerGraph(H)


@pytest.fixture(scope="session")
def small_encoder(small_code):
    H, _graph = small_code
    return LdpcEncoder(H)


@pytest.fixture(scope="session")
def small_workload(small_code) -> LdpcNocWorkload:
    """The small code striped over 16 PEs."""
    _H, graph = small_code
    partition = striped_partition(graph, 16)
    return LdpcNocWorkload(partition, WorkloadParameters())


@pytest.fixture
def identity_mapping4(mesh4) -> Mapping:
    return Mapping.identity(mesh4)


@pytest.fixture
def thermal4(mesh4) -> HotSpotModel:
    return HotSpotModel(mesh4)


@pytest.fixture(scope="session")
def chip_a():
    """Configuration A (cached at module scope in repro.chips already)."""
    return get_configuration("A")


@pytest.fixture(scope="session")
def chip_e():
    return get_configuration("E")


@pytest.fixture
def uniform_power4(mesh4):
    """A flat 2 W per-unit power map on the 4x4 mesh."""
    return {coord: 2.0 for coord in mesh4.coordinates()}
