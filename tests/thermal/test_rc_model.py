"""Tests for the RC thermal network construction."""

import numpy as np
import pytest

from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.package import DEFAULT_PACKAGE, ThermalPackage
from repro.thermal.rc_model import build_thermal_network


@pytest.fixture
def network4(mesh4):
    return build_thermal_network(mesh_floorplan(mesh4))


class TestStructure:
    def test_node_count(self, network4):
        # die + spreader per block, plus periphery and sink.
        assert network4.num_nodes == 2 * 16 + 2

    def test_block_nodes_are_die_layer(self, network4):
        for name, idx in network4.block_node_index.items():
            assert idx < 16
            assert network4.node_names[idx] == f"die:{name}"

    def test_conductance_symmetric_nonnegative(self, network4):
        G = network4.conductance
        assert np.allclose(G, G.T)
        assert np.all(G >= 0)
        assert np.all(np.diag(G) == 0)

    def test_capacitances_positive(self, network4):
        assert np.all(network4.capacitance > 0)

    def test_only_sink_couples_to_ambient(self, network4):
        ambient = network4.ambient_conductance
        nonzero = np.nonzero(ambient)[0]
        assert list(nonzero) == [network4.num_nodes - 1]

    def test_ambient_temperature(self, network4):
        assert network4.ambient_kelvin == pytest.approx(40.0 + 273.15)

    def test_die_nodes_coupled_to_neighbors(self, network4, mesh4):
        G = network4.conductance
        idx = network4.block_node_index
        # (1,1) and (2,1) are adjacent: their die nodes must be coupled.
        assert G[idx["PE_1_1"], idx["PE_2_1"]] > 0
        # (0,0) and (3,3) are not adjacent.
        assert G[idx["PE_0_0"], idx["PE_3_3"]] == 0

    def test_die_couples_to_own_spreader(self, network4):
        G = network4.conductance
        n = len(network4.block_node_index)
        for name, die_idx in network4.block_node_index.items():
            assert G[die_idx, n + die_idx] > 0

    def test_system_matrix_is_diagonally_dominant(self, network4):
        A = network4.system_matrix()
        diag = np.diag(A)
        off = np.abs(A - np.diag(diag)).sum(axis=1)
        assert np.all(diag >= off - 1e-12)

    def test_system_matrix_invertible(self, network4):
        A = network4.system_matrix()
        assert np.linalg.cond(A) < 1e12


class TestPackageValidation:
    def test_default_ambient_is_40C(self):
        assert DEFAULT_PACKAGE.ambient_celsius == 40.0
        assert DEFAULT_PACKAGE.ambient_kelvin == pytest.approx(313.15)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            ThermalPackage(die_thickness_m=0)
        with pytest.raises(ValueError):
            ThermalPackage(convection_resistance_k_per_w=-1)

    def test_custom_package_propagates(self, mesh4):
        package = ThermalPackage(ambient_celsius=25.0)
        network = build_thermal_network(mesh_floorplan(mesh4), package)
        assert network.ambient_kelvin == pytest.approx(25.0 + 273.15)
