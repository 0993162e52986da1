"""Property-based tests for the migration transforms (hypothesis).

The orbit and order properties are read off each transform's node
permutation, the form the runtime applies to a task -> node mapping.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.migration.transforms import available_transforms, make_transform
from repro.noc.topology import MeshTopology
from reference import hops


def powers(perm):
    """``perm`` composed with itself 1, 2, ... times, up to the identity."""
    current = perm
    yield current
    while not np.array_equal(current, np.arange(perm.size)):
        current = perm[current]
        yield current


mesh_sizes = st.tuples(st.integers(2, 7), st.integers(2, 7))
square_sizes = st.integers(2, 7)
scheme_names = st.sampled_from([n for n in available_transforms() if n != "identity"])
square_only = {"rotation"}


def _make(scheme, width, height):
    topology = MeshTopology(width, height)
    if scheme in square_only and width != height:
        return None, topology
    return make_transform(scheme, topology), topology


class TestBijectionProperties:
    @given(scheme=scheme_names, size=square_sizes)
    @settings(max_examples=60, deadline=None)
    def test_transform_is_bijection_on_square_meshes(self, scheme, size):
        transform, topology = _make(scheme, size, size)
        images = {transform(coord) for coord in topology.coordinates()}
        assert len(images) == topology.num_nodes
        assert all(topology.contains(image) for image in images)

    @given(scheme=scheme_names, dims=mesh_sizes)
    @settings(max_examples=60, deadline=None)
    def test_transform_is_bijection_on_rectangular_meshes(self, scheme, dims):
        width, height = dims
        transform, topology = _make(scheme, width, height)
        if transform is None:
            return
        images = {transform(coord) for coord in topology.coordinates()}
        assert len(images) == topology.num_nodes

    @given(scheme=scheme_names, size=square_sizes)
    @settings(max_examples=40, deadline=None)
    def test_orbit_length_divides_order(self, scheme, size):
        transform, topology = _make(scheme, size, size)
        steps = list(powers(transform.node_permutation()))
        order = len(steps)
        for node in range(topology.num_nodes):
            orbit = next(k for k, step in enumerate(steps, 1) if step[node] == node)
            assert order % orbit == 0

    @given(scheme=scheme_names, size=square_sizes)
    @settings(max_examples=40, deadline=None)
    def test_applying_order_times_returns_identity(self, scheme, size):
        transform, topology = _make(scheme, size, size)
        order = len(list(powers(transform.node_permutation())))
        for coord in topology.coordinates():
            current = coord
            for _ in range(order):
                current = transform(current)
            assert current == coord


class TestMirrorAndRotationIsometry:
    @given(size=square_sizes, scheme=st.sampled_from(["rotation", "x-mirror", "y-mirror", "xy-mirror"]))
    @settings(max_examples=40, deadline=None)
    def test_isometries_preserve_pairwise_distances(self, size, scheme):
        transform, topology = _make(scheme, size, size)
        coords = list(topology.coordinates())
        for a in coords[:: max(1, len(coords) // 6)]:
            for b in coords[:: max(1, len(coords) // 6)]:
                assert hops(a, b) == hops(
                    transform(a), transform(b)
                )


class TestMappingProperties:
    @given(scheme=scheme_names, size=square_sizes, repeats=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_repeated_transforms_keep_mapping_bijective(self, scheme, size, repeats):
        topology = MeshTopology(size, size)
        perm = make_transform(scheme, topology).node_permutation()
        nodes = np.arange(topology.num_nodes)
        for _ in range(repeats):
            nodes = perm[nodes]
        assert sorted(nodes.tolist()) == list(range(topology.num_nodes))

    @given(scheme=scheme_names, size=square_sizes)
    @settings(max_examples=30, deadline=None)
    def test_power_is_conserved_under_migration(self, scheme, size):
        """Migration moves power around; it never creates or destroys it."""
        topology = MeshTopology(size, size)
        perm = make_transform(scheme, topology).node_permutation()
        per_task = np.array([float(task % 5) + 0.5 for task in range(topology.num_nodes)])
        migrated = np.zeros(topology.num_nodes)
        migrated[perm] = per_task
        assert abs(per_task.sum() - migrated.sum()) < 1e-9
        assert sorted(migrated) == sorted(per_task)
