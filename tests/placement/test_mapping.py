"""Tests for the logical-to-physical mapping."""

import pytest

from repro.placement.mapping import Mapping


class TestConstruction:
    def test_identity_mapping(self, mesh4):
        mapping = Mapping.identity(mesh4)
        for coord in mesh4.coordinates():
            task = mesh4.node_id(coord)
            assert mapping.physical_of(task) == coord

    def test_rejects_missing_tasks(self, mesh4):
        assignment = {task: mesh4.coordinate(task) for task in range(15)}
        with pytest.raises(ValueError):
            Mapping(topology=mesh4, physical_of_task=assignment)

    def test_rejects_duplicate_coordinates(self, mesh4):
        assignment = {task: mesh4.coordinate(task) for task in range(16)}
        assignment[1] = assignment[0]
        with pytest.raises(ValueError):
            Mapping(topology=mesh4, physical_of_task=assignment)

    def test_rejects_out_of_mesh(self, mesh4):
        assignment = {task: mesh4.coordinate(task) for task in range(16)}
        assignment[0] = (7, 7)
        with pytest.raises(ValueError):
            Mapping(topology=mesh4, physical_of_task=assignment)

    def test_to_permutation(self, mesh4):
        assert Mapping.identity(mesh4).to_permutation() == list(range(16))
        assignment = {task: mesh4.coordinate(15 - task) for task in range(16)}
        reversed_mapping = Mapping(topology=mesh4, physical_of_task=assignment)
        assert reversed_mapping.to_permutation() == list(reversed(range(16)))
