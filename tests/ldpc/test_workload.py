"""Tests for the LDPC-on-NoC workload adapter."""

import math

import numpy as np
import pytest

from repro.ldpc.partition import striped_partition
from repro.ldpc.workload import LdpcNocWorkload, WorkloadParameters


class TestWorkloadParameters:
    def test_defaults_valid(self):
        params = WorkloadParameters()
        assert params.messages_per_flit >= 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            WorkloadParameters(message_bits=0)
        with pytest.raises(ValueError):
            WorkloadParameters(max_packet_flits=1)
        with pytest.raises(ValueError):
            WorkloadParameters(iterations_per_block=0)
        with pytest.raises(ValueError):
            WorkloadParameters(ops_per_edge=0)

    def test_messages_per_flit(self):
        params = WorkloadParameters(message_bits=8, flit_bits=64)
        assert params.messages_per_flit == 8


class TestTrafficGeneration:
    def test_flits_match_messages(self, small_workload):
        params = small_workload.parameters
        for src in range(small_workload.num_tasks):
            for dst in range(small_workload.num_tasks):
                if src == dst:
                    continue
                messages = small_workload.messages_between(src, dst)
                flits = small_workload.flits_between(src, dst)
                if messages == 0:
                    assert flits == 0
                else:
                    assert flits == math.ceil(messages / params.messages_per_flit)


class TestActivitySummaries:
    def test_computation_ops_positive(self, small_workload):
        ops = small_workload.computation_ops_per_iteration()
        assert ops.shape == (16,)
        assert np.all(ops > 0)

    def test_computation_scale_applied(self, small_code):
        _H, graph = small_code
        partition = striped_partition(graph, 16)
        scale = np.ones(16)
        scale[3] = 4.0
        scaled = LdpcNocWorkload(partition, computation_scale=scale)
        plain = LdpcNocWorkload(partition)
        assert scaled.computation_weights[3] == pytest.approx(
            4.0 * plain.computation_weights[3]
        )

    def test_computation_scale_validation(self, small_code):
        _H, graph = small_code
        partition = striped_partition(graph, 16)
        with pytest.raises(ValueError):
            LdpcNocWorkload(partition, computation_scale=np.ones(5))
        with pytest.raises(ValueError):
            LdpcNocWorkload(partition, computation_scale=np.zeros(16))
