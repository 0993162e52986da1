"""Property-based tests for the LDPC code machinery (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ldpc.encoder import LdpcEncoder
from repro.ldpc.matrix import array_code_parity_matrix
from repro.ldpc.partition import striped_partition
from repro.ldpc.tanner import TannerGraph

primes = st.sampled_from([5, 7, 11, 13])


class TestCodeProperties:
    @given(p=primes, j=st.integers(2, 3), k=st.integers(3, 5))
    @settings(max_examples=20, deadline=None)
    def test_array_code_weights(self, p, j, k):
        if j > p or k > p:
            return
        H = array_code_parity_matrix(p=p, j=j, k=k)
        assert H.shape == (j * p, k * p)
        assert np.all(H.sum(axis=0) == j)
        assert np.all(H.sum(axis=1) == k)

    @given(p=primes, seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_every_encoded_word_is_a_codeword(self, p, seed):
        H = array_code_parity_matrix(p=p, j=3, k=5)
        encoder = LdpcEncoder(H)
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 2, size=encoder.k, dtype=np.uint8)
        codeword = encoder.encode(info)
        assert not np.any((H @ codeword) % 2)

    @given(p=primes, seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_codewords_closed_under_addition(self, p, seed):
        H = array_code_parity_matrix(p=p, j=2, k=4)
        encoder = LdpcEncoder(H)
        rng = np.random.default_rng(seed)
        a = encoder.encode(rng.integers(0, 2, size=encoder.k, dtype=np.uint8))
        b = encoder.encode(rng.integers(0, 2, size=encoder.k, dtype=np.uint8))
        assert not np.any((H @ (a ^ b)) % 2)


class TestPartitionProperties:
    @given(p=primes, num_tasks=st.sampled_from([4, 9, 16, 25]))
    @settings(max_examples=20, deadline=None)
    def test_striped_partition_invariants(self, p, num_tasks):
        graph = TannerGraph(array_code_parity_matrix(p=p, j=3, k=5))
        partition = striped_partition(graph, num_tasks)
        # Conservation: every node assigned exactly once.
        assert sum(partition.task_sizes()) == graph.num_nodes
        # Traffic matrix symmetry and zero diagonal.
        matrix = partition.traffic_matrix()
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)
        # The cut is every Tanner edge between two tasks.
        task = partition.task_of_node
        assert partition.cut_edges() == sum(
            task[v_node] != task[c_node] for v_node, c_node in graph.edges()
        )
