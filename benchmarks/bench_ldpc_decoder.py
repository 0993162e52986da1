"""Experiment E7 — LDPC decoder substrate characterisation.

The workload the paper instruments is an LDPC decoder on the NoC
(Theocharides et al., reference [3]).  This benchmark checks the functional
decoder (bit-error rate improves with SNR and with iterations) and measures
the decoding traffic an iteration puts on the mesh under the paper's two chip
sizes.
"""

import numpy as np
import pytest

import perf_utils
from conftest import print_rows

from repro.ldpc import (
    BpskAwgnChannel,
    LdpcEncoder,
    MinSumDecoder,
    TannerGraph,
    array_code_parity_matrix,
    count_bit_errors,
    striped_partition,
)
from repro.ldpc.workload import LdpcNocWorkload, WorkloadParameters
from repro.noc import MeshTopology, NocSimulator
from repro.placement import Mapping


def test_decoder_ber_vs_snr(benchmark):
    """Bit-error rate of the min-sum decoder across an SNR sweep."""
    H = array_code_parity_matrix(p=13, j=3, k=6)
    graph = TannerGraph(H)
    encoder = LdpcEncoder(H)
    decoder = MinSumDecoder(graph, max_iterations=25)
    snrs = (1.0, 2.5, 4.0)
    blocks = 8

    def sweep():
        table = {}
        for snr_db in snrs:
            channel = BpskAwgnChannel(snr_db=snr_db, rate=encoder.rate, seed=23)
            errors = 0
            iterations = 0
            for trial in range(blocks):
                codeword = encoder.random_codeword(seed=trial)
                result = decoder.decode(channel.transmit_llr(codeword))
                errors += count_bit_errors(codeword, result.decoded_bits)
                iterations += result.iterations
            table[snr_db] = (errors / (blocks * graph.n), iterations / blocks)
        return table

    with perf_utils.timed() as timer:
        table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    perf_utils.record_perf(
        "ldpc.ber_sweep.min_sum",
        timer.seconds,
        throughput=blocks * len(snrs) / timer.seconds,
        throughput_unit="codewords/s",
    )
    rows = [
        {
            "snr_db": snr_db,
            "ber": round(ber, 5),
            "avg_iterations": round(avg_iter, 2),
        }
        for snr_db, (ber, avg_iter) in table.items()
    ]
    print_rows("Min-sum decoder BER vs SNR (n=78 array code)", rows)
    bers = [table[snr][0] for snr in snrs]
    assert bers[-1] <= bers[0]  # higher SNR, no more errors
    iters = [table[snr][1] for snr in snrs]
    assert iters[-1] <= iters[0]  # and faster convergence


@pytest.mark.parametrize("size,code_p", [(4, 13), (5, 17)])
def test_decoding_iteration_traffic_on_mesh(benchmark, size, code_p):
    """One decoding iteration's NoC traffic and delivery time per chip size."""
    topology = MeshTopology(size, size)
    graph = TannerGraph(array_code_parity_matrix(p=code_p, j=3, k=6))
    partition = striped_partition(graph, topology.num_nodes)
    workload = LdpcNocWorkload(partition, WorkloadParameters(max_packet_flits=8))
    mapping = Mapping.identity(topology)

    def run_iteration():
        packets = workload.iteration_packets(mapping)
        simulator = NocSimulator(topology, buffer_depth=8)
        return packets, simulator.run_packets(packets, drain_limit=500_000)

    packets, result = benchmark.pedantic(run_iteration, rounds=1, iterations=1)
    rows = [
        {
            "mesh": f"{size}x{size}",
            "tanner_nodes": graph.num_nodes,
            "cut_edges": partition.cut_edges(),
            "packets_per_iteration": len(packets),
            "flits_per_iteration": workload.total_flits_per_iteration(),
            "iteration_cycles": result.cycles,
            "avg_packet_latency": round(result.average_latency, 1),
        }
    ]
    print_rows("LDPC decoding iteration on the mesh NoC", rows)
    assert result.stats.packets_ejected == len(packets)
    assert result.cycles < 5000  # an iteration fits easily inside a block period
