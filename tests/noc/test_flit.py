"""Tests for packets and the object oracle's flit segmentation."""

import pytest

from object_engine import FlitType, make_flits
from repro.noc.flit import Packet, PacketClass, reset_packet_ids


class TestPacket:
    def test_basic_fields(self):
        packet = Packet(source=(0, 0), destination=(3, 2), size_flits=4)
        assert packet.source == (0, 0)
        assert packet.destination == (3, 2)
        assert packet.packet_class == PacketClass.DATA

    def test_rejects_empty_packet(self):
        with pytest.raises(ValueError):
            Packet(source=(0, 0), destination=(1, 1), size_flits=0)

    def test_hop_distance(self):
        packet = Packet(source=(1, 1), destination=(3, 0), size_flits=2)
        assert packet.hop_distance == 3

    def test_latency_none_until_ejected(self):
        packet = Packet(source=(0, 0), destination=(1, 1), size_flits=2, injection_cycle=10)
        assert packet.latency is None
        packet.ejection_cycle = 25
        assert packet.latency == 15

    def test_unique_ids(self):
        a = Packet(source=(0, 0), destination=(1, 1), size_flits=1)
        b = Packet(source=(0, 0), destination=(1, 1), size_flits=1)
        assert a.packet_id != b.packet_id

    def test_reset_packet_ids(self):
        reset_packet_ids()
        a = Packet(source=(0, 0), destination=(1, 1), size_flits=1)
        assert a.packet_id == 0


class TestFlitSegmentation:
    def test_single_flit_packet(self):
        packet = Packet(source=(0, 0), destination=(1, 1), size_flits=1)
        flits = make_flits(packet)
        assert len(flits) == 1
        assert flits[0].flit_type == FlitType.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_two_flit_packet(self):
        packet = Packet(source=(0, 0), destination=(1, 1), size_flits=2)
        flits = make_flits(packet)
        assert [f.flit_type for f in flits] == [FlitType.HEAD, FlitType.TAIL]

    def test_multi_flit_packet_structure(self):
        packet = Packet(source=(0, 0), destination=(1, 1), size_flits=5)
        flits = make_flits(packet)
        assert len(flits) == 5
        assert flits[0].flit_type == FlitType.HEAD
        assert flits[-1].flit_type == FlitType.TAIL
        assert all(f.flit_type == FlitType.BODY for f in flits[1:-1])
        assert [f.index for f in flits] == list(range(5))

    def test_flits_reference_packet(self):
        packet = Packet(source=(2, 2), destination=(0, 1), size_flits=3)
        for flit in make_flits(packet):
            assert flit.packet is packet
            assert flit.source == (2, 2)
            assert flit.destination == (0, 1)

    def test_head_tail_flags(self):
        assert FlitType.HEAD.is_head and not FlitType.HEAD.is_tail
        assert FlitType.TAIL.is_tail and not FlitType.TAIL.is_head
        assert not FlitType.BODY.is_head and not FlitType.BODY.is_tail
