"""Tests for the transparent I/O address translation."""

import numpy as np
import pytest

from repro.migration.io_interface import IoAddressTranslator
from repro.migration.transforms import RotationTransform, XYShiftTransform
from repro.noc.flit import Packet, PacketClass


def _translator(topology, *transforms):
    """The translator after ``transforms``, applied in order from the
    design-time layout: their node permutations composed by gathers."""
    current = np.arange(topology.num_nodes)
    for transform in transforms:
        current = transform.node_permutation()[current]
    return IoAddressTranslator(topology, current)


@pytest.fixture
def translator4(mesh4):
    return _translator(mesh4)


class TestTracking:
    def test_identity_before_any_migration(self, translator4, mesh4):
        for coord in mesh4.coordinates():
            assert translator4.current_location(coord) == coord
            assert translator4.original_location(coord) == coord

    def test_single_migration(self, mesh4):
        translator = _translator(mesh4, XYShiftTransform(mesh4))
        assert translator.current_location((0, 0)) == (1, 1)
        assert translator.original_location((1, 1)) == (0, 0)

    def test_composition_of_migrations(self, mesh4):
        shift = XYShiftTransform(mesh4)
        rotation = RotationTransform(mesh4)
        translator = _translator(mesh4, shift, rotation)
        for coord in mesh4.coordinates():
            expected = rotation(shift(coord))
            assert translator.current_location(coord) == expected
            assert translator.original_location(expected) == coord

    def test_full_orbit_returns_home(self, mesh4):
        transform = XYShiftTransform(mesh4)
        # X-Y shift's orbit on a 4x4 mesh is four steps long.
        translator = _translator(mesh4, *[transform] * 4)
        for coord in mesh4.coordinates():
            assert translator.current_location(coord) == coord

    def test_outside_coordinate_rejected(self, translator4):
        with pytest.raises(ValueError):
            translator4.current_location((9, 9))
        with pytest.raises(ValueError):
            translator4.original_location((9, 9))


class TestPacketTranslation:
    def test_incoming_packet_redirected(self, mesh4):
        translator = _translator(mesh4, XYShiftTransform(mesh4))
        external = Packet(source=(0, 0), destination=(2, 2), size_flits=3)
        translated = translator.translate_incoming(external)
        assert translated.destination == (3, 3)
        assert translated.packet_class == PacketClass.IO
        assert translated.size_flits == 3

    def test_outgoing_packet_source_restored(self, mesh4):
        translator = _translator(mesh4, XYShiftTransform(mesh4))
        # The workload originally at (2,2) now runs at (3,3) and sends a packet.
        outbound = Packet(source=(3, 3), destination=(0, 0), size_flits=2)
        translated = translator.translate_outgoing(outbound)
        assert translated.source == (2, 2)

    def test_round_trip_transparency(self, mesh4):
        """The outside world addresses PE (1,2); after any number of
        migrations the reply appears to come from (1,2) again."""
        translator = _translator(mesh4, XYShiftTransform(mesh4), RotationTransform(mesh4))
        inbound = Packet(source=(0, 0), destination=(1, 2), size_flits=1)
        redirected = translator.translate_incoming(inbound)
        reply = Packet(source=redirected.destination, destination=(0, 0), size_flits=1)
        restored = translator.translate_outgoing(reply)
        assert restored.source == (1, 2)

    def test_no_migration_is_identity_translation(self, translator4):
        packet = Packet(source=(0, 0), destination=(2, 1), size_flits=2)
        assert translator4.translate_incoming(packet).destination == (2, 1)
        assert translator4.translate_outgoing(packet).source == (0, 0)
