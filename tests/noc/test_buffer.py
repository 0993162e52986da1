"""Tests for the object oracle's flit buffers and credit counters."""

import pytest

from object_engine import BufferOverflowError, CreditCounter, FlitBuffer, make_flits
from repro.noc.flit import Packet


def _flit():
    return make_flits(Packet(source=(0, 0), destination=(1, 1), size_flits=1))[0]


class TestFlitBuffer:
    def test_empty_on_creation(self):
        buf = FlitBuffer(capacity=4)
        assert buf.is_empty
        assert not buf.is_full
        assert buf.occupancy == 0
        assert buf.free_slots == 4

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlitBuffer(capacity=0)

    def test_fifo_order(self):
        buf = FlitBuffer(capacity=4)
        flits = [_flit() for _ in range(3)]
        for flit in flits:
            buf.push(flit)
        assert [buf.pop() for _ in range(3)] == flits

    def test_peek_does_not_remove(self):
        buf = FlitBuffer(capacity=2)
        flit = _flit()
        buf.push(flit)
        assert buf.peek() is flit
        assert buf.occupancy == 1

    def test_peek_empty_returns_none(self):
        assert FlitBuffer(capacity=1).peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FlitBuffer(capacity=1).pop()

    def test_overflow_raises(self):
        buf = FlitBuffer(capacity=1)
        buf.push(_flit())
        assert buf.is_full
        with pytest.raises(BufferOverflowError):
            buf.push(_flit())

    def test_clear(self):
        buf = FlitBuffer(capacity=3)
        buf.push(_flit())
        buf.push(_flit())
        buf.clear()
        assert buf.is_empty

    def test_iteration_and_len(self):
        buf = FlitBuffer(capacity=3)
        flits = [_flit(), _flit()]
        for flit in flits:
            buf.push(flit)
        assert list(buf) == flits
        assert len(buf) == 2


class TestCreditCounter:
    def test_starts_full(self):
        credits = CreditCounter(capacity=4)
        assert credits.credits == 4
        assert credits.has_credit

    def test_consume_and_release(self):
        credits = CreditCounter(capacity=2)
        credits.consume()
        credits.consume()
        assert not credits.has_credit
        credits.release()
        assert credits.credits == 1

    def test_underflow_raises(self):
        credits = CreditCounter(capacity=1)
        credits.consume()
        with pytest.raises(RuntimeError):
            credits.consume()

    def test_overflow_raises(self):
        credits = CreditCounter(capacity=1)
        with pytest.raises(RuntimeError):
            credits.release()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            CreditCounter(capacity=0)
