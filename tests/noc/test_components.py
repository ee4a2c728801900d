"""Tests for packets and buffers."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.noc import (
    CreditedBuffer,
    FLIT_BITS,
    Packet,
    PacketKind,
)


def packet(**overrides) -> Packet:
    fields = dict(src=0, dst=1, mac_id=2, op_id=3,
                  kind=PacketKind.STATE)
    fields.update(overrides)
    return Packet(**fields)


class TestPacket:
    def test_flit_width_is_paper_datapath(self):
        assert FLIT_BITS == 36

    def test_single_flit(self):
        assert packet().flits == 1

    def test_op_id_field_wraps_at_256(self):
        """§V-B: OP-ID is 8 bits; larger ops wrap on the wire."""
        assert packet(op_id=300).op_id_field == 44
        assert packet(op_id=255).op_id_field == 255

    def test_negative_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            packet(src=-1)
        with pytest.raises(ConfigurationError):
            packet(op_id=-1)


class TestCreditedBuffer:
    def test_fifo_order(self):
        buffer = CreditedBuffer(depth=4)
        first, second = packet(op_id=1), packet(op_id=2)
        buffer.push(first)
        buffer.push(second)
        assert buffer.pop() is first
        assert buffer.pop() is second

    def test_default_depth_is_sixteen(self):
        assert CreditedBuffer().depth == 16

    def test_full_buffer_rejects(self):
        buffer = CreditedBuffer(depth=2)
        buffer.push(packet())
        buffer.push(packet())
        assert not buffer.has_space
        with pytest.raises(SimulationError):
            buffer.push(packet())

    def test_peek_does_not_consume(self):
        buffer = CreditedBuffer()
        buffer.push(packet(op_id=9))
        assert buffer.peek().op_id == 9
        assert len(buffer) == 1

    def test_empty_operations_fail(self):
        buffer = CreditedBuffer()
        with pytest.raises(SimulationError):
            buffer.pop()
        with pytest.raises(SimulationError):
            buffer.peek()

