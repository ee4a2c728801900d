"""Tests for the MAC unit and the processing element's state machine."""

import numpy as np
import pytest

from repro.core import NeurocubeConfig
from repro.core.mac import MACUnit
from repro.core.pe import GroupPlan, GroupSlot, ProcessingElement
from repro.errors import ConfigurationError, ProtocolError
from repro.fixedpoint import Q_1_7_8, QFormat, from_float, to_float
from repro.noc import Interconnect, Mesh2D, Packet, PacketKind, Port


class TestMACUnit:
    def test_accumulates_products(self):
        mac = MACUnit()
        mac.accumulate_raw(from_float(2.0), from_float(3.0))
        mac.accumulate_raw(from_float(0.5), from_float(1.0))
        assert mac.accumulator == pytest.approx(6.5)
        assert mac.result_raw == from_float(6.5)

    def test_bias_preload(self):
        mac = MACUnit()
        mac.reset(bias=1.25)
        mac.accumulate_raw(from_float(1.0), from_float(1.0))
        assert mac.accumulator == pytest.approx(2.25)

    def test_wide_accumulator_no_intermediate_saturation(self):
        """The internal accumulator is wider than Q1.7.8: a sum can
        exceed the storage range mid-stream and come back."""
        mac = MACUnit()
        mac.accumulate_raw(from_float(100.0), from_float(2.0))  # 200
        mac.accumulate_raw(from_float(100.0), from_float(-1.5))  # 50
        assert mac.result_raw == from_float(50.0)

    def test_result_saturates(self):
        mac = MACUnit()
        mac.accumulate_raw(from_float(100.0), from_float(2.0))
        assert mac.result_raw == Q_1_7_8.max_raw

    def test_max_mode(self):
        mac = MACUnit()
        mac.reset(bias=Q_1_7_8.min_value)
        mac.max_raw(from_float(-3.0))
        mac.max_raw(from_float(-1.0))
        assert mac.result_raw == from_float(-1.0)

    def test_operation_count(self):
        mac = MACUnit()
        mac.accumulate_raw(0, 0)
        mac.max_raw(0)
        assert mac.operations == 2

    def test_accumulator_is_a_python_float(self):
        """Documented as ``float``; a numpy scalar would also leak into
        every checkpoint through ``state_dict``."""
        mac = MACUnit()
        mac.accumulate_raw(3, -7)
        mac.accumulate_raw(from_float(1.5), from_float(2.0))
        assert type(mac.accumulator) is float
        assert type(mac.state_dict()["acc"]) is float
        mac.max_raw(from_float(9.0))
        assert type(mac.accumulator) is float

    @pytest.mark.parametrize("fmt", [Q_1_7_8, QFormat(3, 12)], ids=str)
    def test_bit_identical_to_numpy_products(self, fmt):
        """Python-float MAC steps equal the numpy ``to_float`` products
        bit for bit, over the whole raw operand range."""
        rng = np.random.default_rng(2016)
        for _ in range(50):
            bias = float(rng.normal())
            mac = MACUnit(fmt)
            mac.reset(bias=bias)
            reference = bias
            for weight, state in rng.integers(fmt.min_raw, fmt.max_raw + 1,
                                              size=(64, 2)).tolist():
                mac.accumulate_raw(weight, state)
                reference += to_float(weight, fmt) * to_float(state, fmt)
            assert mac.accumulator == reference
            assert mac.result_raw == int(from_float(reference, fmt))


    @pytest.mark.parametrize("fmt", [Q_1_7_8, QFormat(3, 12)], ids=str)
    def test_result_raw_equals_from_float(self, fmt):
        """The read-out rounds half to even and saturates exactly like
        :func:`from_float`: on exact ±0.5-LSB ties, past both ends of
        the range, and on 10k seeded accumulator values."""
        lsb = 1.0 / fmt.scale
        ties = [(k + 0.5) * lsb for k in range(-8, 8)]
        ends = [fmt.max_value, fmt.min_value,
                fmt.max_value + lsb / 2, fmt.min_value - lsb / 2,
                fmt.max_value + lsb, fmt.min_value - lsb,
                fmt.max_value * 3, fmt.min_value * 3, 1e9, -1e9]
        seeded = np.random.default_rng(19).uniform(
            fmt.min_value * 1.1, fmt.max_value * 1.1, 10_000).tolist()
        mac = MACUnit(fmt)
        for value in ties + ends + seeded:
            mac.reset(bias=value)
            raw = mac.result_raw
            assert type(raw) is int
            assert raw == int(from_float(value, fmt)), value
        for value in ties:
            mac.reset(bias=value)
            assert mac.result_raw % 2 == 0, value  # half to even
        mac.reset(bias=fmt.max_value * 3)
        assert mac.result_raw == fmt.max_raw
        mac.reset(bias=fmt.min_value * 3)
        assert mac.result_raw == fmt.min_raw


def make_pe(groups, config=None):
    config = config or NeurocubeConfig.hmc_15nm()
    interconnect = Interconnect(Mesh2D(4, 4),
                                local_rate=config.items_per_word)
    pe = ProcessingElement(0, config, interconnect)
    pe.program(groups)
    return pe, interconnect


def group(n_slots=2, n_conn=3, weights=None, mode="mac",
          resident=True, shared=False, biases=None):
    slots = tuple(GroupSlot(neuron=("n", i), home_vault=0,
                            bias=0.0 if biases is None else biases[i])
                  for i in range(n_slots))
    if weights is None and resident and mode == "mac":
        weights = tuple(from_float(1.0) for _ in range(n_conn))
    return GroupPlan(slots=slots, n_connections=n_conn, mode=mode,
                     weights_resident=resident, shared_state=shared,
                     weights=weights)


def state_packet(mac_id, op_id, value, src=1):
    return Packet(src=src, dst=0, mac_id=mac_id, op_id=op_id,
                  kind=PacketKind.STATE, payload=from_float(value))


def weight_packet(mac_id, op_id, value, src=1):
    return Packet(src=src, dst=0, mac_id=mac_id, op_id=op_id,
                  kind=PacketKind.WEIGHT, payload=from_float(value))


def run_to_done(pe, interconnect, feed, max_cycles=2000):
    """Feed packets into the PE's router port and step until the PE is
    done and its write-backs have drained from the fabric."""
    pending = list(feed)
    writebacks = []
    for _ in range(max_cycles):
        while pending and interconnect.can_inject(0, Port.MEM):
            interconnect.inject(0, pending.pop(0), Port.MEM)
        interconnect.step()
        pe.step()
        writebacks.extend(interconnect.eject(0, Port.MEM))
        if pe.done and not pending and not interconnect.busy:
            return writebacks
    raise AssertionError("PE did not finish")


class TestProcessingElement:
    def test_in_order_mac_group(self):
        """Two neurons, three connections, resident unit weights: the
        write-backs carry the input sums."""
        pe, ic = make_pe([group(n_slots=2, n_conn=3)])
        feed = []
        for op in range(3):
            feed.append(state_packet(0, op, 1.0))
            feed.append(state_packet(1, op, 2.0))
        writebacks = run_to_done(pe, ic, feed)
        values = {p.mac_id: p.payload for p in writebacks}
        assert values[0] == from_float(3.0)
        assert values[1] == from_float(6.0)

    def test_mac_timing_sixteen_cycles_per_op(self):
        """The MAC clock is f_PE/16: ops cannot retire faster than one
        per n_mac PE cycles even with all data present."""
        config = NeurocubeConfig.hmc_15nm()
        pe, ic = make_pe([group(n_slots=1, n_conn=4)], config)
        feed = [state_packet(0, op, 1.0) for op in range(4)]
        pending = list(feed)
        cycles = 0
        while not pe.done or pending:
            while pending and ic.can_inject(0, Port.MEM):
                ic.inject(0, pending.pop(0), Port.MEM)
            ic.step()
            pe.step()
            ic.eject(0, Port.MEM)
            cycles += 1
            assert cycles < 1000
        assert cycles >= 4 * config.n_mac

    def test_out_of_order_packets_cached(self):
        """Fig. 11(b): a packet whose OP-ID is ahead of the OP-counter
        parks in sub-bank mod(OP-ID, 16) and is recovered later."""
        pe, ic = make_pe([group(n_slots=1, n_conn=3)])
        feed = [state_packet(0, 2, 5.0), state_packet(0, 1, 3.0),
                state_packet(0, 0, 1.0)]
        writebacks = run_to_done(pe, ic, feed)
        assert writebacks[0].payload == from_float(9.0)

    def test_stale_packet_raises(self):
        """A packet for an already-completed operation is a protocol
        violation (the PE has no way to apply it)."""
        pe, ic = make_pe([group(n_slots=1, n_conn=2)])
        feed = [state_packet(0, 0, 1.0), state_packet(0, 1, 1.0)]
        run_to_done(pe, ic, feed)
        ic.inject(0, state_packet(0, 0, 2.0), Port.MEM)  # stale op 0
        with pytest.raises(ProtocolError):
            for _ in range(200):
                ic.step()
                pe.step()

    def test_streamed_weights(self):
        pe, ic = make_pe([group(n_slots=1, n_conn=2, resident=False,
                                weights=None)])
        feed = [weight_packet(0, 0, 2.0), state_packet(0, 0, 3.0),
                weight_packet(0, 1, 1.0), state_packet(0, 1, 4.0)]
        writebacks = run_to_done(pe, ic, feed)
        assert writebacks[0].payload == from_float(10.0)

    def test_max_mode_handles_all_negative(self):
        pe, ic = make_pe([group(n_slots=1, n_conn=2, mode="max",
                                resident=True, weights=None)])
        feed = [state_packet(0, 0, -4.0), state_packet(0, 1, -2.0)]
        writebacks = run_to_done(pe, ic, feed)
        assert writebacks[0].payload == from_float(-2.0)

    def test_bias_preloaded_per_slot(self):
        pe, ic = make_pe([group(n_slots=2, n_conn=1,
                                biases=[0.5, -0.5])])
        feed = [state_packet(0, 0, 1.0), state_packet(1, 0, 1.0)]
        writebacks = run_to_done(pe, ic, feed)
        values = {p.mac_id: p.payload for p in writebacks}
        assert values[0] == from_float(1.5)
        assert values[1] == from_float(0.5)

    def test_multiple_groups_sequential(self):
        groups = [group(n_slots=1, n_conn=2) for _ in range(3)]
        pe, ic = make_pe(groups)
        feed = []
        for g in range(3):
            for c in range(2):
                feed.append(state_packet(0, g * 2 + c, float(g + 1)))
        writebacks = run_to_done(pe, ic, feed)
        assert [p.payload for p in writebacks] == [
            from_float(2.0), from_float(4.0), from_float(6.0)]

    def test_writeback_carries_neuron_tag_and_home(self):
        pe, ic = make_pe([group(n_slots=1, n_conn=1)])
        writebacks = run_to_done(pe, ic, [state_packet(0, 0, 1.0)])
        assert writebacks[0].neuron == ("n", 0)
        assert writebacks[0].kind == PacketKind.WRITEBACK

    def test_cache_backpressure_refuses_packets(self):
        """A full sub-bank leaves packets in the router (credit stall)
        rather than dropping them."""
        config = NeurocubeConfig.hmc_15nm().with_(
            cache_entries_per_subbank=2)
        pe, ic = make_pe([group(n_slots=1, n_conn=40)], config)
        # Ops 16 and 32 share sub-bank 0 with... fill sub-bank 1 with
        # ops 17 (x2 entries) then one more must wait upstream.
        for value, op in ((1.0, 17), (2.0, 17), (3.0, 17)):
            ic.inject(0, state_packet(0, op, value), Port.MEM)
        for _ in range(20):
            ic.step()
            pe.step()
        # Two entries cached; the third stays inside the fabric.
        assert ic.occupancy == 1

    def test_reprogram_midway_raises(self):
        pe, _ = make_pe([group()])
        with pytest.raises(ProtocolError):
            pe.program([group()])

    def test_empty_program_is_done(self):
        pe, _ = make_pe([])
        assert pe.done

    def test_group_plan_validation(self):
        with pytest.raises(ConfigurationError):
            GroupPlan(slots=(), n_connections=1)
        with pytest.raises(ConfigurationError):
            group(n_conn=3, weights=(1,), resident=True)
