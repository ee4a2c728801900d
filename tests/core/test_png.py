"""Tests for the programmable neurosequence generator.

The AddressGenerator is checked against the paper's Eq. 4/5 and the
§IV-C worked example; the cycle-level agent is checked for packetisation,
backpressure, horizon gating and the write-back/LUT path.
"""

import numpy as np
import pytest

from repro.core import NeurocubeConfig
from repro.core.png import (
    AddressGenerator,
    EmissionRecord,
    NeurosequenceGenerator,
    PNGRegisters,
    RegisterStream,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.memory.vault import VaultChannel
from repro.nn.activations import ActivationLUT, Identity
from repro.noc import Interconnect, Mesh2D, Packet, PacketKind, Port


def conv_registers(width=8, height=8, kernel=3, n_mac=4,
                   addr_last=0) -> PNGRegisters:
    out_w = width - kernel + 1
    out_h = height - kernel + 1
    offsets = tuple((dx, dy) for dy in range(kernel)
                    for dx in range(kernel))
    return PNGRegisters(n_neurons=out_w * out_h,
                        n_connections=kernel * kernel, n_mac=n_mac,
                        image_width=width, output_width=out_w,
                        addr_last=addr_last, offsets=offsets)


class TestRegisters:
    def test_paper_example_values(self):
        """§IV-C: conv layer 1 registers — 73,476 neurons (314x234),
        49 connections, stride 16."""
        registers = PNGRegisters(
            n_neurons=73_476, n_connections=49, n_mac=16,
            image_width=314,
            offsets=tuple((dx, dy) for dy in range(7) for dx in range(7)))
        assert registers.n_neurons == 314 * 234
        generator = AddressGenerator(registers)
        assert generator.total_events == 73_476 * 49

    def test_offsets_length_checked(self):
        with pytest.raises(ConfigurationError):
            PNGRegisters(n_neurons=4, n_connections=9, n_mac=2,
                         image_width=4, offsets=((0, 0),))

    def test_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            PNGRegisters(n_neurons=0, n_connections=1, n_mac=1,
                         image_width=1)


class TestAddressGeneratorEquations:
    def test_eq4_eq5_state_address(self):
        """Addr = targ_y * W + targ_x + Addr_last with targ = cur + n."""
        registers = conv_registers(width=8, kernel=3, addr_last=100)
        generator = AddressGenerator(registers)
        # Neuron 7 of a 6-wide output = (x=1, y=1); connection (2, 1).
        neuron = 7
        connection = 1 * 3 + 2
        assert generator.neuron_coords(neuron) == (1, 1)
        assert generator.state_address(neuron, connection) == (
            (1 + 1) * 8 + (1 + 2) + 100)

    def test_fc_address_is_input_index(self):
        registers = PNGRegisters(n_neurons=4, n_connections=10, n_mac=2,
                                 image_width=10, addr_last=50)
        generator = AddressGenerator(registers)
        assert generator.state_address(3, 7) == 57

    def test_fc_weight_matrix_address(self):
        registers = PNGRegisters(n_neurons=4, n_connections=10, n_mac=2,
                                 image_width=10, weight_base=200)
        generator = AddressGenerator(registers)
        assert generator.weight_address(3, 7) == 200 + 3 * 10 + 7

    def test_conv_weight_shared_per_connection(self):
        registers = conv_registers()
        generator = AddressGenerator(registers)
        assert (generator.weight_address(0, 5)
                == generator.weight_address(11, 5))


class TestAddressGeneratorFSM:
    def test_loop_nesting_order(self):
        """Fig. 8d: MAC lane innermost, then connection, then neuron
        group; the neuron counter advances by n_mac."""
        registers = PNGRegisters(n_neurons=6, n_connections=2, n_mac=4,
                                 image_width=6)
        events = list(AddressGenerator(registers).events())
        head = [(e.neuron, e.connection, e.mac) for e in events[:8]]
        assert head == [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3),
                        (0, 1, 0), (1, 1, 1), (2, 1, 2), (3, 1, 3)]

    def test_ragged_final_group_masked(self):
        registers = PNGRegisters(n_neurons=6, n_connections=2, n_mac=4,
                                 image_width=6)
        events = list(AddressGenerator(registers).events())
        assert len(events) == 6 * 2
        tail_neurons = {e.neuron for e in events[8:]}
        assert tail_neurons == {4, 5}

    def test_every_neuron_connection_visited_once(self):
        registers = conv_registers(width=6, height=6, kernel=3, n_mac=4)
        events = list(AddressGenerator(registers).events())
        pairs = {(e.neuron, e.connection) for e in events}
        assert len(events) == len(pairs) == 16 * 9


class TestRegisterStreamSeek:
    """A steady-state jump rebuilds records from the counters and
    re-seeks the stream: every record, position and tail must equal
    what iterating from the start gives, ragged last group included."""

    @pytest.mark.parametrize("registers", [
        conv_registers(width=7, height=6, kernel=3, n_mac=4),
        PNGRegisters(n_neurons=6, n_connections=5, n_mac=4,
                     image_width=5, addr_last=7, weight_base=100),
    ], ids=["local", "fully-connected"])
    def test_seek_matches_iteration(self, registers):
        tags = tuple(("n", neuron) for neuron in range(registers.n_neurons))
        stream = RegisterStream(registers, dst=3, neurons=tags)
        records = list(stream)
        assert len(records) == len(stream)
        for index, record in enumerate(records):
            assert stream.op_of(index) == record.op_id
            assert stream.record(record.op_id, record.mac_id,
                                 record.kind) == record
            assert list(stream.records(index)) == records[index:]
            first = stream.position(record.op_id)
            assert records[first].op_id == record.op_id
            assert first == 0 or records[first - 1].op_id < record.op_id
        assert list(stream.records(len(records))) == []

    def test_local_terms_computed_once(self):
        stream = RegisterStream(conv_registers(), dst=0,
                                neurons=tuple(range(36)))
        assert stream.local_terms() is stream.local_terms()


def make_agent(emissions, expected=0, lut=None, sink=None, data=None,
               horizon=None):
    config = NeurocubeConfig.hmc_15nm()
    interconnect = Interconnect(Mesh2D(4, 4), local_rate=2)
    vault = VaultChannel(config.channel_timing, vault_id=0, data=data)
    png = NeurosequenceGenerator(vault, node=0, interconnect=interconnect,
                                 horizon=horizon)
    png.program(iter(emissions), expected, lut=lut, writeback_sink=sink)
    return png, interconnect


def record(address=0, dst=0, mac=0, op=0):
    return EmissionRecord(address=address, dst=dst, mac_id=mac, op_id=op,
                          kind=PacketKind.STATE)


class TestNeurosequenceGeneratorAgent:
    def test_emits_packets_with_payload(self):
        data = np.arange(16, dtype=np.int64) * 2
        png, ic = make_agent([record(address=3)], data=data)
        for _ in range(300):
            png.step()
            ic.step()
            got = ic.eject(0, Port.PE)
            if got:
                assert got[0].payload == 6
                break
        else:
            raise AssertionError("no packet emitted")

    def test_two_packets_per_word(self):
        """Fig. 11a: a 32-bit word becomes two packets; 2N records take
        ~N vault word slots, not 2N."""
        records = [record(address=i, op=i) for i in range(32)]
        png, ic = make_agent(records)
        for _ in range(300):
            png.step()
            ic.step()
        assert png.vault.words_served == 16

    def test_done_after_all_writebacks(self):
        seen = []
        png, ic = make_agent([], expected=1,
                             sink=lambda p, raw: seen.append(raw))
        assert not png.done
        wb = Packet(src=1, dst=0, mac_id=0, op_id=0,
                    kind=PacketKind.WRITEBACK, payload=5)
        ic.inject(0, wb, Port.PE)
        for _ in range(50):
            png.step()
            ic.step()
            if png.done:
                break
        assert png.done
        assert seen == [5]

    def test_lut_applied_on_writeback(self):
        """§IV-A: the returned state passes through the activation LUT
        before being stored (Eq. 2)."""
        lut = ActivationLUT(Identity())
        seen = []
        png, ic = make_agent([], expected=1, lut=lut,
                             sink=lambda p, raw: seen.append(raw))
        ic.inject(0, Packet(src=1, dst=0, mac_id=0, op_id=0,
                            kind=PacketKind.WRITEBACK, payload=40_000),
                  Port.PE)
        for _ in range(50):
            png.step()
            ic.step()
        # 40,000 exceeds Q1.7.8's max raw; the LUT clamps it.
        assert seen == [32767]

    def test_unexpected_writeback_raises(self):
        png, ic = make_agent([], expected=0)
        ic.inject(0, Packet(src=1, dst=0, mac_id=0, op_id=0,
                            kind=PacketKind.WRITEBACK), Port.PE)
        with pytest.raises(ProtocolError):
            for _ in range(50):
                png.step()
                ic.step()

    def test_horizon_gates_emission(self):
        """Records beyond the lock-step horizon wait."""
        records = [record(op=0), record(op=100)]
        png, ic = make_agent(records, horizon=lambda: 10)
        for _ in range(300):
            png.step()
            ic.step()
        delivered = ic.eject(0, Port.PE, limit=10)
        assert [p.op_id for p in delivered] == [0]
        assert not png.done

    def test_reprogram_before_done_raises(self):
        png, _ = make_agent([record()])
        with pytest.raises(ProtocolError):
            png.program(iter([]), 0)


def delivered_payloads(png, ic, count, cycles=400):
    """Step the agent and fabric until ``count`` packets reach PE 0."""
    payloads = []
    for _ in range(cycles):
        png.step()
        ic.step()
        payloads.extend(p.payload for p in ic.eject(0, Port.PE))
        if len(payloads) >= count:
            return payloads
    raise AssertionError(f"only {len(payloads)} of {count} packets emitted")


class TestPayloadRead:
    """The vault models timing; the PNG reads each record's item from the
    vault's backing store when the word read completes."""

    def test_payload_is_backing_item(self):
        data = np.arange(10, dtype=np.int64) * 3
        png, ic = make_agent([record(address=4, mac=0),
                              record(address=5, mac=1)], data=data)
        assert delivered_payloads(png, ic, 2) == [12, 15]
        assert png.vault.words_served == 1

    def test_timing_only_vault_gives_zero(self):
        png, ic = make_agent([record(address=4)])
        assert delivered_payloads(png, ic, 1) == [0]

    def test_synthesised_address_gives_zero(self):
        data = np.full(4, 9, dtype=np.int64)
        png, ic = make_agent([record(address=-1)], data=data)
        assert delivered_payloads(png, ic, 1) == [0]

    def test_read_past_end_gives_zero(self):
        png, ic = make_agent([record(address=0, mac=0),
                              record(address=1, mac=1)],
                             data=np.array([7], dtype=np.int64))
        assert delivered_payloads(png, ic, 2) == [7, 0]

    def test_item_is_read_at_completion(self):
        """A write landing between a read's issue and its completion is
        what the packet carries."""
        data = np.arange(8, dtype=np.int64)
        png, ic = make_agent([record(address=3)], data=data)
        png.step()
        ic.step()
        assert png.vault.words_served == 1 and png.vault.busy
        png.vault.write_items(3, [99])
        assert delivered_payloads(png, ic, 1) == [99]
