"""Tests for the assembled NoC: delivery, ordering, backpressure, stats."""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultConfig, FaultInjector
from repro.noc import (
    FullyConnected,
    Interconnect,
    Mesh2D,
    Packet,
    PacketKind,
    Port,
)
from repro.noc.interconnect import FoldedInterconnect
from repro.obs import Tracer


def packet(src, dst, op_id=0, kind=PacketKind.STATE, cycle=0):
    return Packet(src=src, dst=dst, mac_id=0, op_id=op_id, kind=kind,
                  inject_cycle=cycle)


def drain(interconnect, ports=(Port.PE,), max_cycles=10_000):
    """Step until idle, collecting deliveries per (node, port)."""
    delivered = []
    for _ in range(max_cycles):
        interconnect.step()
        for node in range(interconnect.topology.n_nodes):
            for port in ports:
                delivered.extend(interconnect.eject(node, port))
        if not interconnect.busy:
            return delivered
    raise AssertionError("interconnect did not drain")


class TestDelivery:
    def test_local_delivery(self):
        ic = Interconnect(Mesh2D(4, 4))
        ic.inject(5, packet(5, 5))
        got = drain(ic)
        assert len(got) == 1 and got[0].dst == 5

    def test_all_pairs_delivered(self):
        ic = Interconnect(Mesh2D(4, 4))
        for src in range(16):
            for dst in range(16):
                assert ic.inject(src, packet(src, dst, op_id=dst))
        got = drain(ic)
        assert len(got) == 256

    def test_packets_reach_correct_node(self):
        ic = Interconnect(Mesh2D(4, 4))
        ic.inject(0, packet(0, 9))
        for _ in range(100):
            ic.step()
            for node in range(16):
                for p in ic.eject(node):
                    assert node == 9
                    return
        raise AssertionError("packet lost")

    def test_fully_connected_lower_latency(self):
        def mean_latency(topology):
            ic = Interconnect(topology)
            for dst in range(1, 16):
                ic.inject(0, packet(0, dst))
            drain(ic)
            return ic.stats.mean_latency

        assert mean_latency(FullyConnected(16)) < mean_latency(
            Mesh2D(4, 4))

    def test_writebacks_go_to_mem_port(self):
        ic = Interconnect(Mesh2D(2, 2))
        ic.inject(0, packet(0, 3, kind=PacketKind.WRITEBACK),
                  port=Port.PE)
        got = drain(ic, ports=(Port.MEM,))
        assert len(got) == 1


class TestOrdering:
    def test_same_flow_preserves_order(self):
        """Deterministic routing: packets of one (src, dst) flow arrive
        in injection order — the property the PE's OP-counter needs."""
        ic = Interconnect(Mesh2D(4, 4))
        pending = [packet(0, 15, op_id=i) for i in range(40)]
        received = []
        while pending or ic.busy:
            while pending and ic.can_inject(0):
                ic.inject(0, pending.pop(0))
            ic.step()
            received.extend(ic.eject(15))
        ops = [p.op_id for p in received]
        assert ops == sorted(ops)


class TestBackpressure:
    def test_injection_refused_when_full(self):
        ic = Interconnect(Mesh2D(2, 2), buffer_depth=2)
        accepted = sum(ic.inject(0, packet(0, 3)) for _ in range(10))
        assert accepted == 2
        assert ic.stats.rejected_injections == 8

    def test_stalled_ejection_fills_buffers_without_loss(self):
        ic = Interconnect(Mesh2D(2, 2), buffer_depth=2)
        sent = 0
        pending = [packet(0, 1, op_id=i) for i in range(12)]
        for _ in range(60):
            while pending and ic.can_inject(0):
                ic.inject(0, pending.pop(0))
                sent += 1
            ic.step()  # never ejecting at node 1
        # Fabric holds what it accepted; nothing vanished.
        assert ic.occupancy == sent
        got = drain(ic)
        assert len(got) + 0 == sent

    def test_bad_ports_rejected(self):
        ic = Interconnect(Mesh2D(2, 2))
        with pytest.raises(ConfigurationError):
            ic.inject(0, packet(0, 1), port=Port.NORTH)
        with pytest.raises(ConfigurationError):
            ic.eject(0, port=Port.EAST)


class TestLocalRate:
    def test_local_ports_move_word_rate(self):
        """The MEM->PE path must sustain 2 packets/cycle (one 32-bit
        word), or a vault could never feed its own PE at full rate."""
        ic = Interconnect(Mesh2D(2, 2), local_rate=2)
        pending = [packet(1, 1, op_id=i) for i in range(64)]
        cycles = 0
        received = 0
        while received < 64:
            while pending and ic.can_inject(1):
                ic.inject(1, pending.pop(0))
            ic.step()
            received += len(ic.eject(1))
            cycles += 1
            assert cycles < 200
        # 64 packets at 2/cycle plus pipeline fill.
        assert cycles <= 40

    def test_mesh_links_stay_single_rate(self):
        ic = Interconnect(Mesh2D(1, 2), local_rate=2)
        pending = [packet(0, 1, op_id=i) for i in range(32)]
        cycles = 0
        received = 0
        while received < 32:
            while pending and ic.can_inject(0):
                ic.inject(0, pending.pop(0))
            ic.step()
            received += len(ic.eject(1))
            cycles += 1
            assert cycles < 300
        # One link at 1 packet/cycle bounds the rate from below.
        assert cycles >= 32


class TestStats:
    def test_lateral_fraction(self):
        ic = Interconnect(Mesh2D(2, 2))
        ic.inject(0, packet(0, 0))
        ic.inject(0, packet(0, 3))
        drain(ic)
        assert ic.stats.lateral_fraction == 0.5

    def test_latency_accounts_inject_cycle(self):
        ic = Interconnect(Mesh2D(2, 2))
        for _ in range(5):
            ic.step()
        ic.inject(0, packet(0, 0, cycle=ic.cycle))
        drain(ic)
        assert 0 < ic.stats.mean_latency < 10

    def test_link_traversals_match_hops(self):
        ic = Interconnect(Mesh2D(4, 4))
        ic.inject(0, packet(0, 15))
        drain(ic)
        assert ic.stats.link_traversals == 6


def _link_output_occupancy(fabric):
    return sum(router.outputs[port].occupancy
               for router in fabric.routers
               for port in fabric.topology.link_ports(router.node_id))


def _seeded_traffic(fabric, cycles=300, seed=7):
    """Seeded all-to-all traffic, the shape of the traffic pin in
    ``tests/core/test_engine_pins.py``, checking after every step that
    the link-stage gate's count equals the packets actually sitting in
    link-port output buffers."""
    rng = random.Random(seed)
    n = fabric.topology.n_nodes
    kinds = (PacketKind.WEIGHT, PacketKind.STATE, PacketKind.WRITEBACK)
    op_id = 0
    for cycle in range(cycles * 4):
        offering = cycle < cycles
        if not offering and not fabric.in_fabric:
            break
        for node in range(n):
            if offering and rng.random() < 0.6:
                kind = rng.choice(kinds)
                port = Port.PE if kind is PacketKind.WRITEBACK else Port.MEM
                fabric.inject(node, Packet(
                    src=node, dst=rng.randrange(n), mac_id=rng.randrange(16),
                    op_id=op_id, kind=kind, inject_cycle=fabric.cycle), port)
                op_id += 1
        fabric.step()
        assert fabric.link_resident == _link_output_occupancy(fabric), cycle
        for node in range(n):
            for port in (Port.PE, Port.MEM):
                fabric.eject(node, port,
                             limit=rng.randrange(3) if offering else None)
    assert not fabric.in_fabric, "fabric did not drain"
    assert fabric.link_resident == 0


class TestLinkResidentCount:
    @pytest.mark.parametrize("topology", [Mesh2D(4, 4), FullyConnected(16)],
                             ids=repr)
    @pytest.mark.parametrize("mode", ["untraced", "traced", "faulted"])
    def test_count_matches_link_output_buffers(self, topology, mode):
        injector = None
        if mode == "faulted":
            # No CRC and one retry: link moves, silent corruptions and
            # permanent drops all take packets out of link outputs.
            injector = FaultInjector(FaultConfig(
                noc_drop_rate=0.05, noc_corrupt_rate=0.05, crc=False,
                max_retries=1))
        fabric = Interconnect(topology, buffer_depth=2,
                              tracer=Tracer() if mode == "traced" else None,
                              injector=injector)
        _seeded_traffic(fabric)
        assert fabric.stats.link_traversals > 0
        if injector is not None:
            assert fabric.stats.dropped > 0
            assert injector.stats.link_silent_corruptions > 0


class TestFolded:
    """A folded fabric builds the routers of its weighted nodes only."""

    WEIGHTS = [3, 0, 0, 0, 0, 2] + [0] * 10

    def test_only_weighted_nodes_have_routers(self):
        fabric = FoldedInterconnect(Mesh2D(4, 4), self.WEIGHTS)
        assert [node for node, router in enumerate(fabric.routers)
                if router is not None] == [0, 5]
        assert fabric.link_occupancies() == []
        assert fabric.inject(5, packet(5, 5))
        assert fabric.busy and fabric.occupancy == 1
        delivered = []
        for _ in range(10):
            fabric.step()
            delivered.extend(fabric.eject(5))
        assert len(delivered) == 1
        assert not fabric.busy and fabric.occupancy == 0
        # Node 5 stands for two slices: the delivery counts twice.
        assert fabric.stats.delivered == fabric.stats.injected == 2

    def test_packet_leaving_its_node_raises(self):
        fabric = FoldedInterconnect(Mesh2D(4, 4), self.WEIGHTS)
        assert fabric.inject(0, packet(0, 1))
        with pytest.raises(SimulationError, match="left their node"):
            for _ in range(10):
                fabric.step()
