"""Direct tests of the router's switch stage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.noc import Packet, PacketKind, Port
from repro.noc.router import Router


def packet(dst, op_id=0, kind=PacketKind.STATE):
    return Packet(src=0, dst=dst, mac_id=0, op_id=op_id, kind=kind)


def route_by_dst(routes):
    """Route function from a dst -> port mapping."""
    return lambda pkt: routes[pkt.dst]


def make_router(routes, link_ports=(Port.EAST, Port.WEST),
                local_rate=2, depth=16):
    return Router(0, list(link_ports), route_by_dst(routes),
                  buffer_depth=depth, local_rate=local_rate)


class TestSwitch:
    def test_moves_head_to_routed_output(self):
        router = make_router({1: Port.EAST})
        router.inputs[Port.MEM].push(packet(1))
        assert router.switch() == 1
        assert router.outputs[Port.EAST].pop().dst == 1

    def test_parallel_moves_different_outputs(self):
        router = make_router({1: Port.EAST, 2: Port.WEST})
        router.inputs[Port.MEM].push(packet(1))
        router.inputs[Port.PE].push(packet(2))
        assert router.switch() == 2

    def test_contention_one_winner_per_link_output(self):
        router = make_router({1: Port.EAST})
        router.inputs[Port.MEM].push(packet(1))
        router.inputs[Port.WEST].push(packet(1))
        assert router.switch() == 1
        assert router.outputs[Port.EAST].occupancy == 1

    def test_local_output_moves_at_word_rate(self):
        """The PE output can accept two packets per cycle (one 32-bit
        word), fed by the MEM input at the same rate."""
        router = make_router({0: Port.PE}, local_rate=2)
        for op in range(4):
            router.inputs[Port.MEM].push(packet(0, op_id=op))
        assert router.switch() == 2
        assert router.outputs[Port.PE].occupancy == 2

    def test_link_output_capped_at_one(self):
        router = make_router({1: Port.EAST}, local_rate=2)
        router.inputs[Port.MEM].push(packet(1))
        router.inputs[Port.MEM].push(packet(1))
        assert router.switch() == 1

    def test_full_output_blocks_move(self):
        router = make_router({1: Port.EAST}, depth=1)
        router.outputs[Port.EAST].push(packet(1))
        router.inputs[Port.MEM].push(packet(1))
        assert router.switch() == 0
        assert router.inputs[Port.MEM].occupancy == 1

    def test_fifo_order_preserved_per_input(self):
        router = make_router({0: Port.PE}, local_rate=1)
        for op in range(3):
            router.inputs[Port.MEM].push(packet(0, op_id=op))
        ops = []
        for _ in range(3):
            router.switch()
            ops.append(router.outputs[Port.PE].pop().op_id)
        assert ops == [0, 1, 2]

    def test_arbitration_rotates_between_contenders(self):
        router = make_router({0: Port.PE}, local_rate=1)
        winners = []
        for _ in range(4):
            router.inputs[Port.MEM].push(packet(0, op_id=1))
            router.inputs[Port.PE].push(packet(0, op_id=2))
            router.switch()
            winners.append(router.outputs[Port.PE].pop().op_id)
            # drain the loser so the queues stay short
            for port in (Port.MEM, Port.PE):
                while not router.inputs[port].empty:
                    router.inputs[port].pop()
        assert set(winners) == {1, 2}

    def test_busy_and_occupancy(self):
        router = make_router({1: Port.EAST})
        assert not router.busy
        router.inputs[Port.MEM].push(packet(1))
        assert router.busy
        assert router.occupancy == 1

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            Router(0, [Port.EAST, Port.EAST], lambda p: Port.EAST)

    def test_bad_local_rate(self):
        with pytest.raises(ConfigurationError):
            Router(0, [Port.EAST], lambda p: Port.EAST, local_rate=0)


#: A mesh router's six ports, in switch (input index) order.
MESH_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)
ALL_PORTS = MESH_PORTS + (Port.PE, Port.MEM)


def contention_router():
    """A six-port router that routes every packet to its EAST output."""
    return Router(0, list(MESH_PORTS), lambda pkt: Port.EAST)


def contend(router, requesters):
    """One switch cycle with ``requesters`` (input indices) all wanting
    the EAST output; returns the granted input's index.  The losers'
    packets are cleared so every call starts from empty inputs."""
    for index in requesters:
        router.inputs[ALL_PORTS[index]].push(packet(1, op_id=index))
    assert router.switch() == 1
    winner = router.outputs[Port.EAST].pop().op_id
    for port in ALL_PORTS:
        router.inputs[port].fifo.clear()
    return winner


def idle(router, cycles):
    for _ in range(cycles):
        assert router.switch() == 0


class TestArbitration:
    """§III-C rotating daisy-chain priority, seen through the switch:
    one head per router, starting at input 0 and advancing every cycle,
    busy or idle."""

    def test_grants_sole_requester(self):
        router = contention_router()
        idle(router, 4)
        assert contend(router, [2]) == 2

    def test_no_requests_moves_nothing(self):
        router = contention_router()
        assert router.switch() == 0
        assert router.state_dict()["arbiters"][Port.EAST]["grants"] == 0

    def test_head_first_grant(self):
        router = contention_router()
        assert contend(router, [0, 2]) == 0  # head 0
        idle(router, 1)
        assert contend(router, [1, 2, 3]) == 2  # head 2

    def test_daisy_chain_past_idle_head(self):
        router = contention_router()
        assert contend(router, [2, 3]) == 2  # head 0 not requesting

    def test_daisy_chain_wrap(self):
        """No requester at or after the head: the grant wraps to the
        lowest-numbered requester."""
        router = contention_router()
        idle(router, 4)
        assert contend(router, [0, 1, 3]) == 0  # head 4
        assert contend(router, [1, 3]) == 1  # head 5

    def test_rotation_changes_winner(self):
        router = contention_router()
        winners = [contend(router, [0, 1]) for _ in range(6)]
        assert winners == [0, 1, 0, 0, 0, 0]

    def test_rotation_on_idle_cycles(self):
        """Idle switch cycles and batched idle cycles rotate the head
        exactly as busy ones do, on every output port."""
        stepped, batched = contention_router(), contention_router()
        idle(stepped, 9)
        batched.advance_idle(9)
        for router in (stepped, batched):
            heads = {state["head"] for state
                     in router.state_dict()["arbiters"].values()}
            assert heads == {9 % len(ALL_PORTS)}
            assert contend(router, range(len(ALL_PORTS))) == 3

    def test_starvation_freedom(self):
        """Every persistent requester is granted within one rotation."""
        router = contention_router()
        granted = {contend(router, range(len(ALL_PORTS)))
                   for _ in range(len(ALL_PORTS))}
        assert granted == set(range(len(ALL_PORTS)))

    @given(requests=st.sets(st.integers(0, 5), min_size=1),
           rotations=st.integers(0, 20))
    @settings(max_examples=200)
    def test_grant_is_always_a_requester(self, requests, rotations):
        router = contention_router()
        router.advance_idle(rotations)
        head = rotations % len(ALL_PORTS)
        expected = min((index for index in requests if index >= head),
                       default=min(requests))
        assert contend(router, sorted(requests)) == expected

    def test_state_round_trip_keeps_head_and_grants(self):
        router = contention_router()
        for _ in range(3):
            contend(router, [4, 5])
        state = router.state_dict()
        restored = contention_router()
        restored.load_state(state)
        assert restored.state_dict() == state
        assert state["arbiters"][Port.EAST] == {"head": 3, "grants": 3}
        assert contend(restored, [0, 4]) == 4  # head 3
